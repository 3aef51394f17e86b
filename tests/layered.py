"""The layered oracle engine, kept as the tests' reference.

It answers the oracle's worst-case questions by three passes: a forward
pass that interns the distinct extractor states of each depth apart, a
backward induction over those layers, and a bottom-up builder that makes
each strategy tree a dict DAG (nodes with equal (depth, state) share one
subtree object).  The oracle answers the same questions from one state
graph interned across depths; the differential tests hold the two to the
same values, trees and bytes.  Everything is in integers over Q, the lcm
of the dice denominators, as in the oracle; nothing here has a guard.
"""

from fractions import Fraction
from math import lcm

from gsvkit import NoQualifyingDieError
from gsvkit.model import rat


def die_rows(spec):
    """(Q, rows): ``rows[d][f]`` is die d's probability of face f times Q."""
    q = lcm(*[p.denominator for die in spec.dice for p in die.probs])
    return q, [[p.numerator * (q // p.denominator) for p in die.probs] for die in spec.dice]


def layers(ext, nfaces):
    """(kids, leaves): ``kids[t][i][f]`` indexes, at depth t + 1, the state
    face f leads to from the i-th distinct state at depth t (numbered in
    the order of their smallest histories), and ``leaves[i]`` is the
    output at the i-th state at depth n."""
    layer, kids = [ext.init], []
    for _ in range(ext.n):
        index = {}
        kids.append([[index.setdefault(ext.step(s, f), len(index)) for f in range(nfaces)]
                     for s in layer])
        layer = list(index)
    return kids, [ext.finish(s) for s in layer]


def induct(rows, kids, leaf_values, pick):
    """(values, dies): ``values[t][i]`` over every layer and ``dies[t][i]``,
    the first die reaching the ``pick`` (max or min) of the die
    expectations, for t < n."""
    values, dies = [leaf_values], []
    for layer in reversed(kids):
        below = values[-1]
        sums = [[sum(p * below[kid[f]] for f, p in enumerate(row)) for row in rows]
                for kid in layer]
        best = [pick(col) for col in sums]
        values.append(best)
        dies.append([col.index(v) for col, v in zip(sums, best)])
    values.reverse()
    dies.reverse()
    return values, dies


def first_history(kids, t, i):
    """The smallest history reaching the i-th state at depth t: the first
    (parent, face) pointing to a state interned it."""
    history = ()
    for layer in reversed(kids[:t]):
        i, f = next((p, f) for p, row in enumerate(layer) for f, k in enumerate(row) if k == i)
        history = (f, *history)
    return history


def tree(labels, kids, dies, nleaves):
    """The strategy tree playing ``dies[t][i]`` at the i-th state of depth
    t, built bottom-up: nodes with equal states share one object."""
    below = [{}] * nleaves
    for layer, layer_dies in zip(reversed(kids), reversed(dies)):
        below = [{"die": die, "children": {labels[f]: below[k] for f, k in enumerate(row)}}
                 for row, die in zip(layer, layer_dies)]
    return below[0]


def extremes(spec, ext):
    """(max E[Ext], min E[Ext], max tree, min tree) of a +/-1 table."""
    q, rows = die_rows(spec)
    kids, leaves = layers(ext, spec.num_faces)
    out = []
    for pick in (max, min):
        values, dies = induct(rows, kids, leaves, pick)
        out.append((Fraction(values[0][0], q**ext.n), tree(spec.face_labels, kids, dies,
                                                           len(leaves))))
    (hi, hi_tree), (lo, lo_tree) = out
    return hi, lo, hi_tree, lo_tree


def greedy_tree(spec, ext, epsilon):
    """The greedy adversary's tree DAG, or NoQualifyingDieError naming the
    least failing history in tuple order."""
    eps = rat(epsilon)
    q, rows = die_rows(spec)
    kids, leaves = layers(ext, spec.num_faces)
    adv, _dies = induct(rows, kids, [1 if out == 1 else 0 for out in leaves], min)

    def gain_die(a, kid_adv, scale):
        # alpha = a / (Q*scale), alpha(f) = A_f / scale, times e_den * Q^2 * scale^2
        for d, row in enumerate(rows):
            m1 = sum(p * x for p, x in zip(row, kid_adv))
            m2 = sum(p * x * x for p, x in zip(row, kid_adv))
            if eps.denominator * scale * (q * m1 - a * sum(row)) >= eps.numerator * (
                    q * m2 - m1 * m1):
                return d
        return None

    dies = [[gain_die(adv[t][i], [adv[t + 1][k] for k in kid], q ** (ext.n - t - 1))
             for i, kid in enumerate(layer)] for t, layer in enumerate(kids)]
    failing = [(t, layer.index(None)) for t, layer in enumerate(dies) if None in layer]
    if failing:
        history = min(first_history(kids, t, i) for t, i in failing)
        raise NoQualifyingDieError(f"no die satisfies the gain inequality at history {history}")
    return tree(spec.face_labels, kids, dies, len(leaves))


def multibit_error(spec, ext):
    """Worst-case TV distance from uniform of an index table: the largest
    Pr[out in S] - |S|/2^m over nonempty proper output sets S."""
    q, rows = die_rows(spec)
    kids, leaves = layers(ext, spec.num_faces)
    scale = q**ext.n
    worst = 0
    for s in range(1, (1 << ext.out_size) - 1):
        values, _dies = induct(rows, kids, [s >> out & 1 for out in leaves], max)
        worst = max(worst, values[0][0] * ext.out_size - s.bit_count() * scale)
    return Fraction(worst, ext.out_size * scale)
