"""Exception hierarchy for gsvkit.

Cost guards raise subclasses of :class:`GuardError` so callers can
distinguish "refused because it would be too expensive" from genuine
input errors and fall back to cheaper modes.
"""


class GsvError(Exception):
    """Base class for all gsvkit errors."""


class DimensionError(GsvError):
    """A die and a witness (or two vectors) disagree on the face count."""


class StrategyError(GsvError):
    """A strategy returned an out-of-range die index."""


class SpecFormatError(GsvError):
    """A command line or a source / strategy / extractor document could
    not be parsed."""


class EmptySupportError(GsvError):
    """A die gives no face positive probability (only an unvalidated
    source can hold one), so no certificate can be built on its support."""


class GuardError(GsvError):
    """A cost guard would be exceeded; carries the guard's name."""

    guard = "GUARD"


class SubsetLimitError(GuardError):
    """Deciding HNK would test more support unions and die subsets than
    its guard allows (SUBSET_LIMIT)."""

    guard = "SUBSET_LIMIT"


class TreeLimitError(GuardError):
    """A call visits more game-tree nodes, equal states counted once, than
    its cost guard allows (TREE_LIMIT)."""

    guard = "TREE_LIMIT"


class EnumLimitError(GuardError):
    """The worst-case multi-bit error would sweep too many (depth, state)
    pairs, once per output set, or has too many sets (ENUM_LIMIT);
    callers fall back to a fixed strategy."""

    guard = "ENUM_LIMIT"


class OutputWidthError(GuardError):
    """Output width m exceeds the implementation's guard (M_LIMIT)."""

    guard = "M_LIMIT"


class GroupLimitError(GuardError):
    """A fast multi-bit step would make more value groups than its guard
    (GROUP_LIMIT)."""

    guard = "GROUP_LIMIT"


class DigitLimitError(GuardError):
    """An exact value has more decimal digits than Python's int-to-str
    limit (``sys.get_int_max_str_digits``), so it cannot be written out
    (DIGIT_LIMIT)."""

    guard = "DIGIT_LIMIT"


class NotHnkError(GsvError):
    """A ratio witness was requested for a source that fails HNK."""


class EpsilonTooLargeError(GsvError):
    """The constructed ratio witness failed verification at the given
    epsilon; the caller must retry with a smaller value."""


class NoQualifyingDieError(GsvError):
    """The greedy adversary found no die satisfying its gain inequality,
    i.e. the mean-variance ratio precondition does not hold here."""
