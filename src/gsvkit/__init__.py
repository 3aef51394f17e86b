"""Generalized Santha-Vazirani source toolkit.

Classify source types by their extractability (exactly, with verifiable
witnesses), run the matching extractors, and measure worst-case behavior
against an exact adaptive-adversary oracle.
"""

from .classify import (
    Category,
    ClassificationReport,
    DualCertificate,
    HnkCertificate,
    KernelBasis,
    check_hnk,
    check_mvd,
    check_mvr,
    check_nk,
    check_nk_plus,
    classify,
    dual_certificate,
    kernel_basis,
    mvr_witness,
)
from .errors import (
    DigitLimitError,
    DimensionError,
    EmptySupportError,
    EnumLimitError,
    EpsilonTooLargeError,
    GroupLimitError,
    GsvError,
    GuardError,
    NoQualifyingDieError,
    NotHnkError,
    OutputWidthError,
    SpecFormatError,
    StrategyError,
    SubsetLimitError,
    TreeLimitError,
)
from .extractors import (
    BitExpState,
    MultiBitState,
    ThresholdState,
    bit_exp_step,
    bit_extract_exp,
    multibit_extract_naive,
    multibit_step_naive,
    threshold_bound_m,
    threshold_extract,
    threshold_step,
)
from .fastmultibit import FastMultibitState, multibit_extract_fast
from .model import (
    Die,
    History,
    SourceSpec,
    Strategy,
    ValidationReport,
    Violation,
    Witness,
    WitnessKind,
    die_mean,
    die_var,
    rat,
    sample_sequence,
    support,
    validate_source,
)
from .oracle import (
    BiasReport,
    ExtractorTable,
    exact_biases,
    exact_extremes,
    exact_multibit_error,
    greedy_plus_strategy,
    output_distribution,
)
from .presets import e1, e2, fair_coin, hidden_sv, load_source, sv_pair

__version__ = "0.1.0"
