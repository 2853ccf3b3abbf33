"""Unique binary expansions in non-integer bases.

Library layout:

- ``words``: binary words and eventually periodic sequences, the
  Thue-Morse sequence, the doubling map, the extremal set, and primitive
  necklace enumeration.
- ``algebraic``: integer polynomials and certified real root arithmetic.
- ``expansions``: greedy and quasi-greedy expansions, uniqueness
  criterion, evaluation, base solving, and the gap map.
- ``thresholds``: Sharkovskii ordering, least extremal sequences, the
  certified period thresholds, and the Komornik-Loreti constant.
- ``trapezoid``: trapezoidal maps, itineraries, the run-start encoding,
  the unimodal order, cycle search, and the extension demonstration.
- ``oracle``: brute-force verification (pruned necklace search, threshold
  recovery by bisection, ordering checks).
- ``cli``: the ``univoque`` command.
"""

from .algebraic import CertifiedRoot, IntPolynomial, poly_str
from .errors import (
    BoundaryAmbiguityError,
    MiddleGapError,
    NotInImageError,
    NotParryError,
    OutOfDomainError,
    PreconditionViolated,
    TooLargeError,
    UndecidableDigitError,
    UndecidedError,
    UnivoqueError,
)
from .expansions import (
    AlgebraicBeta,
    BetaValue,
    FloatBeta,
    GreedyExpansion,
    as_beta,
    d_of_beta,
    expansion_value,
    greedy_digits,
    is_parry_admissible,
    is_unique_expansion,
    quasi_greedy,
    shift_map,
    solve_base,
)
from .oracle import (
    exists_period_n_unique,
    extremal_rotation,
    lemma_report,
    min_beta_for_period,
    verify_ordering,
)
from .thresholds import (
    SharkovskiiKey,
    below_komornik_loreti,
    decompose,
    greedy_threshold,
    kl_bracket,
    komornik_loreti,
    min_extremal_explicit,
    min_extremal_recursive,
    reduced_poly,
    sharkovskii_cmp,
    threshold_beta,
    threshold_poly,
)
from .trapezoid import (
    Itinerary,
    TrapezoidParams,
    decode_itinerary,
    encode_itinerary,
    extension_map,
    extension_three_cycle,
    find_lr_cycles,
    itinerary,
    trapezoid_map,
    unimodal_cmp,
)
from .words import (
    EQUAL,
    GREATER,
    LESS,
    BinaryWord,
    Necklace,
    PeriodicSeq,
    doubling_map,
    doubling_prefix,
    is_extremal,
    lex_cmp,
    mirror,
    primitive_necklaces,
    shift,
    split_halfmirror,
    thue_morse,
    tm_morphism,
)

__version__ = "0.1.0"
