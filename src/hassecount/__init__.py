"""Point counting on elliptic curves over finite fields via point orders,
with exhaustive certification of the small-field exceptional cases."""

from .counting import CountResult, EXCLUDED_Q, GroupStructure, count_points, group_structure, lambda_exponent
from .curve import (
    Curve,
    Point,
    count_exhaustive,
    count_pair_scan,
    enumerate_points,
    quadratic_twist,
    random_point,
)
from .errors import (
    ExcludedField,
    FieldTooLarge,
    HasseCountError,
    IncompatibleCongruence,
    InternalInvariantError,
    IterationCapExceeded,
    NotASquare,
    NotPrime,
    NotPrimePower,
    PointNotOnCurve,
    ReduciblePolynomial,
    SingularCurve,
    SpecMismatch,
)
from .exceptions import (
    ExceptionRecord,
    Table1RowReport,
    enumerate_exceptions,
    exceptional_q_set,
    parity_filter,
    verify_table1,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    absolute_trace,
    is_square,
    make_spec,
    primitive_element,
    random_element,
    spec_for_q,
    sqrt,
)
from .order import (
    Congruence,
    HasseInterval,
    bsgs_annihilator,
    crt_merge,
    exact_order,
    hasse_interval,
    multiples_in_interval,
    trace_candidates,
    unique_trace_candidate,
)

__version__ = "0.1.0"
