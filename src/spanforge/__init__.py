"""Spans, internal categories, convolution monoids, and reversible extensions
over finite sets, all verified by exhaustive enumeration."""

from .errors import (
    AxiomFails,
    BaseMismatch,
    CodomainMismatch,
    ConditionFails,
    DomainMismatch,
    KeyScheduleMismatch,
    MalformedTables,
    NotAGroup,
    NotInternalFunctor,
    NotLex,
    ParseError,
    SizeLimitExceeded,
    SpanforgeError,
    SquareDoesNotCommute,
)
from .finset import (
    FinMap,
    FinSet,
    PullbackResult,
    all_maps,
    compose,
    identity,
    invert,
    is_bijection,
    mediating,
    product,
    pullback,
)
from .span import (
    SliceObject,
    Span,
    TensorResult,
    TwoCell,
    compose_cells,
    diagonal,
    identity_cell,
    pair_cells,
    reassociate,
    tensor,
    tensor_cells,
)
from .internal import (
    InternalCategory,
    InternalFunctor,
    InternalGroupoid,
    LexFunctorData,
    apply_lex_functor,
    check_internal_category,
    check_internal_groupoid,
    external_category,
    hom_functor_data,
    identity_functor_data,
    identity_internal_functor,
)
from .catalog import CATALOG, GROUPS, MONOIDS, MonoidTable
from .feistel import (
    ConvElement,
    KleisliEndo,
    conv_element,
    conv_fibre,
    conv_mult,
    conv_unit,
    coreflect,
    extend,
    feistel_network,
    is_simply_presented,
    kleisli_compose,
    kleisli_endo,
    kleisli_fibre,
    kleisli_inverse,
    kleisli_unit,
    module_endomorphism,
    retrieve,
    toffoli_extend,
    verify_adjunction,
)
from .fib import (
    CartesianIso,
    FibrationInstance,
    SubSlice,
    TransportResult,
    build_conv_fibration,
    build_endo_fibration,
    cartesian_iso,
    check_discrete_fibration,
    compose_intcat_morphisms,
    default_subslice,
    full_subslice,
    transport_conv,
    transported_subslice,
)
from .report import Failure, Report

__all__ = [name for name in dir() if not name.startswith("_")]
