"""Exact computation of U-invariants of binary forms and perpetuant bases."""

from .basis import (
    DimensionSeries,
    InvariantElement,
    dim_series,
    kernel_oracle,
    span_equal,
    u_basis,
)
from .binforms import (
    CovariantProfile,
    c_k,
    covariant_order,
    discriminant_decomposable_check,
    verify_s3,
    verify_s4,
)
from .perpetua import (
    ComplementCertificate,
    ThresholdVector,
    decomposable_span,
    degree2_perpetuant,
    perpetuant_basis,
    stroh_series,
    threshold,
    verify_complement,
)
from .polycore import BiDegreeError, ExponentVector, FamilyMismatchError, Poly
from .symfunc import (
    Partition,
    TransitionMatrix,
    bar_reduce,
    e_monomial,
    leading_exponent,
    leading_monomial,
    monomial_sum,
    p_h,
    partitions,
    partitions_at_most,
    q_n,
    q_n_leading_monomial,
    reduced_e_leading_monomial,
    transition_alpha,
    transition_beta,
)
from .umbral import (
    PotenziantExpansion,
    UmbralMonomial,
    UmbralPoly,
    derivation_D,
    is_translation_invariant,
    potenziante,
    translate,
    umbral_E,
)

__all__ = [name for name in dir() if not name.startswith("_")]
