"""Exact computations with blueprints and finite blue schemes over F1.

The package models blueprints presented by monomial generators and
formal-sum relations, enumerates their prime spectra as finite posets,
computes rank spaces with their unit-field lattices, descends
comultiplications to Weyl monoids, counts Tits points over F1 and F1^2,
evaluates matrix models over semirings, and cross-checks projective models
against a zero-pattern sampling oracle.
"""

from .blueprint import (
    BlueprintPresentation,
    CharacteristicClass,
    ClosureResult,
    FormalSum,
    Monomial,
    NormalFormBlueField,
    Relation,
    UnsupportedInput,
    analyze_normal_form,
    inverse_closure,
    localize,
    make_presentation,
    mk_free,
    potential_characteristics,
    quotient_by_vars,
    relation,
    relation_entailed,
    simplify_presentation,
    smith_normal_form,
    tensor,
)
from .spectrum import (
    GeneratorCapExceeded,
    PrimePoint,
    SpectrumPoset,
    brute_force_primes,
    enumerate_primes,
    export_dot,
    is_prime,
    poset,
    spectrum_to_json,
)
from .weyl import (
    Comultiplication,
    LawDoesNotDescend,
    PseudoHopfReport,
    RankSpacePoint,
    RankSpaceUndecidable,
    TitsPoints,
    WeylMonoid,
    comultiplication,
    field_hom_count,
    induced_weyl_law,
    product_check,
    pseudo_hopf_points,
    rank_space,
    tits_points,
)

__version__ = "0.1.0"
