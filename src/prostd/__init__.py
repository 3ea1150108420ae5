"""Formal group laws and standard groups over truncated pro-p rings.

The pieces, bottom up: `rings` (truncated coefficient arithmetic and
coefficient maps, specialisation included), `series` (sparse truncated
multivariate series), `fgl` (formal group laws, axioms, inverses,
catalogue), `stdgrp` (groups on ideal-power coordinates and their finite
quotients), `words` (free-group words, their evaluation and symbolic
series), `atlas` (finite transversal extensions with conjugation and
correction charts), `specialise` (grids, exact lifts, grid tests, the power
probe and transport coherence), `cli` (command-line frontend).
"""

from .errors import (
    EnumerationBoundError,
    ExactnessError,
    ExtensionDataError,
    LawError,
    MaximalIdealError,
    RingMismatchError,
    ShapeError,
    SubstitutionError,
    WordSyntaxError,
)
from .rings import (
    Coefficient,
    CoefficientMap,
    IdentityMap,
    PrecisionReduction,
    RingSpec,
    eqchar,
    nested,
    padic,
    parse_coefficient,
    representatives,
    residue_map,
)
from .series import Series, SeriesTuple, compose, constancy, substitute
from .fgl import FormalGroupLaw, builtin, formal_inverse, law_from_json, make_law, verify
from .stdgrp import QuotientGroup, StandardGroup
from .words import (
    WordExpr,
    marginal_subgroup,
    parse_word,
    verbal_subgroup,
    word_image,
    word_series,
)
from .atlas import (
    CosetTable,
    TransversalData,
    check_marginality,
    coset_table,
    coset_word_series,
    cyclic_table,
    direct_product,
    extension_from_json,
    extension_to_json,
    inversion_extension,
    split_extension,
    validate_transversal,
)
from .specialise import (
    ExactPoly,
    Specialisation,
    classify_constant,
    concision_probe,
    exact_lift,
    exact_value,
    ideal_grid,
    kernel_grid_test,
    specialise_constants,
    transport_coherence,
)
from .rings import specialise  # after the submodule import, which binds the name to the module

__version__ = "0.1.0"

__all__ = [
    "Coefficient",
    "CoefficientMap",
    "CosetTable",
    "EnumerationBoundError",
    "ExactPoly",
    "ExactnessError",
    "ExtensionDataError",
    "FormalGroupLaw",
    "IdentityMap",
    "LawError",
    "MaximalIdealError",
    "PrecisionReduction",
    "QuotientGroup",
    "RingMismatchError",
    "RingSpec",
    "Series",
    "SeriesTuple",
    "ShapeError",
    "Specialisation",
    "StandardGroup",
    "SubstitutionError",
    "TransversalData",
    "WordExpr",
    "WordSyntaxError",
    "builtin",
    "check_marginality",
    "classify_constant",
    "compose",
    "concision_probe",
    "constancy",
    "coset_table",
    "coset_word_series",
    "cyclic_table",
    "direct_product",
    "eqchar",
    "exact_lift",
    "exact_value",
    "extension_from_json",
    "extension_to_json",
    "formal_inverse",
    "ideal_grid",
    "inversion_extension",
    "kernel_grid_test",
    "law_from_json",
    "make_law",
    "marginal_subgroup",
    "nested",
    "padic",
    "parse_coefficient",
    "parse_word",
    "representatives",
    "residue_map",
    "specialise",
    "specialise_constants",
    "split_extension",
    "substitute",
    "transport_coherence",
    "validate_transversal",
    "verbal_subgroup",
    "verify",
    "word_image",
    "word_series",
]
