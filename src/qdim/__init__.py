"""Quantization dimensions of self-similar measures.

A toolkit for weighted iterated function systems of similitudes: exact
spectral dimension solvers, separation certificates and separated
sub-system search, discrete-measure transport/variation metrics, and an
empirical chaos-game + Lloyd pipeline for estimating quantization
dimensions from samples.
"""

from .dimension import (
    DimensionResult,
    KappaCurve,
    d0_dimension,
    kappa_curve,
    solve_kappa,
)
from .errors import (
    DegenerateFit,
    DimensionError,
    EmptySelection,
    InvalidInvariantSet,
    InvalidWord,
    NotNormalized,
    NotStrictSubset,
    QdimError,
    UseD0Path,
)
from .geometry import Box
from .ifs import (
    WIFS,
    Similitude,
    SubWIFS,
    Word,
    attractor_hull,
    build_sub_wifs,
    hutchinson_push,
    similitude_1d,
    wifs_from_json_obj,
    wifs_to_json_obj,
)
from .measures import (
    DiscreteMeasure,
    box_mass,
    convolve,
    dl,
    measure_from_csv,
    measure_from_json_obj,
    measure_to_csv,
    measure_to_json_obj,
    mix,
    translate,
    tv,
)
from .quantize import (
    Codebook,
    DimensionFit,
    SampleSet,
    chaos_game,
    estimate_vnr,
    fit_dimension,
    fit_dimension_from_samples,
    optimize_codebook,
)
from .separation import (
    Condition,
    SeparationReport,
    Status,
    check_osc_sufficient,
    check_ssc,
    search_separated_sub_ifs,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Codebook",
    "Condition",
    "DegenerateFit",
    "DimensionError",
    "DimensionFit",
    "DimensionResult",
    "DiscreteMeasure",
    "EmptySelection",
    "InvalidInvariantSet",
    "InvalidWord",
    "KappaCurve",
    "NotNormalized",
    "NotStrictSubset",
    "QdimError",
    "SampleSet",
    "SeparationReport",
    "Similitude",
    "Status",
    "SubWIFS",
    "UseD0Path",
    "WIFS",
    "Word",
    "attractor_hull",
    "box_mass",
    "build_sub_wifs",
    "chaos_game",
    "check_osc_sufficient",
    "check_ssc",
    "convolve",
    "d0_dimension",
    "dl",
    "estimate_vnr",
    "fit_dimension",
    "fit_dimension_from_samples",
    "hutchinson_push",
    "kappa_curve",
    "measure_from_csv",
    "measure_from_json_obj",
    "measure_to_csv",
    "measure_to_json_obj",
    "mix",
    "optimize_codebook",
    "search_separated_sub_ifs",
    "similitude_1d",
    "solve_kappa",
    "translate",
    "tv",
    "wifs_from_json_obj",
    "wifs_to_json_obj",
]
