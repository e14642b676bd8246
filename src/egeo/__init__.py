"""Entanglement geometry of finite-dimensional pure states.

Rank-based separability tests, partition-lattice product patterns,
determinantal-variety invariants, Weyl holonomy and Cech obstruction
computations, splitting-type factorization, and Satake-side product
criteria, each backed by an independent brute-force oracle.
"""

from importlib import import_module as _import_module

from .errors import (
    BadNerve,
    BadWord,
    EgeoError,
    NonFinite,
    NotCentral,
    NotCocycle,
    NotPGLCocycle,
    NotRootOfUnity,
    NotSquare,
    OutOfRange,
    ShapeMismatch,
    TooLarge,
    WrongLength,
    WrongShape,
    WrongSize,
    ZeroState,
)
# Every submodule loads on first access to one of its names (PEP 562), so
# `import egeo` loads no numpy and a process pays only for what it uses.
_LAZY = {
    "tensor_core": (
        "Bipartition",
        "IncidenceLift",
        "PureState",
        "SchmidtDecomposition",
        "SectorDecomposition",
        "cofactor_matrix",
        "concurrence",
        "flatten",
        "incidence_lift",
        "make_state",
        "minor_rank",
        "numerical_rank",
        "schmidt_decompose",
        "sector_decompose",
    ),
    "separability": (
        "Partition",
        "SeparabilityReport",
        "bipartitions",
        "finest_product_partition",
        "flattening_lower_bound",
        "is_gme",
        "is_pi_product",
        "meet",
        "rank_2x2x2",
        "refines",
        "separability_report",
        "w_family",
        "w_state",
    ),
    "rank_geometry": (
        "IntegerPartition",
        "VarietyInvariants",
        "determinantal_degree",
        "determinantal_dim",
        "hilbert_function",
        "hilbert_poly_fit",
        "schur_dim",
        "secant_expected_dim",
        "segre_degree",
        "variety_invariants",
    ),
    "gluing_sim": (
        "SpinChainParams",
        "WeylSystem",
        "apply_holonomy",
        "commutator_scalar",
        "glue_ground_state",
        "ground_state",
        "is_local_operator",
        "loop_holonomy",
        "proj_equal",
        "qudit_encode",
        "spin_hamiltonian",
        "to_qudit_pair",
        "weyl_ops",
    ),
    "cech_brauer": (
        "CechCover",
        "Cocycle2",
        "ReductionReport",
        "check_reduction",
        "class_order",
        "is_2cocycle",
        "make_cover",
        "pgl_cocycle_defect",
        "symbol_cover",
        "torsion_bound",
        "validate_nerve",
    ),
    "splitting_p1": ("SplittingType", "SumsetFactorization", "factor_sumset", "parallelogram"),
    "spectral_satake": (
        "LocalSpectra",
        "SpectralClass",
        "d_product_oracle",
        "elem_sym",
        "is_22_product",
        "is_222_product",
        "quartic_f",
        "sphericity_check",
        "tensor_spectrum",
    ),
}
_SUBMODULES = frozenset(_LAZY) | {"modular"}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind all of the submodule's names, as the import statement would have,
    # so that later lookups are plain dictionary hits.
    module = _import_module(f"{__name__}.{_HOME[name]}")
    globals().update((n, getattr(module, n)) for n in _LAZY[_HOME[name]])
    return globals()[name]


# Star-import reads __all__ and goes through __getattr__ for the lazy names.
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME) | _SUBMODULES)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
