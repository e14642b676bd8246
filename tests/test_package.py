"""The package namespace: every exported name, eager or loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import egeo

# Every name `from egeo import *` bound before the lazily loaded submodules.
EXPORTED = """
BadNerve BadWord Bipartition CechCover Cocycle2 EgeoError FlatteningMatrix HolonomyConfig IncidenceLift
IntegerPartition LocalSpectra NotCentral NotCocycle NotPGLCocycle NotRootOfUnity NotSquare OutOfRange Partition
ProjectiveOperator PureState ReductionReport SchmidtDecomposition SectorDecomposition SeparabilityReport
ShapeMismatch SpectralClass SpinChainParams SplittingType SumsetFactorization TooLarge VarietyInvariants
WeylSystem WrongLength WrongShape WrongSize ZeroState apply_holonomy bipartitions cech_brauer check_reduction
class_order cofactor_matrix commutator_scalar concurrence d_product_oracle determinantal_degree
determinantal_dim elem_sym errors factor_sumset finest_product_partition flatten flattening_lower_bound
glue_ground_state gluing_sim ground_state hilbert_function hilbert_poly_fit incidence_lift is_222_product
is_22_product is_2cocycle is_gme is_local_operator is_pi_product loop_holonomy make_cover make_state meet
minor_rank modular numerical_rank parallelogram pgl_cocycle_defect proj_equal quartic_f qudit_encode rank_2x2x2
rank_geometry refines schmidt_decompose schur_dim secant_expected_dim sector_decompose segre_degree separability
separability_report spectral_satake sphericity_check spin_hamiltonian splitting_p1 symbol_cover tensor_core
tensor_spectrum to_qudit_pair torsion_bound validate_nerve variety_invariants w_family w_state weyl_ops
""".split()


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from egeo import *", namespace)
    assert set(EXPORTED) | {"NonFinite"} == set(namespace) - {"__builtins__"}


def test_lazy_names_are_the_submodules_objects():
    from egeo import rank_geometry, splitting_p1

    assert egeo.flattening_lower_bound is rank_geometry.flattening_lower_bound
    assert egeo.factor_sumset is splitting_p1.factor_sumset
    assert set(EXPORTED) <= set(dir(egeo))


def test_import_loads_only_the_scan_modules():
    code = "import sys, egeo; print(sorted(m for m in sys.modules if m.startswith('egeo')))"
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "['egeo', 'egeo.errors', 'egeo.separability', 'egeo.tensor_core']"
