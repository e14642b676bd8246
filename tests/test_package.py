"""The package namespace: every exported name, eager or loaded on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import egeo

# Every name `from egeo import *` bound before the lazily loaded submodules.
EXPORTED = """
BadNerve BadWord Bipartition CechCover Cocycle2 EgeoError IncidenceLift
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


def _imports(tree):
    """(module and imported names, enclosing function or None) of each import statement."""
    where = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                where[node] = func.name  # walk order: an inner function overrides its outer one
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split(".")) | {alias.name for alias in node.names}
        else:
            continue
        yield names, where.get(node)


# Run in a fresh interpreter with argv [state file, library module...]: import every
# library module, then call each subcommand but repro once.
NO_ORACLES_CODE = """
import contextlib, io, json, sys
import egeo, egeo.cli
state, *modules = sys.argv[1:]
for name in modules:
    __import__("egeo." + name)
with open(state, "w") as fh:
    json.dump({"dims": [2, 2, 2], "coeffs": [1, 0, 0, 0, 0, 0, 0, 1]}, fh)
for argv in (
    ["schmidt", "--state", state, "--cut", "0"],
    ["separability", "--state", state],
    ["invariants", "--da", "2", "--db", "2"],
    ["rank222", "--state", state],
    ["holonomy", "--p", "2", "--loop", "uv"],
    ["spinchain"],
    ["cech", "--p", "2"],
    ["split", "--degrees", "0,1,2,3", "--shape", "2x2"],
    ["satake", "--eigs", "2,0;0.5,0;3,0;0.3333333333333333,0", "--d", "2,2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert egeo.cli.run(argv) in (0, 1), argv
print(sorted(m for m in ("egeo.oracles", "egeo.repro") if m in sys.modules))
"""


def test_only_the_repro_subcommand_loads_the_battery_and_its_oracles(tmp_path):
    src = Path(egeo.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py"))
    found = set()
    for name in modules:
        for names, function in _imports(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if "oracles" in names:
                assert name == "repro", f"{name}.py imports the oracles"
                found.add((name, "oracles"))
            if "repro" in names:
                assert (name, function) == ("cli", "cmd_repro"), f"{name}.py imports repro in {function}"
                found.add((name, "repro"))
    assert found == {("repro", "oracles"), ("cli", "repro")}
    library = [m for m in modules if m not in ("__init__", "oracles", "repro")]
    argv = [sys.executable, "-c", NO_ORACLES_CODE, str(tmp_path / "ghz.json"), *library]
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
