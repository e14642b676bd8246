"""The package namespace: every exported name, eager or loaded on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egeo

# Every name `from egeo import *` bound before the lazily loaded submodules.
EXPORTED = """
BadNerve BadWord Bipartition CechCover Cocycle2 EgeoError IncidenceLift
IntegerPartition LocalSpectra NotCentral NotCocycle NotPGLCocycle NotRootOfUnity NotSquare OutOfRange Partition
PureState ReductionReport SchmidtDecomposition SectorDecomposition SeparabilityReport
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
    from egeo import separability, splitting_p1

    assert egeo.flattening_lower_bound is separability.flattening_lower_bound
    assert egeo.factor_sumset is splitting_p1.factor_sumset
    assert set(EXPORTED) <= set(dir(egeo))


def _loaded(code: str, *argv: str) -> str:
    """The egeo modules, and whether numpy, that code leaves loaded in a fresh interpreter."""
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('egeo')), 'numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env).stdout


def test_import_loads_only_the_errors_module():
    assert _loaded("import sys, egeo").strip() == "['egeo', 'egeo.errors'] False"


# Run one CLI argv in a fresh interpreter with stdout and stderr captured; print its exit code.
RUN_ONE_CODE = """
import contextlib, io, json, sys
import egeo.cli
with open("STATE", "w") as fh:
    json.dump({"dims": [2, 2, 2], "coeffs": [1, 0, 0, 0, 0, 0, 0, 1]}, fh)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = egeo.cli.run(sys.argv[1:])
    except SystemExit as exc:  # --version and usage errors
        code = exc.code
print(code)
"""
# argv -> (egeo modules it loads besides egeo, egeo.errors and egeo.cli; whether it loads numpy).
# Only `repro`, which draws its seeded batteries, may load numpy.random: `import numpy` does not.
LOADED_BY = {
    ("schmidt", "--state", "STATE", "--cut", "0"): ("tensor_core", True),
    ("separability", "--state", "STATE"): ("separability tensor_core", True),
    ("invariants", "--da", "2", "--db", "2"): ("rank_geometry", False),
    ("rank222", "--state", "STATE"): ("separability tensor_core", True),
    ("holonomy", "--p", "2", "--loop", "uv"): ("gluing_sim tensor_core", True),
    ("spinchain",): ("gluing_sim tensor_core", True),
    ("cech", "--p", "2"): ("cech_brauer gluing_sim modular tensor_core", True),
    ("split", "--degrees", "0,1,2,3", "--shape", "2x2"): ("splitting_p1", False),
    ("satake", "--eigs", "2,0;0.5,0;3,0;0.3333333333333333,0", "--d", "2,2"): ("spectral_satake", False),
    ("repro", "--only", "bell-battery"): (
        "cech_brauer gluing_sim modular oracles rank_geometry repro separability spectral_satake splitting_p1 tensor_core",
        True,
    ),
    ("--version",): ("", False),
    ("no-such-command",): ("", False),
}


@pytest.mark.parametrize("argv", list(LOADED_BY), ids=[argv[0] for argv in LOADED_BY])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv):
    state = str(tmp_path / "ghz.json")
    code = RUN_ONE_CODE.replace("STATE", state) + "print('numpy.random' in sys.modules)"
    names, numpy = LOADED_BY[argv]
    modules = sorted(["egeo", "egeo.cli", "egeo.errors"] + [f"egeo.{name}" for name in names.split()])
    exit_code, random, loaded = _loaded(code, *(state if a == "STATE" else a for a in argv)).split("\n", 2)
    assert int(exit_code) in {"--version": (0,), "no-such-command": (2,)}.get(argv[0], (0, 1))
    assert random == str(argv[0] == "repro")
    assert loaded.strip() == f"{modules} {numpy}"


def _enclosing(tree) -> dict:
    """The name of each node's enclosing function; nodes outside every function are absent."""
    where = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                where[node] = func.name  # walk order: an inner function overrides its outer one
    return where


def _imports(tree):
    """(module and imported names, enclosing function or None) of each import statement."""
    where = _enclosing(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split(".")) | {alias.name for alias in node.names}
        else:
            continue
        yield names, where.get(node)


def test_only_the_repro_subcommand_loads_the_battery_and_its_oracles():
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


def test_rank_geometry_is_exact_numerology_that_loads_no_numpy():
    src = Path(egeo.__file__).parent
    for node in ast.walk(ast.parse((src / "rank_geometry.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [f"egeo.{node.module}" if node.level else node.module.split(".")[0]]
        else:
            continue
        assert all(r in sys.stdlib_module_names or r == "egeo.errors" for r in roots), ast.unparse(node)
    importers = set()
    for path in src.glob("*.py"):
        importers |= {(path.stem, f) for names, f in _imports(ast.parse(path.read_text(encoding="utf-8"))) if "rank_geometry" in names}
    assert importers == {("cli", "cmd_invariants"), ("repro", None)}


def test_one_flattening_transpose_in_tensor_core_and_one_in_separability():
    # `flatten` and the rank-1 test's SVD fallback share tensor_core._flattening. flattening_lower_bound
    # lays the cuts it visits out by the same rule, `_cut_axes`, but keeps its own transpose: it writes
    # each cut once through the destination's n-axis view; a `_flattening` copy plus `.T` made the bound
    # 1.13x slower on rank-profile.
    # oracles is exempt: its flattening stays independent of the code it checks.
    src = Path(egeo.__file__).parent
    for module, function in (("tensor_core", "_flattening"), ("separability", "flattening_lower_bound")):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        where = _enclosing(tree)
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
        assert [where.get(node) for node in calls if node.func.attr == "transpose"] == [function], module


def _is_max_modulus(node) -> bool:
    """A call np.abs(x).max(), np.max(np.abs(x)) or np.argmax(np.abs(x)): the largest modulus or its index."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    taken = [node.func.value, *node.args[:1]] if node.func.attr in ("max", "argmax") else []
    return any(isinstance(arg, ast.Call) and ast.unparse(arg.func) in ("np.abs", "abs") for arg in taken)


def test_one_max_modulus_rescale_in_tensor_core():
    # Every scale-free verdict rescales through tensor_core.unit_max_modulus, whose one body is
    # _max_modulus_scale: the overflow-tolerant max-modulus step and the part-by-part division for a
    # subnormal top appear nowhere else.
    src = Path(egeo.__file__).parent
    found = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = _enclosing(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and ast.unparse(node.left).endswith((".real", ".imag")):
                found.add((path.stem, where.get(node), "part-by-part division"))
            guarded = isinstance(node, ast.With) and any(
                ast.unparse(item.context_expr.func) == "np.errstate" and any(k.arg == "over" for k in item.context_expr.keywords)
                for item in node.items
                if isinstance(item.context_expr, ast.Call)
            )
            if guarded and any(_is_max_modulus(inner) for statement in node.body for inner in ast.walk(statement)):
                found.add((path.stem, where.get(node), "overflow-tolerant max modulus"))
    rescale = ("tensor_core", "_max_modulus_scale")
    assert found == {rescale + ("part-by-part division",), rescale + ("overflow-tolerant max modulus",)}


def test_references_that_only_tests_call_live_in_the_tests():
    src = Path(egeo.__file__).parent
    moved = {"pi_product_by_reconstruction", "solve_mod", "coboundary_witness", "rescale_lifts"}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & moved, path.stem


def test_only_make_cover_calls_validate_nerve():
    # every cover make_cover returns is checked; validate_nerve stays public for covers built with CechCover(...)
    src = Path(egeo.__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = _enclosing(tree)
        callers |= {
            (path.stem, where.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "validate_nerve"
        }
    assert callers == {("cech_brauer", "make_cover")}


def test_cech_cover_stores_no_pairs_and_the_smith_form_builds_no_column_transform():
    tree = ast.parse((Path(egeo.__file__).parent / "cech_brauer.py").read_text(encoding="utf-8"))
    (cover,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CechCover"]
    assert "pairs" not in {node.target.id for node in cover.body if isinstance(node, ast.AnnAssign)}
    tree = ast.parse((Path(egeo.__file__).parent / "modular.py").read_text(encoding="utf-8"))
    (snf,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "smith_normal_form"]
    returns = [node.value for node in ast.walk(snf) if isinstance(node, ast.Return)]
    assert returns and all(isinstance(r, ast.Tuple) and [ast.unparse(e) for e in r.elts] == ["a", "u"] for r in returns)
    assert "v" not in {node.id for node in ast.walk(snf) if isinstance(node, ast.Name)}


def test_the_z_mod_m_oracle_runs_no_smith_form():
    # the divisor-loop reference that class_order is checked against, and every test-module function it reaches
    tree = ast.parse((Path(__file__).parent / "test_cech_brauer.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["divisor_loop_order"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert "smith_normal_form" not in names, name
        todo += sorted(names & set(functions))
    assert {"divisor_loop_order", "coboundary_witness", "solve_mod"} <= reached
