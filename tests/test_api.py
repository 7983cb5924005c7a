"""The public API of the package and its module layering, pinned so that
they only change on purpose."""
import ast
import dataclasses
import pathlib
import subprocess
import sys
import types

import pytest

import mechfront
from mechfront import analysis
from mechfront.instances import gen_uniform, save_instance

PACKAGE_DIR = pathlib.Path(mechfront.__file__).parent
TESTS_DIR = pathlib.Path(__file__).parent

PUBLIC_NAMES = [
    "AnonymityResult", "BudgetExceededError", "CombiPremiseError", "DEFAULT_BIG",
    "EligibilityMask", "EnumerationResult", "EquilibriumCertificate", "FrontierPoint",
    "GeneratorSpec", "Grid", "InefficiencyReport", "Instance", "MechanismId",
    "MonotonicityResult", "SingleTaskRule", "VerifyResult",
    "achievable_winners", "anonymity_check", "canonical_certificate", "check_combi",
    "check_tech1", "combi_row_best", "default_grid", "enumerate_equilibria",
    "frontier_sweep", "gen_canonical", "gen_circulant", "gen_fp_pos",
    "gen_hat", "gen_random", "gen_tradeoff", "gen_uniform",
    "inefficiency", "load_instance", "loads", "makespan",
    "monotonicity_check", "opt_makespan", "opt_makespan_masked", "probe_matrix",
    "regression_suite", "rule_for", "save_instance", "thm3_hat_image",
    "verify_equilibrium",
]


def test_public_names():
    names = sorted(n for n in dir(mechfront) if not n.startswith("_")
                   and not isinstance(getattr(mechfront, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_record_fields():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(mechfront.MechanismId) == ["kind", "alpha"]
    assert fields(mechfront.EquilibriumCertificate) == ["profile", "winner"]
    assert fields(mechfront.EnumerationResult) == ["counts", "scanned"]
    assert fields(analysis.SuiteReport) == ["passed", "lines"]


def package_imports(tree) -> set:
    """Package modules a module imports, by name ("model" for `from .model
    import ...` or `from mechfront.model import ...`)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                out.update([node.module] if node.module else
                           [alias.name for alias in node.names])
            elif node.module and node.module.split(".")[0] == "mechfront":
                out.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[2] for alias in node.names
                       if alias.name.split(".")[0] == "mechfront")
    return out


def test_module_layering():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    assert {"model", "rules", "optsolver", "cli"} <= set(trees)
    assert package_imports(trees["model"]) == set()
    assert package_imports(trees["rules"]) == {"model"}
    assert package_imports(trees["optsolver"]) == {"model"}
    # every package import sits at module level: no function-local cycles
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = package_imports(func)
                assert not local, f"{name}.{func.name} imports {sorted(local)} locally"


def test_only_model_reads_the_mechanism_kind():
    # every other layer reads the derived `reserve` and `min_machines`
    readers = sorted(path.name for path in PACKAGE_DIR.glob("*.py") if path.name != "model.py"
                     and any(isinstance(node, ast.Attribute) and node.attr == "kind"
                             for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == []


def unused_imports(tree) -> list:
    """Names bound by module-level imports that the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_no_unused_imports():
    # the package's __init__ imports only to re-export: test_public_names pins it
    paths = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    paths += TESTS_DIR.glob("*.py")
    unused = {p.name: unused_imports(ast.parse(p.read_text())) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def module_level_imports(tree) -> set:
    """Top-level names of every module a module imports outside its
    functions, i.e. while it is being imported."""
    local = {id(node) for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in local:
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
    return out


def test_no_module_imports_numpy_at_module_level():
    # numpy is loaded by the functions that draw seeded streams or scan arrays
    loaders = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if "numpy" in module_level_imports(ast.parse(path.read_text())))
    assert loaders == []


NUMPY_FREE_CALLS = {
    "import": "import mechfront",
    "opt": "from mechfront import cli; assert cli.run(['opt', '-i', sys.argv[1]]) == 0",
    "analyze": "from mechfront import cli; "
               "assert cli.run(['analyze', '--mech', 'spa:2', '-i', sys.argv[1]]) == 0",
}


@pytest.mark.parametrize("call", sorted(NUMPY_FREE_CALLS))
def test_fresh_interpreter_leaves_numpy_unloaded(tmp_path, call):
    path = tmp_path / "u.txt"
    save_instance(gen_uniform(3), str(path))
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR.parent)!r}); "
            f"{NUMPY_FREE_CALLS[call]}; print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
