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

README = TESTS_DIR.parent / "README.md"
PUBLIC_NAMES = ["analysis", "equilibria", "instances", "model", "optsolver", "rules"]


def test_public_names():
    """`import mechfront` binds its six library modules and no other public
    name, in a fresh interpreter, where no other test has imported `cli`."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR.parent)!r}); import mechfront; "
            f"print(*sorted(n for n in dir(mechfront) if not n.startswith('_')))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
    assert all(isinstance(getattr(mechfront, n), types.ModuleType) for n in PUBLIC_NAMES)


def test_record_fields():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(mechfront.model.MechanismId) == ["kind", "alpha"]
    assert fields(mechfront.equilibria.EquilibriumCertificate) == ["profile", "winner"]
    assert fields(mechfront.equilibria.EnumerationResult) == ["counts", "scanned"]
    assert fields(analysis.SuiteReport) == ["passed", "lines"]


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    """The README's library example runs as written, through the module
    paths it shows, which are the only paths to those names."""
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "two.txt").is_file()
    assert capsys.readouterr().out.startswith("(0.5, (1, 0))\n")


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
    # every other layer reads the derived `reserve`
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
    # the package's __init__ imports only to bind its modules: test_public_names pins them
    paths = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    paths += TESTS_DIR.glob("*.py")
    unused = {p.name: unused_imports(ast.parse(p.read_text())) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


# the array kernels, then the seeded draws, each turning its draw into Python numbers
NUMPY_SITES = {
    "rules.py": {"SingleTaskRule.batch", "SingleTaskRule.outcome"},
    "equilibria.py": {"enumerate_equilibria"},
    "instances.py": {"gen_random"},
    "analysis.py": {"monotonicity_check", "bucket_equivalence_check", "tech1_fuzz",
                    "combi_fuzz"},
}


def numpy_importers(node, scope: str = "") -> set:
    """Qualified names of the functions under `node` that import numpy,
    with "" for an import outside every function and class."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out |= numpy_importers(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            modules = [child.module]
        else:
            modules = []
        if any(name.partition(".")[0] == "numpy" for name in modules):
            out.add(scope)
        out |= numpy_importers(child, scope)
    return out


def test_numpy_is_imported_only_by_the_array_kernels_and_the_draws():
    found = {path.name: numpy_importers(ast.parse(path.read_text()))
             for path in PACKAGE_DIR.glob("*.py")}
    assert {name: sites for name, sites in found.items() if sites} == NUMPY_SITES


NUMPY_FREE_CALLS = {
    "import": "import mechfront",
    "opt": "from mechfront import cli; assert cli.run(['opt', '-i', sys.argv[1]]) == 0",
    "analyze": "from mechfront import cli; "
               "assert cli.run(['analyze', '--mech', 'spa:2', '-i', sys.argv[1]]) == 0",
    "frontier": "from mechfront import cli; "
                "assert cli.run(['frontier', '-n', '3', '--alphas', '1,2']) == 0",
    "verify_equilibrium": "from mechfront import equilibria, instances, model, rules; "
                          "inst = instances.load_instance(sys.argv[1]); "
                          "mech = model.MechanismId.spa(2.0); "
                          "grid = equilibria.default_grid(inst, mech); "
                          "assert equilibria.verify_equilibrium(rules.rule_for(mech, 3), "
                          "inst.column(0), (1.0, 1.1, 1.1), grid)",
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
