"""Package structure: the modules import one another in one direction only.

mesh and model sit at the bottom, then diagnostics, then solver, then cli.
A cycle, or an import hidden inside a function to dodge one, fails here, and
so does a README "Python API" list that names other than the exported names,
or a README count of the CoupledMesh, FaceSet, StepConfig, DiffusionLaw,
NewtonLU or DiagnosticsRecord fields that does not name them exactly, or a
module-level constant or table that nothing in the package reads, or a
module other than cli that writes the CLI's "bad value for" text, or a
diagnostics that restates model's clamp, the inverse of its pressure or its
positive quadrant, or a set-up (mesh, cli) that catches an OverflowError or
opens a with np.errstate block instead of computing under one decorator.
README's Python API example runs as written and must conserve mass and keep
its envelope entropy at 0, and its example configuration runs through the
CLI, so a key it sets must exist.
The smoke test runs one tiny traced benchmark sample of every workload, whose
tracer wraps the package's layer entry points by name and fails when one is
gone or unused.  The repo's pytest config, which turns warnings into errors,
must still report a failing Hypothesis test as one failure.
"""

import ast
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import bulksurf
from bulksurf.cli import KEYS, main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bulksurf"


def _module_name(path: Path) -> str:
    return "bulksurf" if path.stem == "__init__" else f"bulksurf.{path.stem}"


def _modules() -> dict[str, ast.Module]:
    return {_module_name(p): ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imported(node: ast.AST, module: str, known) -> set[str]:
    """Modules among known that an import statement inside module names."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names} & known
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        base = node.module
    else:
        package = module if module == "bulksurf" else module.rsplit(".", 1)[0]
        base = ".".join([package] + ([node.module] if node.module else []))
    # "from . import diagnostics" names a submodule, "from .mesh import x" a module
    submodules = {f"{base}.{alias.name}" for alias in node.names} & known
    return submodules or ({base} & known)


def test_import_graph_is_acyclic_and_module_level():
    modules = _modules()
    graph = {name: set() for name in modules}
    nested = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            graph[name] |= _imported(node, name, modules.keys()) - {name}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{name}.{node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert not nested, f"imports inside functions: {nested}"

    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in graph:
        visit(name)
    assert not graph["bulksurf.mesh"] and not graph["bulksurf.model"]
    assert "bulksurf.solver" not in graph["bulksurf.diagnostics"]
    assert "bulksurf.diagnostics" in graph["bulksurf.solver"]


def test_every_module_level_name_is_read_in_the_package():
    # a constant or table that a rewrite left without a reader fails here;
    # dunders such as __all__ and __version__ are read by Python and by users
    assigned, read = set(), set()
    for tree in _modules().values():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = {name for name in assigned - read if not (name.startswith("__") and name.endswith("__"))}
    assert not orphans, f"module-level names nothing in the package reads: {sorted(orphans)}"


def test_only_the_cli_writes_its_error_format():
    # the core raises ValueError in its own words; cli keys each check by the config key it reads
    writers = [p.name for p in sorted(PACKAGE.glob("*.py")) if "bad value for" in p.read_text()]
    assert writers == ["cli.py"]


def _positive_test(node) -> bool:
    return (isinstance(node, ast.Compare) and [type(op) for op in node.ops] == [ast.Gt]
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 0)


def test_diagnostics_takes_the_clamp_the_envelope_values_and_the_quadrant_from_model():
    # model states which entries the clamp moves (_clip on the caps), the
    # concentration of a pressure (_concentration) and the positive quadrant
    # (_positive_quadrant); the code of diagnostics, docstrings aside, restates none
    restated = []
    for node in ast.walk(_modules()["bulksurf.diagnostics"]):
        if isinstance(node, ast.Attribute) and node.attr in ("u_caps", "v_caps"):
            restated.append(f"line {node.lineno}: reads {node.attr}")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
              and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1):
            restated.append(f"line {node.lineno}: raises to a power 1 / ...")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            if _positive_test(node.left) and _positive_test(node.right):
                restated.append(f"line {node.lineno}: tests two fields > 0")
        elif isinstance(node, ast.BoolOp) and sum(map(_positive_test, node.values)) >= 2:
            restated.append(f"line {node.lineno}: tests two fields > 0")
    assert not restated, restated


def _catches_overflow(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(c, ast.Name) and c.id == "OverflowError" for c in caught)


def _is_errstate(expr) -> bool:
    return isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) and expr.func.attr == "errstate"


def test_set_up_has_one_overflow_policy():
    # build_mesh and build_problem compute under one np.errstate decorator each,
    # and the check that reads a value rejects it; only solve_equilibrium's
    # Python floats catch an OverflowError, where float64 would make 0 * inf = nan
    modules = _modules()
    allowed = set()
    for node in ast.walk(modules["bulksurf.model"]):
        if isinstance(node, ast.FunctionDef) and node.name == "solve_equilibrium":
            allowed |= {id(n) for n in ast.walk(node)}
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type and _catches_overflow(node):
                if id(node) not in allowed:
                    found.append(f"{name} line {node.lineno}: except OverflowError")
            elif isinstance(node, ast.With) and name in ("bulksurf.cli", "bulksurf.mesh"):
                if any(_is_errstate(item.context_expr) for item in node.items):
                    found.append(f"{name} line {node.lineno}: with np.errstate")
    assert not found, found


def test_traced_benchmark_sample_enters_every_layer():
    # every workload: the blobs enter the solver through run, cli-loop through cli.main
    env = dict(os.environ, PYTHONPATH="src")
    for workload in ("blob-32", "blob-256", "cli-loop"):
        proc = subprocess.run(
            [sys.executable, "perfbench/worker.py",
             "--workload", workload, "--size", "tiny", "--trace", "1"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{workload}: {proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["failures"] == [], workload


def test_readme_lists_exactly_the_exported_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    # the bullet list that follows the sentence naming bs.__all__
    _, found, rest = section.partition("`bs.__all__`:\n\n")
    assert found, "README Python API lists no `bs.__all__`"
    listing = rest.split("\n\n", 1)[0]
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(bulksurf.__all__)


def _check_readme_fields(cls):
    """The README sentence "A `cls` has N fields: ..." names exactly the dataclass's fields."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    found = re.search(rf"A `{cls.__name__}` has (\d+) fields: (.*?)\.\s", section, re.S)
    assert found, f"README Python API names no `{cls.__name__}` field count"
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", found[2])
    assert len(listed) == len(set(listed)), "a field is listed twice"
    fields = [f.name for f in dataclasses.fields(cls)]
    assert set(listed) == set(fields)
    assert int(found[1]) == len(fields)


def test_readme_lists_exactly_the_mesh_fields():
    _check_readme_fields(bulksurf.CoupledMesh)


def test_readme_lists_exactly_the_face_set_fields():
    _check_readme_fields(bulksurf.FaceSet)


def test_readme_lists_exactly_the_step_config_fields():
    _check_readme_fields(bulksurf.StepConfig)


def test_readme_lists_exactly_the_diffusion_law_fields():
    _check_readme_fields(bulksurf.DiffusionLaw)


def test_readme_lists_exactly_the_newton_lu_fields():
    _check_readme_fields(bulksurf.NewtonLU)


def test_readme_lists_exactly_the_diagnostics_record_fields():
    _check_readme_fields(bulksurf.DiagnosticsRecord)


def test_readme_python_api_example_runs_and_conserves_mass(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", section, re.S)
    assert example, "README Python API has no python example"
    namespace = {}
    exec(compile(example[1], "README.md", "exec"), namespace)
    records = namespace["records"]
    assert len(records) > 1
    assert capsys.readouterr().out.split() == [repr(x) for x in (
        records[-1].mass, records[-1].entropy, records[-1].envelope_entropy)]
    for rec in records:
        assert abs(rec.mass - records[0].mass) <= 1e-13 * records[0].mass
        assert rec.envelope_entropy == 0.0


def test_readme_cli_example_config_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```\n(# two bumps relaxing toward equilibrium\n.*?)```", readme, re.S)
    assert example, "README has no example configuration"
    config = tmp_path / "run.cfg"
    config.write_text(example[1])
    out = tmp_path / "out"
    args = ["--config", str(config), "--out", str(out), "--override", "t_final=0.004", "--quiet"]
    assert main(args) == 0
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "final_state.csv", "summary.json"]
    # the restart example of Output files, run in the directory of run.cfg: the second run reads the first's state
    section = readme.split("\n### Output files\n", 1)[1].split("\n## ", 1)[0]
    restart = re.search(r"```\n(\s*bulksurf .*?)```", section, re.S)
    assert restart, "README Output files has no restart example"
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in restart[1].splitlines() if line.strip()]
    assert [c[0] for c in commands] == ["bulksurf", "bulksurf"] and "initial=file" in commands[1]
    for command in commands:
        assert main(command[1:] + ["--override", "t_final=0.004", "--quiet"]) == 0


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Configuration keys\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = [name for row in rows for name in re.findall(r"`([^`]*)`", row.split("|")[1])]
    assert len(listed) == len(set(listed)), "a key is listed twice"
    assert set(listed) == set(KEYS)


_FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    # Hypothesis's failure report raises a third-party DeprecationWarning in a
    # pytest hook; under "error" alone that aborts the session with exit 3
    (tmp_path / "test_pair.py").write_text(_FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
