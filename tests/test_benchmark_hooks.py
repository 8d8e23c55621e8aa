"""The benchmark uses program names that tier-1 does not otherwise run.

perfbench/spans.py lists the lookup sites it wraps in WRAP_POINTS; a
traced run fails at start-up if any of them is missing, so each must
resolve, and a span reads 0 unless its module calls the name, so each
is checked for a call as well.  The other perfbench scripts import names from the program and
call them, and perfbench/stages.py is not run by the test suite, so those
imports, and the arguments of those calls, are checked here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_wrap_points_resolve():
    spans = _spans()
    assert spans.WRAP_POINTS
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAP_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


#: Wrap points whose module binds the name but never calls it, so their
#: span reads 0 on every workload.  The set shrinks as each goes.
UNCALLED_WRAP_POINTS = {
    ("permeameter.synth", "sample_energy_quadrature"),
    ("permeameter.synth", "geometry_factor_derived"),
    ("permeameter.synth", "forward_load"),
}


def test_wrap_points_are_called_where_they_are_wrapped():
    # a span wraps the name in its module, so only a call by that name,
    # inside that module, passes through it; a refactor that stops making
    # that call must not leave the span silently reading 0
    uncalled = set()
    for module, attr, _ in _spans().WRAP_POINTS:
        tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text())
        if not any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == attr
            for node in ast.walk(tree)
        ):
            uncalled.add((module, attr))
    assert uncalled == UNCALLED_WRAP_POINTS


def _program_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every `from permeameter... import name` in a file,
    and every attribute read off a module bound by `import permeameter... as x`."""
    tree = ast.parse(path.read_text())
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("permeameter"):
            names |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {
                alias.asname: alias.name
                for alias in node.names
                if alias.asname and alias.name.startswith("permeameter")
            }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add((aliases[node.value.id], node.attr))
    return names


def test_benchmark_imports_resolve():
    names = set().union(*(_program_names(path) for path in PERFBENCH.glob("*.py")))
    assert {("permeameter.cli", "extract_report"), ("permeameter.cli", "main")} <= names
    missing = sorted(
        (module, name)
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def _program_calls(path: Path):
    """(file:line, callee, call node) for every call in a file whose callee is
    a name imported from permeameter, or an attribute (chain) of one or of an
    imported permeameter module."""
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("permeameter"):
            module = importlib.import_module(node.module)
            roots |= {alias.asname or alias.name: getattr(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("permeameter"):
                    importlib.import_module(alias.name)
                    # `import permeameter.cli` binds the name `permeameter`
                    local = alias.asname or alias.name.split(".")[0]
                    roots[local] = importlib.import_module(alias.name if alias.asname else local)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in roots:
            callee = roots[func.id]
            for attr in chain:
                callee = getattr(callee, attr)
            yield f"{path.name}:{node.lineno}", callee, node


def test_benchmark_calls_bind():
    calls = [call for path in sorted(PERFBENCH.glob("*.py")) for call in _program_calls(path)]
    callees = {callee.__name__ for _, callee, _ in calls}
    assert {"SynthConfig", "forward_load", "extract_report", "load_config", "main"} <= callees
    unbound = []
    for where, callee, node in calls:
        keywords = [keyword.arg for keyword in node.keywords]
        if None in keywords or any(isinstance(arg, ast.Starred) for arg in node.args):
            unbound.append(f"{where}: *args or **kwargs cannot be checked")
            continue
        try:
            inspect.signature(callee).bind(*[None] * len(node.args), **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {callee.__qualname__}: {exc}")
    assert unbound == []
