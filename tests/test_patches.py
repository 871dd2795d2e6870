"""Every monkeypatch of an ntangle module reaches the code it means to change.

A patch sets a name in one module's globals. Where that module only
re-exports a name it imports, and none of its own code reads it, the code
that does read it sees another module's global: the patch changes nothing,
and its test passes without testing anything. So a test may patch a module
only on a name the module binds itself or its own code reads: ``cli.read_qsv``
and ``qsv.float`` reach the code, ``state._scan_qsv`` would not.
"""

import ast
from pathlib import Path

import ntangle

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(ntangle.__file__).resolve().parent
MODULES = {"ntangle"} | {f"ntangle.{path.stem}" for path in PACKAGE.glob("*.py")}


def _bound(body) -> set:
    """The names a module's top-level statements bind themselves: defs, classes and assignments."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        else:  # an if, try or with at top level binds in the module too
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= _bound(getattr(node, field, []))
    return names


def _patchable(module: str) -> set:
    """The names a patch of the module reaches: those it binds, and those its code reads."""
    path = PACKAGE / ("__init__.py" if module == "ntangle" else module.split(".")[1] + ".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return _bound(tree.body) | read


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _patches(source: str) -> list:
    """(line, module, name) of every setattr on an ntangle module in a test file's source."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name: alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            aliases |= {alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2
                and _dotted(node.func) is not None and _dotted(node.func).split(".")[-1] == "setattr"):
            continue
        target, name = _dotted(node.args[0]), node.args[1]
        if target is None or not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            continue
        head, _, rest = target.partition(".")
        module = ".".join(filter(None, [aliases.get(head, head), rest]))
        if module in MODULES:
            found.append((node.lineno, module, name.value))
    return found


def test_every_patch_of_a_module_sets_a_name_it_binds_or_reads():
    patches = {path.name: _patches(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("test_*.py"))}
    stray = [f"{file}:{line}: {module}.{name}" for file, found in patches.items()
             for line, module, name in found if name not in _patchable(module)]
    assert not stray, "patches of a name the module neither binds nor reads:\n" + "\n".join(stray)
    # the scan does see the patches: the qsv internals, the worker count and the capacity
    seen = {(module, name) for found in patches.values() for _, module, name in found}
    assert {("ntangle.qsv", "_QSV_RANGE_MIN"), ("ntangle.qsv", "_scan_qsv"), ("ntangle.qsv", "float"),
            ("ntangle.state", "_WORKERS"), ("ntangle.state", "DEFAULT_MAX_QUBITS")} <= seen


def test_the_scan_refuses_a_patch_on_a_name_the_module_only_re_exports():
    source = ("from ntangle import state as state_module\n"
              "import ntangle.qsv\n"
              "def test(monkeypatch):\n"
              "    monkeypatch.setattr(state_module, '_scan_qsv', None)\n"
              "    monkeypatch.setattr(state_module, 'write_qsv', None)\n"
              "    monkeypatch.setattr(state_module, 'read_qsv', None)\n"
              "    monkeypatch.setattr(ntangle.qsv, '_scan_qsv', None)\n")
    found = _patches(source)
    assert found == [(4, "ntangle.state", "_scan_qsv"), (5, "ntangle.state", "write_qsv"),
                     (6, "ntangle.state", "read_qsv"), (7, "ntangle.qsv", "_scan_qsv")]
    # state reads read_qsv (its file: factors) and neither of the others
    assert [name for _, module, name in found if name not in _patchable(module)] == ["_scan_qsv", "write_qsv"]
