"""Every public function, class and method of drift has a caller on a run path.

The run paths are the package itself, the demos and the benchmark, their
tests excluded. A public module-level def, or a public method of a public
class, that only tests call is surface nothing ships with: delete it, or
give it a real caller. The allowlist names the few kept on purpose, each
with its reason.

The check matches names, and a call site names a method, not its class. So
two public classes may define a public method of the same name only as a
shared protocol listed in SHARED_METHODS, each with its reason; otherwise a
caller of one would hide that the other has none.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drift"
RUN_PATHS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

ALLOWLIST = {
    "training.read_training_log":
        "reads the training_log.csv run artifact back (ROADMAP item 6)",
    "harness.measure_overhead":
        "the inference-overhead gate of acceptance criterion 9",
}

SHARED_METHODS = {
    "to_dict": "the JSON form of each record a run writes",
    "save_json": "writes each record a run writes as a JSON artifact",
}


def _run_path_files():
    for root in RUN_PATHS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield path


def _references(node):
    """Names a syntax tree refers to: bare names, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _public(stmts, kinds):
    return [s for s in stmts
            if isinstance(s, kinds) and not s.name.startswith("_")]


def public_defs():
    """{'module.name' or 'module.Class.method': its def} over drift's public
    module-level defs and classes and the public methods of those classes."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            defs[f"{path.stem}.{stmt.name}"] = stmt
            if isinstance(stmt, ast.ClassDef):
                for method in _public(stmt.body, ast.FunctionDef):
                    defs[f"{path.stem}.{stmt.name}.{method.name}"] = method
    return defs


def unreferenced_public_names():
    """Keys of public_defs() that no run-path code refers to outside their
    own definition."""
    refs = Counter()
    for path in _run_path_files():
        refs.update(_references(ast.parse(path.read_text(), filename=str(path))))
    return sorted(key for key, node in public_defs().items()
                  if refs[node.name] == Counter(_references(node))[node.name])


def shared_method_names():
    """{method name: 'module.Class.method' keys} for each public method name
    that more than one public class defines."""
    by_name = {}
    for key in public_defs():
        if key.count(".") == 2:
            by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
    return {name: keys for name, keys in by_name.items() if len(keys) > 1}


def test_every_public_def_has_a_run_path_caller():
    unused = [key for key in unreferenced_public_names()
              if key not in ALLOWLIST]
    assert not unused, (
        f"public drift names no run path refers to: {unused}; delete them, "
        f"call them from the package, a demo or the benchmark, or allowlist "
        f"them with a reason")


def test_allowlist_names_only_unreferenced_defs():
    # an entry whose name gained a caller, or was deleted, is stale
    assert sorted(ALLOWLIST) == [key for key in unreferenced_public_names()
                                 if key in ALLOWLIST]


def test_public_method_names_are_shared_only_as_listed_protocols():
    shared = shared_method_names()
    unlisted = {name: keys for name, keys in shared.items()
                if name not in SHARED_METHODS}
    assert not unlisted, (
        f"public methods that share a name, whose callers a name check cannot "
        f"tell apart: {unlisted}; rename or delete one, or list the name in "
        f"SHARED_METHODS with a reason")
    # an entry no two classes define any more is stale
    assert sorted(SHARED_METHODS) == sorted(n for n in shared if n in SHARED_METHODS)
