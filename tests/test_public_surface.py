"""Every public function and class of drift has a caller on a run path.

The run paths are the package itself, the demos and the benchmark, their
tests excluded. A public module-level def that only tests call is surface
nothing ships with: delete it, or give it a real caller. The allowlist
names the few kept on purpose, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drift"
RUN_PATHS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

ALLOWLIST = {
    "losses.cos_sq": "the scalar reference tests hold cos_sq_rows to",
    "training.read_training_log":
        "reads the training_log.csv run artifact back (ROADMAP item 6)",
    "harness.measure_overhead":
        "the inference-overhead gate of acceptance criterion 9",
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


def unreferenced_public_names():
    """'module.name' of each public module-level def or class of drift that
    no run-path code refers to outside its own definition."""
    refs = Counter()
    own = {}  # "module.name" -> (name, references inside its definition)
    for path in _run_path_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(_references(tree))
        if path.parent != PACKAGE:
            continue
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                inside = Counter(_references(stmt))[stmt.name]
                own[f"{path.stem}.{stmt.name}"] = (stmt.name, inside)
    return sorted(key for key, (name, inside) in own.items()
                  if refs[name] == inside)


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
