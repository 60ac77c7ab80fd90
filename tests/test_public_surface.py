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

A defaulted parameter of a public def that no run path passes is a knob
nothing turns. Each must be passed by some run-path call of the def's name,
by keyword, by position or through a `*`/`**` splat, or be listed in
UNPASSED_DEFAULTS with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drift"
RUN_PATHS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

ALLOWLIST = {
    "training.read_training_log":
        "reads the training_log.csv run artifact back (ROADMAP item 1: "
        "per-epoch consensus)",
    "harness.measure_overhead":
        "the inference-overhead gate of acceptance criterion 9",
}

SHARED_METHODS = {
    "to_dict": "the JSON form of each record a run writes",
}

UNPASSED_DEFAULTS = {
    "attacks.eot_oracle(sample_ids)":
        "FOUND: harness._craft reaches eot_oracle through adaptive_attack, "
        "which passes no ids, so the desk EoT draws are keyed by row "
        "positions, not by eval sample ids as gradnorm's are; mending it "
        "moves the pgd-eot5 draws and perfbench/golden.json",
    "diagnostics.eot_loss_rows(step)":
        "the EoT loss at step t is the oracle's loss at step t; run paths "
        "evaluate step 0 only",
    "diagnostics.probe_variance_study(p_list)":
        "the probe counts of acceptance criterion 3; the run uses the default",
    "diagnostics.probe_variance_study(epsilon)":
        "the Hoeffding deviation of acceptance criterion 3; the run uses the "
        "default",
    "harness.measure_overhead(n_trials)":
        "the inference-overhead gate of acceptance criterion 9 (allowlisted "
        "above)",
    "losses.lvjp_component(include_identity)":
        "the pairwise-only estimator the tests compare against; training "
        "always includes the unfiltered path",
    "training.optimizer_step(betas)": "AdamW's standard moment decays",
    "training.optimizer_step(eps)": "AdamW's standard denominator guard",
    "cli.main(argv)":
        "the console entry point reads sys.argv; tests pass argv",
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


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _passes(call, name, position):
    """Does `call` pass the parameter `name` (at `position` among the
    positional arguments a caller writes, None for keyword-only)?"""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults():
    """'key(param)' for each defaulted parameter of a public def (the keys
    of public_defs()) that no run-path call of its name passes."""
    calls = {}
    for path in _run_path_files():
        for sub in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(sub, ast.Call):
                calls.setdefault(_call_name(sub), []).append(sub)
    found = []
    for key, node in public_defs().items():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = key.count(".") == 2  # a method's self is not written
        params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        found += [f"{key}({name})" for name, position in params
                  if not any(_passes(c, name, position)
                             for c in calls.get(node.name, []))]
    return sorted(found)


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


def test_every_defaulted_parameter_is_passed_by_a_run_path():
    unpassed = [key for key in unpassed_defaults() if key not in UNPASSED_DEFAULTS]
    assert not unpassed, (
        f"defaulted parameters no run path passes: {unpassed}; drop the "
        f"parameter, pass it from the package, a demo or the benchmark, or "
        f"list it in UNPASSED_DEFAULTS with a reason")
    # an entry whose parameter gained a caller, or was deleted, is stale
    assert sorted(UNPASSED_DEFAULTS) == unpassed_defaults()
