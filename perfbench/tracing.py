"""Per-layer tracing of the drift package, installed from outside.

`Tracer.install()` replaces every binding of each public drift function
(in every `drift.*` module that holds one, since from-imports make separate
names) with a wrapper that records a span. It also wraps
`GradientOracle.__call__`, `Tape._append` (node counts) and the entries of
the tape's `_FORWARD` kernel registry. `drift.models` keeps its own raw
reference to the conv kernel, so taped convs (`tape.conv2d`) and tape-free
convs (`models.np_conv2d`) are counted apart. `uninstall()` puts every
original back. Wrappers call the original with the same arguments and
return its result unchanged, so traced outputs are bitwise equal to
untraced ones.

Spans are kept in memory as [name, start, end, parent]. Kernel counters
(calls, seconds, GFLOP) are kept per op and, by seconds, per innermost open
span.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

DRIFT_MODULES = ("tape", "rng", "models", "losses", "training", "attacks",
                 "diagnostics", "data", "dtns", "harness")

# The tape's primitive ops run once per recorded node; the kernel counters
# measure them, so of the tape's functions only these get spans.
TAPE_SPANS = ("vjp", "grad")

# Tape kernels counted on their own; every other kernel is "other".
KERNELS = ("conv2d", "conv2d_kgrad", "matmul")


def self_times(spans):
    """Per-name {calls, s, self_s} from closed spans [name, start, end, parent].

    `parent` is the index of the enclosing span in the list, or None. A
    span's self time is its duration minus the durations of its direct
    children (children nest inside their parent; one thread).
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += (end - start) - child_s[i]
    return out


def conv_gflop(n, c, h, w, o, kh, kw, pad):
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    return 2.0 * n * ho * wo * o * c * kh * kw / 1e9


def _conv_flops(vals, pad):
    (n, c, h, w), (o, _, kh, kw) = vals[0].shape, vals[1].shape
    return conv_gflop(n, c, h, w, o, kh, kw, pad)


def _kgrad_flops(vals, pad):
    (n, c, h, w), (_, o, ho, wo) = vals[0].shape, vals[1].shape
    return conv_gflop(n, c, h, w, o, h + 2 * pad - ho + 1,
                      w + 2 * pad - wo + 1, pad)


def _matmul_flops(vals, ctx):
    (m, k), n = vals[0].shape, vals[1].shape[1]
    return 2.0 * m * k * n / 1e9


_KERNEL_FLOPS = {"conv2d": _conv_flops, "conv2d_kgrad": _kgrad_flops,
                 "matmul": _matmul_flops}


def drift_modules():
    return [importlib.import_module("drift")] + [
        importlib.import_module(f"drift.{m}") for m in DRIFT_MODULES]


def _public_functions(mod):
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(mod).items():
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            continue
        if short != "tape" or name in TAPE_SPANS:
            yield f"{short}.{name}", obj


class Tracer:
    """Spans and counters for one traced phase: install, run, uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._patches = []
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.ops_by_span = defaultdict(lambda: defaultdict(float))
        self.eot_keys = set()

    def reset(self):
        """Drop what was recorded; the installed wrappers keep recording."""
        if self.stack:
            raise RuntimeError("reset() called with spans still open")
        self.spans.clear()
        self.counters.clear()
        self.ops_by_span.clear()
        self.eot_keys.clear()

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        span = [name, self.clock(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[2] = self.clock()
        self.stack.pop()

    def span(self, name):
        """Context manager for a span around code the benchmark runs itself."""
        return _SpanContext(self, name)

    def aggregate(self):
        """Per-span-name {calls, s, self_s} over the closed spans."""
        closed = [s for s in self.spans if s[2] is not None]
        if len(closed) != len(self.spans):
            raise RuntimeError("aggregate() called with spans still open")
        return self_times(closed)

    def eot_useful_ratio(self):
        """Distinct (sample, step, filter) triples per EoT draw."""
        draws = self.counters["rng.draws.eot"]
        return len(self.eot_keys) / draws if draws else 0.0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        wrapper.__bench_original__ = fn
        return wrapper

    def _wrap_kernel(self, op, fn):
        tracer = self
        key = op if op in KERNELS else "other"
        flops = _KERNEL_FLOPS.get(op)
        c = self.counters

        def kernel(vals, ctx):
            t0 = tracer.clock()
            out = fn(vals, ctx)
            dt = tracer.clock() - t0
            c[f"tape.{key}.calls"] += 1
            c[f"tape.{key}.s"] += dt
            if flops is not None:
                c[f"tape.{key}.gflop"] += flops(vals, ctx)
            owner = tracer.spans[tracer.stack[-1]][0] if tracer.stack else "-"
            tracer.ops_by_span[owner][key] += dt
            return out
        kernel.__bench_original__ = fn
        return kernel

    def _wrap_append(self, fn):
        c = self.counters

        def _append(tape, op, parents, value, ctx):
            c["tape.nodes"] += 1
            return fn(tape, op, parents, value, ctx)
        _append.__bench_original__ = fn
        return _append

    def _wrap_score_factory(self, name, fn):
        """ensemble_margin_score returns the Square attack's score; count it."""
        tracer = self
        factory = self._wrap(name, fn)

        @functools.wraps(fn)
        def make(*args, **kwargs):
            score = factory(*args, **kwargs)

            def counted(x, y, row_seeds):
                tracer.counters["attacks.square.score_rows"] += len(x)
                span = tracer.open("attacks.margin_score")
                try:
                    return score(x, y, row_seeds)
                finally:
                    tracer.close(span)
            return counted
        make.__bench_original__ = fn
        return make

    def _hooks(self):
        from drift.attacks import EOT_TAG, SQUARE_TAG
        from drift.harness import INFERENCE_TAG
        kinds = {EOT_TAG: "eot", SQUARE_TAG: "square", INFERENCE_TAG: "inference"}
        c = self.counters
        eot_keys = self.eot_keys

        def sample_filter_index(result, k, seed):
            kind = kinds.get(int(seed[1])) if isinstance(seed, (list, tuple)) \
                and len(seed) > 1 else None
            if kind is None:
                return
            c[f"rng.draws.{kind}"] += 1
            if kind == "eot":
                # seed = [attack seed, tag, sample, step, draw(, call)]
                key = tuple(int(s) for s in seed[:4] + seed[5:])
                eot_keys.add(key + (int(result),))

        def np_conv2d(result, x, kernel, bias, padding):
            n = 1 if x.ndim == 3 else x.shape[0]
            c["models.np_conv2d.rows"] += n
            c["models.np_conv2d.gflop"] += conv_gflop(
                n, *x.shape[-3:], kernel.shape[0], *kernel.shape[2:],
                int(padding))

        def eot_loss_rows(result, *args, **kwargs):
            c["diagnostics.eot_loss_rows.rows"] += len(result)

        def vjp(result, tape, *args, **kwargs):
            mb = sum(node.value.nbytes for node in tape.nodes) / 2 ** 20
            c["tape.peak_mb"] = max(c["tape.peak_mb"], mb)

        return {
            "models.sample_filter_index": sample_filter_index,
            "models.np_conv2d": np_conv2d,
            "diagnostics.eot_loss_rows": eot_loss_rows,
            "tape.vjp": vjp,
        }

    def install(self):
        """Wrap every binding of the traced functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = drift_modules()  # imports drift.models before _FORWARD is wrapped
        from drift import attacks, tape
        hooks = self._hooks()
        wrappers = {}
        for mod in mods:
            for name, fn in _public_functions(mod):
                if name == "attacks.ensemble_margin_score":
                    wrappers[fn] = self._wrap_score_factory(name, fn)
                else:
                    wrappers[fn] = self._wrap(name, fn, hooks.get(name))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        self._patch(attacks.GradientOracle, "__call__", self._wrap(
            "attacks.oracle", attacks.GradientOracle.__call__))
        self._patch(tape.Tape, "_append", self._wrap_append(tape.Tape._append))
        for op, fn in list(tape._FORWARD.items()):
            tape._FORWARD[op] = self._wrap_kernel(op, fn)
            self._patches.append((tape._FORWARD, op, fn))
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


def installed_wrappers():
    """Names of traced wrappers still bound anywhere in drift; [] when clean."""
    from drift import attacks, tape
    found = [f"{mod.__name__}.{attr}"
             for mod in drift_modules() for attr, val in vars(mod).items()
             if hasattr(val, "__bench_original__")]
    found += [f"drift.tape._FORWARD[{op!r}]"
              for op, fn in tape._FORWARD.items()
              if hasattr(fn, "__bench_original__")]
    found += [f"{owner.__name__}.{attr}"
              for owner, attr in ((attacks.GradientOracle, "__call__"),
                                  (tape.Tape, "_append"))
              if hasattr(vars(owner)[attr], "__bench_original__")]
    return found
