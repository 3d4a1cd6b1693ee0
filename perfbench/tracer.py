"""Spans around the calls into shiftlab's layers, recorded from outside.

``Tracer.install`` replaces each listed public function with a wrapper that
records a span (name, start, end, parent span, operation id).  A function is
replaced everywhere it is bound: on its own module, on every shiftlab module
that bound it with ``from .x import y``, and on the package itself, so
``thermo.higher_block`` and ``graphs.higher_block`` share one wrapper.
Methods are replaced on their class.  Spans stay in memory as flat arrays
until the run ends.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never overlap.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layer metrics: metric name -> span names whose self time it sums.
_EXPSUM_METHODS = ("__init__", "zero", "unit", "add_term", "__add__", "__mul__", "__eq__",
                   "__hash__", "__bool__", "count", "is_integer", "as_integer",
                   "float_value", "float_log", "pairs")
_PARSERS = ("loads", "parse_word", "parse_graph", "parse_exhaustion", "parse_loops",
            "parse_shift", "parse_potential", "parse_code", "parse_ai", "parse_measure",
            "parse_document")
_EMITTERS = ("dumps", "emit_graph", "emit_exhaustion", "emit_loops", "emit_potential",
             "emit_code", "emit_ai", "emit_measure")

SPAN_TARGETS = [
    ("cli", "main"),
    *[("documents", f) for f in _PARSERS + _EMITTERS],
    ("graphs", "build_graph"),
    ("graphs", "strongly_connected_components"),
    ("graphs", "higher_block"),
    ("graphs", "FiniteGraph.words"),
    ("graphs", "enumerate_periodic"),
    ("graphs", "periodic_count_exponents"),
    ("kernels", "exact_reach"),
    ("kernels", "closed_paths"),
    ("kernels", "closed_path_count_keys"),
    ("kernels", "first_return_paths"),
    ("kernels", "step_chain"),
    ("potentials", "birkhoff_sum"),
    ("potentials", "bowen_reduce"),
    *[("expsum", f"ExpSum.{m}") for m in _EXPSUM_METHODS],
    ("thermo", "partition_function"),
    ("thermo", "pressure_from_table"),
    ("thermo", "zeta_series"),
    ("thermo", "pressure_spectral"),
    ("thermo", "pressure_exhaustion"),
    ("thermo", "equilibrium_measure"),
    ("thermo", "measure_pressure"),
    ("thermo", "recurrence_classify"),
    ("induction", "induce"),
    ("induction", "loop_zn_exact"),
    ("induction", "verify_zn_coincidence"),
    ("codes", "verify_magic"),
    ("codes", "transport_measure"),
    ("codes", "gamma_on_point"),
    ("codes", "verify_correspondence"),
]

# Wrapped for their counters only: a span here would move the power
# iteration's time out of pressure_spectral and equilibrium_measure.
COUNT_ONLY_TARGETS = [("thermo", "_power_bounds")]

OP_SPAN = "bench.op"

SELF_METRICS: dict[str, tuple[str, ...]] = {
    "cli.self_s": ("cli.main",),
    "documents.parse.self_s": tuple(f"documents.{f}" for f in _PARSERS),
    "documents.emit.self_s": tuple(f"documents.{f}" for f in _EMITTERS),
    "expsum.self_s": tuple(f"expsum.ExpSum.{m}" for m in _EXPSUM_METHODS),
    "bench.op.self_s": (OP_SPAN,),
}
for _mod, _name in SPAN_TARGETS:
    if _mod not in ("cli", "documents", "expsum"):
        SELF_METRICS[f"{_mod}.{_name}.self_s"] = (f"{_mod}.{_name}",)

CALL_METRICS = {
    "potentials.birkhoff_sum.calls": "potentials.birkhoff_sum",
    "expsum.ExpSum.add_term.calls": "expsum.ExpSum.add_term",
}


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _expsum_terms(values) -> int:
    return sum(len(z.terms) for z in values if hasattr(z, "terms"))


def _count_closed(c, fn, a, k, out):
    c["kernels.points_emitted"] += int(out[0].shape[0])
    c["kernels.enumerations"] += 1
    c["kernels.overflows"] += bool(out[1])


def _count_keys(c, fn, a, k, out):
    c["kernels.points_emitted"] += int(np.asarray(out[1]).sum())
    c["kernels.enumerations"] += 1
    c["kernels.overflows"] += bool(out[2])


def _count_returns(c, fn, a, k, out):
    c["kernels.loops_emitted"] += len(out[1])
    c["kernels.enumerations"] += 1
    c["kernels.overflows"] += bool(out[2])


def _count_chain(c, fn, a, k, out):
    c["kernels.chain_steps"] += len(out) - 1


def _count_table(c, fn, a, k, out):
    c["thermo.zn_requested"] += int(_arg(fn, a, k, "n_max"))
    c["thermo.zn_returned"] += len(out.entries)
    c["expsum.terms_out"] += _expsum_terms(out.entries.values())


def _count_loop_zn(c, fn, a, k, out):
    c["expsum.terms_out"] += _expsum_terms(out)


def _count_power(c, fn, a, k, out):
    c["thermo.power_iterations"] += int(out[2])


def _count_aitken(c, fn, a, k, out):
    c["thermo.aitken_stages"] += int(out.iterations)


def _count_magic(c, fn, a, k, out):
    c["codes.magic_depth_requested"] += int(_arg(fn, a, k, "depth"))
    c["codes.magic_depth_achieved"] += int(out.depth)


def _count_correspondence(c, fn, a, k, out):
    c["codes.witnesses_checked"] += int(out.witnesses_checked)


def _count_dumps(c, fn, a, k, out):
    c["documents.bytes_out"] += len(out.encode())


COUNTERS = {
    "kernels.closed_paths": _count_closed,
    "kernels.closed_path_count_keys": _count_keys,
    "kernels.first_return_paths": _count_returns,
    "kernels.step_chain": _count_chain,
    "thermo.partition_function": _count_table,
    "induction.loop_zn_exact": _count_loop_zn,
    "thermo._power_bounds": _count_power,
    "thermo.pressure_from_table": _count_aitken,
    "codes.verify_magic": _count_magic,
    "codes.verify_correspondence": _count_correspondence,
    "documents.dumps": _count_dumps,
}


class Tracer:
    """Records spans and counters while installed; restores everything on removal."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, span: bool = True):
        nid = self._name(name)
        counter = COUNTERS.get(name)
        stack, counts = self._stack, self.counts

        if not span:
            def counted(*a, **k):
                out = fn(*a, **k)
                counter(counts, fn, a, k, out)
                return out
            return counted

        def traced(*a, **k):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                counter(counts, fn, a, k, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span carrying its id."""
        self._op_id = op_id
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self._op_id = -1

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "shiftlab" or name.startswith("shiftlab.")}
        for targets, span in ((SPAN_TARGETS, True), (COUNT_ONLY_TARGETS, False)):
            for modname, qual in targets:
                mod = mods.get(f"shiftlab.{modname}")
                if mod is None:
                    continue
                name = f"{modname}.{qual}"
                if "." in qual:
                    self._install_method(mod, qual, name)
                    continue
                fn = getattr(mod, qual, None)
                if fn is None:
                    continue
                wrapped = self.wrap(name, fn, span)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, attr, wrapped)

    def _install_method(self, mod, qual, name):
        cls_name, attr = qual.split(".")
        cls = getattr(mod, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, property):
            new = property(self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            new = self.wrap(name, raw)
        self._set(cls, attr, new)

    def remove(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-span (name id, op id, self seconds)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int64), dur - child)

    def self_by_name(self) -> dict[str, float]:
        nid, _, self_s = self.self_times()
        sums = np.bincount(nid, weights=self_s, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def calls_by_name(self) -> dict[str, int]:
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(nid, minlength=len(self.names))
        return {name: int(calls[i]) for i, name in enumerate(self.names)}

    def self_by_op(self) -> dict[int, float]:
        """Summed self time of every span of each operation, the root included."""
        _, op, self_s = self.self_times()
        out: dict[int, float] = {}
        for o in np.unique(op):
            out[int(o)] = float(self_s[op == o].sum())
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64), end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64), op=np.frombuffer(self.op, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of one pass over the workload's inputs."""
    self_s = tracer.self_by_name()
    calls = tracer.calls_by_name()
    c = tracer.counts
    out = {metric: sum(self_s.get(n, 0.0) for n in names) / passes
           for metric, names in SELF_METRICS.items()}
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0) / passes
    for key in ("kernels.points_emitted", "kernels.loops_emitted", "kernels.chain_steps",
                "expsum.terms_out", "thermo.power_iterations", "thermo.aitken_stages",
                "codes.witnesses_checked", "documents.bytes_out"):
        out[key] = c[key] / passes
    # ratios of useful outcomes to attempts; with no attempt nothing was wasted
    out["kernels.overflow_ratio"] = c["kernels.overflows"] / c["kernels.enumerations"] if c["kernels.enumerations"] else 0.0
    out["thermo.zn_completion_ratio"] = c["thermo.zn_returned"] / c["thermo.zn_requested"] if c["thermo.zn_requested"] else 1.0
    out["codes.magic_depth_ratio"] = (c["codes.magic_depth_achieved"] / c["codes.magic_depth_requested"]
                                      if c["codes.magic_depth_requested"] else 1.0)
    return out
