"""In-memory span tracer for the traced benchmark run.

Each layer's public functions are wrapped at the module attribute through
which their caller looks them up (``cimsel.bench.solve``,
``cimsel.cim.substream``, ...), so no file of the program changes.  A span
is ``(id, parent, name, start_ns, end_ns)``; spans stay in memory and are
written out once, when the traced command has finished.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.  Every span nests under the ``cli`` root
span, so the self times of all layers add up to the root's duration.
"""

from __future__ import annotations

import collections
import functools
import os
import time

ROOT = "cli"

# (span name, module, attribute): the attribute is the name through which
# the calling module looks the function up at call time.  Summaries are part
# of the harness: time_trace computes its per-step summary inline, so a
# separate summary span would only exist on sweep and compare
LAYERS = (
    ("bench.harness", "bench", "sweep_lambda"),
    ("bench.harness", "bench", "time_trace"),
    ("bench.harness", "bench", "summarize_comparison"),
    ("bench.write", "bench", "write_metric_rows"),
    ("bench.write", "bench", "write_summary_json"),
    ("bench.write", "bench", "write_trace_summary_json"),
    ("bench.run_instance", "bench", "run_instance"),
    ("cim.solve", "bench", "solve"),
    ("rng.substream", "bench", "substream"),
    ("rng.substream", "cim", "substream"),
    ("rng.derive_seed", "bench", "derive_seed"),
    ("baselines.es", "bench", "exhaustive_search"),
    ("baselines.nsa", "bench", "nsa"),
    ("baselines.rs", "bench", "random_selection"),
    ("channel.generate", "bench", "generate_channel"),
    ("formulation.compile", "bench", "compile_instance"),
)

# self-time metric -> the span name whose self time it reports
SELF_TIME_METRICS = {
    "cli.self_s": ROOT,
    "bench.harness.self_s": "bench.harness",
    "bench.write_s": "bench.write",
    "bench.run_instance.self_s": "bench.run_instance",
    "cim.solve.self_s": "cim.solve",
    "rng.substream_s": "rng.substream",
    "rng.derive_seed_s": "rng.derive_seed",
    "baselines.es_s": "baselines.es",
    "baselines.nsa_s": "baselines.nsa",
    "baselines.rs_s": "baselines.rs",
    "channel.generate_s": "channel.generate",
    "formulation.compile_s": "formulation.compile",
}


def step_flops(dim: int) -> int:
    """Computed flops of one Euler step of one anneal (``cim._step_arrays``
    plus the finiteness probe in ``cim._integrate``): ``2 d^2`` for ``x @ J``
    and 19 elementwise operations per spin."""
    return 2 * dim * dim + 19 * dim


def step_bytes(dim: int, n_anneals: int) -> float:
    """Computed bytes moved by one Euler step of one anneal: 44 float64
    array operands of length ``d`` read or written by the step's ufuncs,
    plus ``J`` read once per step and shared by the batch."""
    return 8.0 * (44 * dim + dim * dim / n_anneals)


def _count_solve(counts, args, kwargs, result):
    dim, params = args[0].dim, args[1]
    steps = params.n_anneals * params.steps
    counts["cim.anneal_steps"] += steps
    counts["cim.aborted_anneals"] += sum(bool(o.aborted) for o in result)
    counts["cim.flops"] += steps * step_flops(dim)
    counts["cim.bytes"] += steps * step_bytes(dim, params.n_anneals)


def _count_es(counts, args, kwargs, result):
    counts["baselines.es_evaluations"] += result.evaluations


def _count_run_instance(counts, args, kwargs, result):
    samples = 0 if result.trace_steps is None else len(result.trace_steps)
    counts["bench.decoded_readouts"] += result.n_anneals * (1 + samples)


def _count_write(counts, args, kwargs, result):
    counts["bench.write_bytes"] += os.path.getsize(args[1])


HOOKS = {
    "cim.solve": _count_solve,
    "baselines.es": _count_es,
    "bench.run_instance": _count_run_instance,
    "bench.write": _count_write,
}


class Tracer:
    """Records one span per wrapped call, plus counts taken from results."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every layer function in ``LAYERS``; ``modules`` maps the
        short module names used there to the imported modules."""
        for name, module, attr in LAYERS:
            mod = modules[module]
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), HOOKS.get(name)))

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        covered: dict[int, int] = collections.defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start - covered[span_id]) / 1e9
        return dict(out)

    def calls(self) -> collections.Counter:
        return collections.Counter(name for _, _, name, _, _ in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(str(v) for v in span) + "\n")


def read_spans(path) -> list[tuple[int, int, str, int, int]]:
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            sid, parent, name, start, end = line.rstrip("\n").split(",")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


def check_nesting(spans) -> None:
    """Raise unless every span lies inside its parent and exactly one root exists."""
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] < 0]
    if len(roots) != 1 or roots[0][2] != ROOT:
        raise ValueError(f"expected one {ROOT!r} root span, found {[r[2] for r in roots]}")
    for sid, parent, name, start, end in spans:
        if end < start:
            raise ValueError(f"span {sid} ({name}) ends before it starts")
        if parent >= 0:
            p = by_id.get(parent)
            if p is None or start < p[3] or end > p[4]:
                raise ValueError(f"span {sid} ({name}) is not inside its parent {parent}")


def layer_metrics(tracer: Tracer, n_instances: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command: self times in seconds for the
    command, counts per instance."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    per = 1.0 / n_instances
    out = {metric: (self_s.get(span, 0.0), "s") for metric, span in SELF_TIME_METRICS.items()}
    steps = counts["cim.anneal_steps"]
    solve_s = out["cim.solve.self_s"][0]
    out.update({
        "cim.ns_per_anneal_step": (solve_s / steps * 1e9, "ns"),
        "cim.gflops": (counts["cim.flops"] / solve_s / 1e9, "GFLOP/s"),
        "cim.flop_per_anneal_step.computed": (counts["cim.flops"] / steps, "flop"),
        "cim.bytes_per_anneal_step.computed": (counts["cim.bytes"] / steps, "B"),
        "cim.anneal_steps": (steps * per, "count/instance"),
        "cim.aborted_anneals": (counts["cim.aborted_anneals"] * per, "count/instance"),
        "rng.substream_calls": (calls["rng.substream"] * per, "count/instance"),
        "rng.derive_seed_calls": (calls["rng.derive_seed"] * per, "count/instance"),
        "bench.decoded_readouts": (counts["bench.decoded_readouts"] * per, "count/instance"),
        "bench.write_bytes": (float(counts["bench.write_bytes"]), "B"),
        "baselines.es_evaluations": (counts["baselines.es_evaluations"] * per, "count/instance"),
    })
    return out
