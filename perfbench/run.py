"""cimsel benchmark: run one named workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload sweep-2x2x2 --seed 1 --seconds 20 --trace 0

Each measured unit is one real ``cimsel`` command, ``cli.main(argv)`` in a
fresh Python process (``child.py``), at paper scale: 1000 anneals x 1000
Euler steps per (instance, lambda).  Commands are repeated, each on its own
instances derived from ``--seed``, until ``--seconds`` have passed.  Every
command's outputs are checked; any failure makes the run exit non-zero.

``--trace 0`` reports the end-to-end metrics of untraced commands.
``--trace 1`` alternates untraced commands with traced ones (the layers
wrapped in spans by ``tracing.py``) and reports the per-layer metrics.
The last line of standard output is the JSON result; ``.perfbench_out/``
keeps each command's outputs, the spans and ``result.json`` with the
environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import check_nesting, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# digests of the first command's outputs are checked at this seed
DEFAULT_SEED = 1
# a run must end within 180 s; commands started late get what is left
RUN_BUDGET_S = 170.0
# commands per run at most; command k of seed s uses cimsel seed s * 1000 + k
MAX_COMMANDS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    dims: tuple[int, int, int]  # n_t, n_r, n_states
    lambdas: tuple[float, ...]
    workers: int
    instances: int  # per command
    outputs: tuple[str, ...]  # files whose digests are pinned
    stride: int = 0  # trace sampling stride; 0 for sweep / compare


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-2x2x2", "sweep", (2, 2, 2), (0.1, 0.3, 0.5, 0.7, 0.9), 1, 4,
                 ("results.csv", "summary.json")),
        Workload("compare-4x4x4", "compare", (4, 4, 4), (0.7,), 1, 6,
                 ("results.csv", "summary.json")),
        Workload("trace-2x2x2", "trace", (2, 2, 2), (0.8,), 1, 16,
                 ("trace.csv", "trace_summary.json"), stride=10),
        Workload("compare-4x4x4-w2", "compare", (4, 4, 4), (0.7,), 2, 6,
                 ("results.csv", "summary.json")),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "quality.e_rho_best": "share_of_es",
    "quality.e_rho_avg": "share_of_es",
    "quality.p_c": "ratio",
}

POOL_UNITS = {"pool.busy_s": "s", "pool.efficiency": "ratio", "pool.cpu_per_busy": "ratio"}


class CheckFailed(Exception):
    """A command's outputs broke a correctness check."""


# ---------------------------------------------------------------- commands

def cimsel_argv(w: Workload, seed: int, out: Path, workers: int, sizes: dict) -> list[str]:
    n_t, n_r, n_states = w.dims
    argv = [
        w.command, "--n-t", str(n_t), "--n-r", str(n_r), "--n-states", str(n_states),
        "--n-instances", str(sizes.get("instances") or w.instances),
        "--seed", str(seed), "--workers", str(workers), "--out", str(out),
    ]
    if w.command == "trace":
        argv += ["--lam", repr(w.lambdas[0]), "--stride", str(w.stride)]
    else:
        argv += ["--lambdas", ",".join(repr(v) for v in w.lambdas)]
    if sizes.get("anneals"):
        argv += ["--anneals", str(sizes["anneals"])]
    if sizes.get("steps"):
        argv += ["--steps", str(sizes["steps"])]
    return argv


def run_command(spec: dict, result_path: Path, timeout: float) -> dict:
    """Start ``child.py`` in its own session and wait; kill its whole process
    group (pool workers included) if it overruns."""
    spec = dict(spec, spawn_ns=time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(result_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"exit_code": None, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": proc.returncode, "error": stderr.decode(errors="replace")[-2000:]}
    with open(result_path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ checks

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        first = fh.readline()
        if first.strip() != "# format: 1":
            raise CheckFailed(f"{path.name}: unexpected first line {first!r}")
        return list(csv.DictReader(fh))


def _failed_ids(run_log: Path) -> set[int]:
    text = run_log.read_text()
    if text.strip() == "all instances completed":
        return set()
    ids = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2 or parts[0] != "instance" or not parts[1].isdigit():
            raise CheckFailed(f"run.log: unexpected line {line!r}")
        ids.add(int(parts[1]))
    return ids


def check_results(w: Workload, out: Path, n: int, steps: int) -> set[int]:
    """Dominance identities on every instance and lambda of results.csv (or,
    for traces, every sampled step of trace.csv); returns the ids that fail."""
    bad: set[int] = set()
    groups: dict[tuple, dict[str, float]] = defaultdict(dict)
    if w.command == "trace":
        for r in _read_rows(out / "trace.csv"):
            groups[(int(r["instance_id"]), int(r["step"]))][r["method"]] = float(r["objective"])
        for (iid, _), m in groups.items():
            if not m["cim_best"] >= m["cim_avg"]:
                bad.add(iid)
        finals = {iid for iid, step in groups if step == steps}
    else:
        for r in _read_rows(out / "results.csv"):
            groups[(int(r["instance_id"]), float(r["lambda"]))][r["method"]] = float(r["objective"])
        for (iid, _), m in groups.items():
            if not (m["es"] >= m["cim_best"] >= m["cim_avg"] and m["cim_best"] >= m["rs"]):
                bad.add(iid)
        per_instance = defaultdict(set)
        for iid, lam in groups:
            per_instance[iid].add(lam)
        finals = {iid for iid, lams in per_instance.items() if lams == set(w.lambdas)}
    return bad | (set(range(n)) - finals)


def quality(w: Workload, out: Path, es_objectives: list[float]) -> dict[str, float]:
    """cim_best / cim_avg E_rho as shares of the exhaustive optimum's E_rho,
    and P_c, at the workload's lambdas (their mean for a sweep), at the final
    step.  Dividing by the optimum of the same instances removes most of the
    instance-to-instance spread, so a change in solution quality shows."""
    es = statistics.fmean(es_objectives)
    if w.command == "trace":
        final = json.loads((out / "trace_summary.json").read_text())["rows"][-1]
        best, avg, p_c = final["e_rho_best"], final["e_rho_avg"], final["p_c"]
    else:
        rows = json.loads((out / "summary.json").read_text())["rows"]
        pick = lambda method, key: statistics.fmean(
            r[key] for r in rows if r["method"] == method and r["lambda"] in w.lambdas)
        best, avg, p_c = pick("cim_best", "e_rho"), pick("cim_avg", "e_rho"), pick("cim_best", "p_c")
    return {"quality.e_rho_best": best / es, "quality.e_rho_avg": avg / es, "quality.p_c": p_c}


def check_digests(w: Workload, out: Path) -> None:
    expected = json.loads((HERE / "digests.json").read_text())[w.name]
    for name in w.outputs:
        got = _sha256(out / name)
        if got != expected[name]:
            raise CheckFailed(f"{name}: sha256 {got} differs from the pinned {expected[name]}")


def check_command(w: Workload, res: dict, out: Path, n: int, steps: int, digests: bool):
    """Returns (failed instance count, quality or None, error messages)."""
    if res.get("exit_code") != 0:
        return n, None, [f"exit code {res.get('exit_code')}: {res.get('error')}"]
    try:
        failed = _failed_ids(out / "run.log") | check_results(w, out, n, steps)
        if len(res["instance_s"]) != n - len(res["harness_failures"]):
            raise CheckFailed("harness returned fewer records than instances attempted")
        if digests:
            check_digests(w, out)
        q = quality(w, out, res["es_objective"])
        if "layers" in res:
            check_nesting(read_spans(out / "spans.csv"))
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        return n, None, [f"{type(exc).__name__}: {exc}"]
    errors = [f"instance {i} failed a check" for i in sorted(failed)]
    return len(failed), q, errors


# ------------------------------------------------------------- aggregation

def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value, and its percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * k / max(len(ordered) - 1, 1)


def end_to_end(commands: list[dict], qualities: list[dict], attempted: int, failed: int) -> dict:
    samples = [s for c in commands for s in c["instance_s"]]
    med = lambda key: statistics.median(c[key] for c in commands)
    out = {"setup_s": med("setup_s"), "wall_s": med("wall_s"), "cpu_s": med("cpu_s")}
    if samples:
        out["instance_s.p50"] = statistics.median(samples)
        out["instance_s.tail"] = tail(samples)[0]
    out["peak_rss_mb"] = med("peak_rss_mb")
    out["success_rate"] = (attempted - failed) / attempted
    for key in ("quality.e_rho_best", "quality.e_rho_avg", "quality.p_c"):
        if qualities:
            out[key] = statistics.fmean(q[key] for q in qualities)
    return out


def pool_metrics(commands: list[dict], workers: int) -> dict:
    busy = [sum(c["instance_s"]) for c in commands]
    return {
        "pool.busy_s": statistics.median(busy),
        "pool.efficiency": statistics.median(
            b / (workers * c["wall_s"]) for b, c in zip(busy, commands)),
        "pool.cpu_per_busy": statistics.median(c["cpu_s"] / b for b, c in zip(busy, commands)),
    }


# -------------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller sizes for the smoke test; digests are only pinned at full size
    p.add_argument("--instances", type=int, help="instances per command (default: the workload's)")
    p.add_argument("--anneals", type=int, help="anneals per instance (default 1000)")
    p.add_argument("--steps", type=int, help="Euler steps per anneal (default 1000)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cimsel" / "cli.py").is_file():
        print(f"error: no cimsel sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    w = WORKLOADS[args.workload]
    sizes = {"instances": args.instances, "anneals": args.anneals, "steps": args.steps}
    n = args.instances or w.instances
    steps = args.steps or 1000
    full_size = not any(sizes.values())
    loadavg_start = _loadavg()

    run_dir = OUT / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # one cycle: an untraced command; in traced runs also a traced one at
    # workers 1, and for a pool workload an untraced workers-1 reference so
    # that the tracing overhead compares like with like
    cycle = [("plain", w.workers)]
    if args.trace:
        if w.workers > 1:
            cycle.append(("reference", 1))
        cycle.append(("traced", 1))

    results: dict[str, list[dict]] = defaultdict(list)
    qualities, errors = [], []
    attempted = failed = 0
    env = None
    k = 0
    while k < MAX_COMMANDS and (k < len(cycle) or time.monotonic() - t0 < args.seconds):
        kind, workers = cycle[k % len(cycle)]
        out = run_dir / f"c{k:03d}"
        spec = {
            "src": str(SRC),
            "argv": cimsel_argv(w, args.seed * MAX_COMMANDS + k, out, workers, sizes),
            "out": str(out),
            "trace": kind == "traced",
            "n_instances": n,
            "environment": env is None,
        }
        timeout = max(RUN_BUDGET_S - (time.monotonic() - t0), 5.0)
        res = run_command(spec, run_dir / f"c{k:03d}.json", timeout)
        digests = full_size and k == 0 and args.seed == DEFAULT_SEED
        bad, q, errs = check_command(w, res, out, n, steps, digests)
        attempted += n
        failed += bad
        errors += [f"command {k} ({kind}): {e}" for e in errs]
        if res.get("exit_code") == 0:
            results[kind].append(res)
            env = env or res.get("environment")
            if q is not None and kind == "plain":
                qualities.append(q)
        k += 1

    plain, traced = results["plain"], results["traced"]
    metrics: dict[str, tuple[float, str]] = {}
    extra = {}
    if plain and not args.trace:
        e2e = end_to_end(plain, qualities, attempted, failed)
        metrics = {name: (e2e[name], E2E_UNITS[name]) for name in E2E_UNITS if name in e2e}
        samples = [s for c in plain for s in c["instance_s"]]
        if samples:
            extra["instance_s"] = {"samples": len(samples), "tail_percentile": tail(samples)[1]}
    if args.trace and plain and traced:
        for name, (_, unit) in traced[0]["layers"].items():
            metrics[name] = (statistics.median(c["layers"][name][0] for c in traced), unit)
        for name, value in pool_metrics(plain, w.workers).items():
            metrics[name] = (value, POOL_UNITS[name])
        reference = results["reference"] or plain
        overhead = (statistics.median(c["wall_s"] for c in traced)
                    / statistics.median(c["wall_s"] for c in reference) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        # the layers' self times partition the root span, so they must
        # account for the traced wall time within the tracing overhead
        for c in traced:
            if abs(c["wall_s"] - c["self_s_sum"]) > max(overhead, 0.01) * c["wall_s"]:
                failed += n
                errors.append(f"layer self times sum to {c['self_s_sum']:.4f} s, "
                              f"traced wall_s is {c['wall_s']:.4f} s")
        extra["spans"] = str(run_dir / f"c{len(cycle) - 1:03d}" / "spans.csv")

    report = {"workload": w.name, "seed": args.seed, "trace": args.trace, "commands": k,
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "errors": errors[:50], "environment": env, "loadavg_start": loadavg_start,
              "loadavg_end": _loadavg(), **extra}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (run_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':36s} {report['error_rate']:>16.6g} ratio")
        if "instance_s" in report:
            print(f"instance_s: {report['instance_s']['samples']} samples, tail = "
                  f"p{report['instance_s']['tail_percentile']:.1f}")
    for e in errors[:20]:
        print(f"error: {e}")
    print("environment " + json.dumps({"env": env, "loadavg_start": loadavg_start,
                                       "loadavg_end": report["loadavg_end"]}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
