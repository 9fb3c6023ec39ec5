"""Fast smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced with a few anneals and steps, and
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the spans nest, and that the exact counts match their formulas.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import ROOT as ROOT_SPAN, check_nesting, read_spans  # noqa: E402

INSTANCES, ANNEALS, STEPS = 2, 16, 25
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--instances", str(INSTANCES),
         "--anneals", str(ANNEALS), "--steps", str(STEPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" / workload / "result.json").read_text())
    return last, report


def expected_counts(w) -> dict[str, float]:
    n_t, n_r, n_states = w.dims
    n_lam = len(w.lambdas)
    samples = len(set(range(0, STEPS + 1, w.stride)) | {STEPS}) if w.stride else 0
    return {
        "rng.substream_calls": n_lam * (ANNEALS + 1) + 1,
        "rng.derive_seed_calls": 2 + n_lam,
        "baselines.es_evaluations": n_states ** (n_t + n_r),
        "cim.anneal_steps": n_lam * ANNEALS * STEPS,
        "bench.decoded_readouts": n_lam * ANNEALS * (1 + samples),
        "cim.aborted_anneals": 0,
    }


def check_emitted(last: dict, specs: list[dict]) -> None:
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= INSTANCES
    assert set(last["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    last, report = run(workload, 0)
    check_emitted(last, BENCHMARK["end_to_end"])
    assert report["error_rate"] == 0.0
    assert report["environment"]["nproc"] >= 1
    assert report["loadavg_start"] is not None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_and_spans(workload):
    last, report = run(workload, 1)
    check_emitted(last, BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    for name, value in expected_counts(WORKLOADS[workload]).items():
        assert metrics[name] == value, name

    spans = read_spans(report["spans"])
    check_nesting(spans)
    names = {s[2] for s in spans}
    assert {ROOT_SPAN, "cim.solve", "rng.substream", "bench.run_instance", "baselines.es"} <= names
    root = next(s for s in spans if s[1] < 0)
    covered = sum(e - s for _, p, _, s, e in spans if p == root[0])
    assert 0 < covered <= root[4] - root[3]


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark exits non-zero, printing no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-2x2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
