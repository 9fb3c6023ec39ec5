"""Run one cimsel command in a fresh process and measure it.

    python3 perfbench/child.py SPEC_JSON RESULT_PATH

``SPEC_JSON`` holds ``src`` (the directory that contains the ``cimsel``
package), ``argv`` (the command line given to ``cli.main``), ``out`` (the
command's output directory), ``trace`` (wrap the layers in spans) and
``spawn_ns`` (``time.monotonic_ns()`` just before the parent started this
process).  The measurements are written to ``RESULT_PATH`` as JSON.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import json
import sys
import time


def _blas_threads():
    """Thread count the loaded OpenBLAS is configured with, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """What a reader needs to explain a result: cores, versions, BLAS threads."""
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    sys.path.insert(0, spec["src"])
    from cimsel import bench, cim, cli

    setup_s = (time.monotonic_ns() - spec["spawn_ns"]) / 1e9

    import contextlib
    import os
    import resource
    import traceback

    captured = []

    def capture(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured.append(result)
            return result
        return wrapper

    tracer = None
    main_fn = cli.main
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"bench": bench, "cim": cim})
        main_fn = tracer.wrap("cli", cli.main)
    # the harness result carries the per-instance wall_clock of every record
    bench.sweep_lambda = capture(bench.sweep_lambda)
    bench.time_trace = capture(bench.time_trace)

    os.makedirs(spec["out"], exist_ok=True)
    error = None
    with open(os.path.join(spec["out"], "cli_stdout.txt"), "w") as log, \
            contextlib.redirect_stdout(log):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        tic = time.perf_counter()
        try:
            exit_code = main_fn(spec["argv"])
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
            error = f"SystemExit: {exc.code}"
        except Exception:
            exit_code = 1
            error = traceback.format_exc()
        wall_s = time.perf_counter() - tic
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ruc = resource.getrusage(resource.RUSAGE_CHILDREN)

    records = captured[-1].records if captured else []
    failures = captured[-1].failures if captured else []
    result = {
        "exit_code": exit_code,
        "error": error,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
                 + ruc.ru_utime + ruc.ru_stime,
        "peak_rss_mb": max(ru1.ru_maxrss, ruc.ru_maxrss) / 1024.0,
        "instance_s": [r.wall_clock for r in records],
        "es_objective": [r.es_objective for r in records],
        "harness_failures": list(failures),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(os.path.join(spec["out"], "spans.csv"))
        result["layers"] = {
            name: list(v) for name, v in layer_metrics(tracer, spec["n_instances"]).items()
        }
        result["self_s_sum"] = sum(tracer.self_seconds().values())
    if spec.get("environment"):
        result["environment"] = environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
