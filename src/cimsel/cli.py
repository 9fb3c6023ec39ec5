"""Command-line frontend.

Subcommands: ``gen``, ``solve``, ``sweep``, ``trace``, ``compare``,
``export-ising``.  Global flags ``--seed``, ``--workers``, ``--out`` and
``--config`` may also be supplied through the environment as
``CIMSEL_SEED``, ``CIMSEL_WORKERS``, ``CIMSEL_OUT`` and ``CIMSEL_CONFIG``
(flags win over the environment, which wins over the config file).

Outside input reaches a run only through :class:`bench.ExperimentPlan`: the
merged flags, environment and config file are handed, unconverted, to
``MimoConfig``, ``CimParams`` and the plan, which own the defaults and
checks of their fields; only ``workers`` is defaulted and checked here.  A
config file may hold the plan's fields, the problem dimensions, ``cim``,
``workers`` and a single weight ``lambda``, which ``sweep`` and ``compare``
reject: they read ``lambdas``.  Bad outside input exits 2 with
an ``error:`` line before anything is computed or written.

Every run that writes to an output directory echoes its fully resolved
configuration there as ``run_config.json``, so any artifact can be
regenerated from the directory contents alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bench
from .baselines import search_space_size
from .channel import MimoConfig, generate_channel, read_channel, write_channel
from .cim import CimParams, solve, write_trajectory_csv
from .formulation import compile_instance, write_instance

_ENV_PREFIX = "CIMSEL_"

_DIMENSIONS = tuple(f.name for f in dataclasses.fields(MimoConfig))
_PLAN_KEYS = tuple(
    f.name for f in dataclasses.fields(bench.ExperimentPlan) if f.name not in ("config", "cim")
)
# what a config file may hold: the plan, plus the keys run_config.json adds
_CONFIG_KEYS = (*_DIMENSIONS, *_PLAN_KEYS, "cim", "workers", "lambda", "format", "command")


def _env_default(name: str):
    # argparse converts a string default through the flag's type, so a bad
    # value exits 2 like a bad flag
    return os.environ.get(_ENV_PREFIX + name.upper())


def _fail(message: str):
    """Reject bad outside input: print the reason and exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def _input_errors():
    """Turn an error raised while reading or checking outside input into a
    clean exit 2."""
    try:
        yield
    except (OSError, TypeError, ValueError) as exc:
        _fail(str(exc))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict) or not isinstance(cfg.get("cim", {}), dict):
        _fail(f"config file {path}: the top level and 'cim' must be JSON objects")
    cim_keys = {f.name for f in dataclasses.fields(CimParams)}
    unknown = [k for k in cfg if k not in _CONFIG_KEYS]
    unknown += [f"cim.{k}" for k in cfg.get("cim", {}) if k not in cim_keys]
    if unknown:
        _fail(f"config file {path}: unknown key " + ", ".join(f"'{k}'" for k in unknown))
    return cfg


def _resolved_config(args) -> dict:
    """Merge config file defaults with command-line overrides."""
    cfg = _load_config_file(args.config)
    flags = {key: getattr(args, key, None) for key in (*_DIMENSIONS, *_PLAN_KEYS)}
    flags.update(master_seed=args.seed, workers=args.workers)
    flags["lambda"] = getattr(args, "lam", None)
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    cim = dict(cfg.get("cim", {}))
    for f in dataclasses.fields(CimParams):
        value = getattr(args, f"cim_{f.name}", None)
        if value is not None:
            cim[f.name] = value
    if cim:
        cfg["cim"] = cim
    cfg.setdefault("workers", 1)
    return cfg


def _plan(cfg: dict, config: MimoConfig | None = None) -> tuple[bench.ExperimentPlan, int]:
    """The experiment plan and worker count of a command.

    The dimensions come from ``config`` (a channel file's) when given, else
    from ``cfg``; the plan gets only the keys present in ``cfg``.
    """
    with _input_errors():
        if config is None:
            missing = [key for key in _DIMENSIONS if key not in cfg]
            if missing:
                _fail(f"missing problem dimension '{missing[0]}' (flag or config file)")
            config = MimoConfig(**{key: cfg[key] for key in _DIMENSIONS})
        plan = bench.ExperimentPlan(
            config=config,
            cim=CimParams(**cfg.get("cim", {})),
            **{key: cfg[key] for key in _PLAN_KEYS if key in cfg},
        )
    workers = cfg["workers"]
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        _fail(f"workers must be an integer >= 1, got {workers!r}")
    return plan, workers


def _one_weight_plan(
    cfg: dict, config: MimoConfig | None = None
) -> tuple[bench.ExperimentPlan, int]:
    """The plan of a single-weight command, holding ``lambda`` if given,
    else the first of ``lambdas``; the plan checks the weights either way."""
    if "lambda" in cfg:
        cfg = dict(cfg, lambdas=[cfg["lambda"]])
    plan, workers = _plan(cfg, config)
    return dataclasses.replace(plan, lambdas=plan.lambdas[:1]), workers


def _read_channel(path):
    with _input_errors():
        return read_channel(path)


def _check_writable(path) -> None:
    """Reject now a file that could not be written later: ``path`` names a
    directory, its directory is missing, or either refuses writes."""
    path = Path(path)
    if path.is_dir():
        _fail(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        _fail(f"cannot write {path}: no directory {path.parent}")
    if not os.access(path.parent, os.W_OK | os.X_OK) or (
        path.exists() and not os.access(path, os.W_OK)
    ):
        _fail(f"cannot write {path}: permission denied")


def _out_dir(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / default_name
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot make output directory {out}: {exc}")
    return out


def _echo_config(args, cfg: dict, plan: bench.ExperimentPlan, out: Path) -> None:
    # the echo records the seed that ran; a config file that is itself an
    # echo carries the old run's command
    payload = dict(cfg, master_seed=plan.master_seed, format=1, command=args.command)
    with open(out / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _finish_harness(args, cfg: dict, plan: bench.ExperimentPlan, out: Path, result) -> int:
    """Shared tail of ``sweep``/``trace``/``compare``: write ``run.log`` and
    ``run_config.json``, and exit 4 when every instance failed."""
    log = result.failures or ["all instances completed"]
    (out / "run.log").write_text("\n".join(log) + "\n")
    _echo_config(args, cfg, plan, out)
    if not result.records:
        print("error: all instances failed", file=sys.stderr)
        return 4
    return 0


def cmd_gen(args) -> int:
    cfg = _resolved_config(args)
    # gen writes one file unless told otherwise
    plan, _ = _plan({"n_instances": 1, **cfg})
    out = _out_dir(args, "gen")
    seeds, files = [], []
    for k in range(plan.n_instances):
        seed = bench.instance_channel_seed(plan.master_seed, k)
        g = generate_channel(plan.config, seed)
        name = f"channel_{k:05d}.json"
        try:
            write_channel(g, out / name)
        except OSError as exc:
            print(f"error: cannot write {out / name}: {exc}", file=sys.stderr)
            return 2
        seeds.append(seed)
        files.append(name)
    manifest = {
        "format": 1,
        "n_t": plan.config.n_t,
        "n_r": plan.config.n_r,
        "n_states": plan.config.n_states,
        "master_seed": plan.master_seed,
        "n_instances": plan.n_instances,
        "seeds": seeds,
        "files": files,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    _echo_config(args, cfg, plan, out)
    print(f"wrote {plan.n_instances} channel files and manifest.json to {out}")
    return 0


def cmd_solve(args) -> int:
    cfg = _resolved_config(args)
    g = _read_channel(args.channel)
    if args.dump_trajectory and args.stride < 1:
        _fail(f"--stride must be >= 1 to dump a trajectory, got {args.stride}")
    plan, _ = _one_weight_plan(cfg, g.config)
    if args.dump_trajectory:
        # checked before solving, but not created: exit 3 writes nothing
        _check_writable(args.dump_trajectory)
    lam, params, seed = plan.lambdas[0], plan.cim, plan.master_seed
    result = bench.run_instance(g, lam, params, seed)
    report = {
        "format": 1,
        "channel": str(args.channel),
        "channel_seed": g.seed,
        "lambda": lam,
        "seed": seed,
        "assignment": {"tx": list(result.best_assignment.tx), "rx": list(result.best_assignment.rx)},
        "objective": result.best,
        "feasibility_rate": result.p_c,
        "n_anneals": result.n_anneals,
        "n_feasible": result.n_feasible,
        "n_aborted": result.n_aborted,
        "fallback_used": result.fallback_used,
        "average_objective": result.avg,
    }
    if args.dump_trajectory:
        inst = compile_instance(g, lam)
        # anneal 0 of a one-anneal solve is anneal 0 of the full batch
        (outcome,) = solve(
            inst, dataclasses.replace(params, n_anneals=1), bench.cim_master_seed(seed),
            record_every=args.stride,
        )
        if outcome.aborted:
            print("error: anneal 0 aborted", file=sys.stderr)
            return 3
        try:
            write_trajectory_csv(outcome, inst, params, args.dump_trajectory)
        except OSError as exc:
            _fail(f"cannot write {args.dump_trajectory}: {exc}")
    text = json.dumps(report, indent=1)
    if args.out:
        out = _out_dir(args, "solve")
        with open(out / "solution.json", "w") as fh:
            fh.write(text + "\n")
        _echo_config(args, cfg, plan, out)
    print(text)
    if result.n_aborted == result.n_anneals:
        print("error: every anneal aborted", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    """``sweep`` and ``compare``: final-readout metrics at every weight;
    ``compare`` also notes a skipped exhaustive search and prints a table."""
    cfg = _resolved_config(args)
    if "lambda" in cfg:
        _fail(f"config key 'lambda' is not read by {args.command}; "
              "give its weights as 'lambdas'")
    plan, workers = _plan(cfg)
    out = _out_dir(args, args.command)
    result = bench.sweep_lambda(plan, workers=workers)
    summaries = bench.summarize_comparison(result)
    bench.write_metric_rows(result.rows, out / "results.csv")
    bench.write_summary_json(summaries, out / "summary.json")
    if args.plot_data:
        _write_table(out / "plot_lambda_e.csv", "lambda,method,e_rho",
                     (f"{s.lam!r},{s.method},{s.e_rho!r}" for s in summaries))
        _write_table(out / "plot_lambda_pc.csv", "lambda,method,p_c",
                     (f"{s.lam!r},{s.method},{s.p_c!r}" for s in summaries))
    if args.command == "sweep":
        print(f"swept {len(plan.lambdas)} penalty weights over {len(result.records)} "
              f"instances -> {out}")
    else:
        size = search_space_size(plan.config)
        if size > plan.es_budget:
            print(f"note: exhaustive search skipped "
                  f"({size} combinations exceed budget {plan.es_budget})")
        widths = max((len(s.method) for s in summaries), default=6)
        print(f"{'method':<{widths}}  lambda  e_rho     stderr    p_c")
        for s in summaries:
            print(f"{s.method:<{widths}}  {s.lam:<6.3g}  {s.e_rho:<8.5g}  {s.stderr:<8.3g}  "
                  f"{s.p_c:.4g}")
    return _finish_harness(args, cfg, plan, out, result)


def cmd_trace(args) -> int:
    cfg = _resolved_config(args)
    plan, workers = _one_weight_plan(cfg)
    out = _out_dir(args, "trace")
    result = bench.time_trace(plan, workers=workers)
    bench.write_metric_rows(result.rows, out / "trace.csv")
    bench.write_trace_summary_json(result, out / "trace_summary.json")
    if args.plot_data:
        _write_table(out / "plot_step_e.csv", "step,method,e_rho",
                     (f"{s.step},{method},{value!r}" for s in result.step_summaries
                      for method, value in (("cim_best", s.e_rho_best), ("cim_avg", s.e_rho_avg))))
        _write_table(out / "plot_step_pc.csv", "step,p_c",
                     (f"{s.step},{s.p_c!r}" for s in result.step_summaries))
    print(f"traced {len(result.step_summaries)} sampled steps at lambda={result.lam} -> {out}")
    return _finish_harness(args, cfg, plan, out, result)


def cmd_export_ising(args) -> int:
    cfg = _resolved_config(args)
    g = _read_channel(args.channel)
    plan, _ = _one_weight_plan(cfg, g.config)
    inst = compile_instance(g, plan.lambdas[0])
    try:
        write_instance(inst, args.output)
    except OSError as exc:
        _fail(f"cannot write {args.output}: {exc}")
    print(f"wrote Ising instance (dim {inst.dim}, lambda {inst.lam}) to {args.output}")
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=_env_default("seed"),
                   help="master seed (env CIMSEL_SEED)")
    p.add_argument("--workers", type=int, default=_env_default("workers"),
                   help="parallel instance workers (env CIMSEL_WORKERS)")
    p.add_argument("--out", default=_env_default("out"),
                   help="output directory (env CIMSEL_OUT)")
    p.add_argument("--config", default=_env_default("config"),
                   help="JSON config file; flags override it (env CIMSEL_CONFIG)")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-t", dest="n_t", type=int, help="transmit antennas")
    p.add_argument("--n-r", dest="n_r", type=int, help="receive antennas")
    p.add_argument("--n-states", dest="n_states", type=int, help="configurations per antenna")


def _add_cim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", dest="cim_steps", type=int, help="integration steps")
    p.add_argument("--anneals", dest="cim_n_anneals", type=int, help="anneals per instance")
    p.add_argument("--dt", dest="cim_dt", type=float, help="integration step size")


def _parse_lambdas(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse lambda list {raw!r}")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """The flag set of ``sweep`` and ``compare``, which both run :func:`cmd_sweep`."""
    _add_common_flags(p)
    _add_problem_flags(p)
    _add_cim_flags(p)
    p.add_argument("--n-instances", dest="n_instances", type=int)
    p.add_argument("--lambdas", type=_parse_lambdas, help="comma-separated weights, e.g. 0.1,0.5,0.9")
    p.add_argument("--es-budget", dest="es_budget", type=int)
    p.add_argument("--plot-data", action="store_true", help="also emit tidy plot tables")
    p.set_defaults(func=cmd_sweep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimsel",
        description="Ising-machine antenna-configuration selection: generate channels, "
                    "compile instances, solve, sweep, trace and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write channel instance files plus a seed manifest")
    _add_common_flags(p)
    _add_problem_flags(p)
    p.add_argument("--n-instances", dest="n_instances", type=int, help="number of files")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one channel file")
    _add_common_flags(p)
    _add_cim_flags(p)
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--lam", type=float, help="penalty weight in [0, 1]")
    p.add_argument("--dump-trajectory", metavar="PATH", help="write anneal 0's readout trajectory CSV")
    p.add_argument("--stride", type=int, default=10, help="trajectory sampling stride")
    p.set_defaults(func=cmd_solve)

    _add_sweep_flags(sub.add_parser("sweep", help="sweep penalty weights over many instances"))

    p = sub.add_parser("trace", help="per-step metrics along the solver dynamics")
    _add_common_flags(p)
    _add_problem_flags(p)
    _add_cim_flags(p)
    p.add_argument("--n-instances", dest="n_instances", type=int)
    p.add_argument("--lam", type=float, help="penalty weight to trace")
    p.add_argument("--stride", dest="trace_stride", type=int, help="readout sampling stride")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_trace)

    _add_sweep_flags(sub.add_parser("compare", help="method comparison table at fixed weights"))

    p = sub.add_parser("export-ising", help="compile a channel file to an Ising instance JSON")
    _add_common_flags(p)
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("output", help="instance JSON path")
    p.add_argument("--lam", type=float, help="penalty weight in [0, 1]")
    p.set_defaults(func=cmd_export_ising)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
