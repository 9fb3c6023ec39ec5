import hashlib
import json

import pytest

from cimsel import cli
from cimsel.baselines import search_space_size
from cimsel.channel import MimoConfig, read_channel
from oracles import read_instance


def run_cli(*argv):
    return cli.main(list(argv))


def gen_args(out, n_instances=3, seed=11, n=(2, 2, 2)):
    return [
        "gen", "--n-t", str(n[0]), "--n-r", str(n[1]), "--n-states", str(n[2]),
        "--n-instances", str(n_instances), "--seed", str(seed), "--out", str(out),
    ]


SMALL = ("--n-t", "2", "--n-r", "2", "--n-states", "2", "--n-instances", "1",
         "--steps", "20", "--anneals", "2")
# the config-file form of SMALL
SMALL_CONFIG = {"n_t": 2, "n_r": 2, "n_states": 2, "n_instances": 1,
                "cim": {"steps": 20, "n_anneals": 2}}


def _channel_file(tmp_path):
    run_cli(*gen_args(tmp_path / "gen", n_instances=1))
    return str(tmp_path / "gen" / "channel_00000.json")


def _edited_channel(tmp_path, edit):
    path = _channel_file(tmp_path)
    with open(path) as fh:
        raw = json.load(fh)
    edit(raw)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def _config_file(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _channel_payload(tmp_path, payload):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _file_at_out(tmp_path, argv):
    # TestBadInput passes ``tmp_path / "run"`` as ``--out``
    (tmp_path / "run").write_text("not a directory\n")
    return argv


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        assert run_cli(*gen_args(out)) == 0
        files = sorted(p.name for p in out.glob("channel_*.json"))
        assert files == ["channel_00000.json", "channel_00001.json", "channel_00002.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == 1
        assert len(manifest["seeds"]) == manifest["n_instances"] == 3
        assert manifest["files"] == files
        assert (out / "run_config.json").exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*gen_args(a))
        run_cli(*gen_args(b))
        for name in ("channel_00000.json", "channel_00001.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_files_parse_and_match_manifest_seeds(self, tmp_path):
        out = tmp_path / "gen"
        run_cli(*gen_args(out))
        manifest = json.loads((out / "manifest.json").read_text())
        for name, seed in zip(manifest["files"], manifest["seeds"]):
            g = read_channel(out / name)
            assert g.seed == seed
            assert g.config == MimoConfig(2, 2, 2)


class TestSolve:
    @pytest.fixture()
    def channel_file(self, tmp_path):
        out = tmp_path / "gen"
        run_cli(*gen_args(out, n_instances=1))
        return out / "channel_00000.json"

    def test_degenerate_instance_reports_unique_assignment(self, tmp_path, capsys):
        out = tmp_path / "gen1"
        run_cli(*gen_args(out, n_instances=1, n=(1, 1, 1)))
        capsys.readouterr()  # drop the gen message
        code = run_cli("solve", str(out / "channel_00000.json"), "--lam", "0.5",
                       "--steps", "50", "--anneals", "5", "--seed", "3")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["assignment"] == {"tx": [0], "rx": [0]}
        assert report["feasibility_rate"] == 1.0

    def test_repeat_solve_identical_report(self, channel_file, capsys):
        args = ("solve", str(channel_file), "--lam", "0.6", "--steps", "150",
                "--anneals", "10", "--seed", "21")
        run_cli(*args)
        first = capsys.readouterr().out
        run_cli(*args)
        second = capsys.readouterr().out
        assert first == second

    def test_dump_trajectory(self, channel_file, tmp_path, capsys):
        # a stride that divides the step count, and one that leaves the
        # last step off the stride grid
        for steps, stride, want_steps, digest in [
            (100, 25, [0, 25, 50, 75, 100],
             "d6515f813404f8fdf6cfa47cd03e8f9ac47c814832917c4614b5169e86eda71f"),
            (25, 10, [0, 10, 20, 25],
             "5b3720c9b7d809471fca4974db52577d607248fbf31f07cfb3a7895842dd38f0"),
        ]:
            target = tmp_path / f"traj-{steps}-{stride}.csv"
            code = run_cli("solve", str(channel_file), "--lam", "0.4", "--steps", str(steps),
                           "--anneals", "5", "--seed", "1", "--stride", str(stride),
                           "--dump-trajectory", str(target))
            assert code == 0
            lines = target.read_text().splitlines()
            assert lines[0].startswith("step,t,s0")
            rows = [line.split(",") for line in lines[1:]]
            # one line per readout step, at model time t = k * dt
            assert [int(row[0]) for row in rows] == want_steps
            assert [float(row[1]) for row in rows] == [k * 0.01 for k in want_steps]
            # pinned bytes: a change that moves them must say so and re-record
            assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_dump_trajectory_aborted_anneal(self, channel_file, tmp_path, capsys):
        # at full penalty weight, dt = 50 drives every anneal non-finite
        # within the default 1000 steps (at 100 steps none aborts)
        target = tmp_path / "traj.csv"
        code = run_cli("solve", str(channel_file), "--lam", "1.0", "--dt", "50",
                       "--anneals", "5", "--seed", "1", "--dump-trajectory", str(target))
        assert code == 3
        assert "error: anneal 0 aborted" in capsys.readouterr().err
        assert not target.exists()

    def test_unwritable_trajectory_fails_before_solving(self, channel_file, tmp_path, capsys,
                                                         monkeypatch):
        def no_solve(*args, **kwargs):
            raise RuntimeError("run_instance ran before the path check")

        monkeypatch.setattr(cli.bench, "run_instance", no_solve)
        target = tmp_path / "absent" / "t.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", str(channel_file), "--lam", "0.5", "--dump-trajectory", str(target))
        assert exc.value.code == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_file_at_out_fails_before_solving(self, channel_file, tmp_path, capsys,
                                              monkeypatch):
        def no_solve(*args, **kwargs):
            raise RuntimeError("run_instance ran before the output directory was made")

        monkeypatch.setattr(cli.bench, "run_instance", no_solve)
        out = tmp_path / "run"
        out.write_text("not a directory\n")
        target = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", str(channel_file), "--lam", "0.5", "--out", str(out),
                    "--dump-trajectory", str(target))
        assert exc.value.code == 2
        assert f"error: cannot make output directory {out}" in capsys.readouterr().err
        assert not target.exists() and out.is_file()

    def test_config_file_stride(self, channel_file, tmp_path):
        config = _config_file(tmp_path, {"trace_stride": 5})
        target = tmp_path / "traj.csv"
        assert run_cli("solve", str(channel_file), "--lam", "0.5", "--steps", "20",
                       "--anneals", "2", "--config", config,
                       "--dump-trajectory", str(target)) == 0
        steps = [line.split(",")[0] for line in target.read_text().splitlines()[1:]]
        assert steps == ["0", "5", "10", "15", "20"]

    def test_stride_echoed_and_replayed(self, channel_file, tmp_path, capsys):
        # replaying run_config.json rewrites the trajectory byte for byte
        out, first, second = tmp_path / "run", tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("solve", str(channel_file), "--lam", "0.5", "--steps", "30",
                       "--anneals", "2", "--seed", "4", "--stride", "7", "--out", str(out),
                       "--dump-trajectory", str(first)) == 0
        assert json.loads((out / "run_config.json").read_text())["trace_stride"] == 7
        steps = [line.split(",")[0] for line in first.read_text().splitlines()[1:]]
        assert steps == ["0", "7", "14", "21", "28", "30"]
        assert run_cli("solve", str(channel_file), "--config", str(out / "run_config.json"),
                       "--dump-trajectory", str(second)) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_malformed_file_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_t": 1, "n_r": 1, "seed": 0, "entries": [[]]}))
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", str(bad), "--lam", "0.5")
        assert exc.value.code == 2
        assert "n_states" in capsys.readouterr().err


class TestSweep:
    def test_rows_per_method_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--n-t", "2", "--n-r", "2", "--n-states", "2",
            "--n-instances", "10", "--lambdas", "0,0.5,1", "--steps", "200",
            "--anneals", "50", "--seed", "4", "--out", str(out), "--plot-data",
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        body = [line.split(",") for line in lines[2:]]
        for method in ("es", "nsa", "rs", "cim_best", "cim_avg"):
            lams = {row[2] for row in body if row[1] == method}
            assert lams == {"0.0", "0.5", "1.0"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["format"] == 1
        assert (out / "run.log").read_text().strip() == "all instances completed"
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["command"] == "sweep" and echoed["master_seed"] == 4
        plot = (out / "plot_lambda_e.csv").read_text().splitlines()
        assert plot[0] == "lambda,method,e_rho"

    def test_checks_dominance(self, tmp_path, monkeypatch):
        # a sweep whose best-of-anneals falls below its average is a bug,
        # caught by the same check compare runs
        real = cli.bench.sweep_lambda

        def broken(plan, workers=1):
            result = real(plan, workers)
            res = result.records[0].cim[plan.lambdas[0]]
            res.best = res.avg - 1.0
            return result

        monkeypatch.setattr(cli.bench, "sweep_lambda", broken)
        with pytest.raises(cli.bench.DominanceError, match="below average"):
            run_cli("sweep", *SMALL, "--lambdas", "0.5", "--out", str(tmp_path / "run"))

    def test_byte_identical_reruns(self, tmp_path):
        args = lambda d: [
            "sweep", "--n-t", "2", "--n-r", "2", "--n-states", "2",
            "--n-instances", "4", "--lambdas", "0.3,0.7", "--steps", "150",
            "--anneals", "10", "--seed", "8", "--out", str(d),
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*args(a))
        run_cli(*args(b))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n_t": 2, "n_r": 2, "n_states": 2, "n_instances": 2,
            "lambdas": [0.5], "master_seed": 5,
            "cim": {"steps": 100, "n_anneals": 5},
        }))
        out = tmp_path / "run"
        code = run_cli("sweep", "--config", str(cfg), "--n-instances", "3", "--out", str(out))
        assert code == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["n_instances"] == 3  # flag wins
        assert echoed["cim"]["steps"] == 100
        lines = (out / "results.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in lines[2:]} == {"0", "1", "2"}


class TestConfigFile:
    BASE = {"n_t": 2, "n_r": 2, "n_states": 2, "n_instances": 2, "lambdas": [0.5],
            "cim": {"steps": 50, "n_anneals": 5}}

    def sweep(self, tmp_path, payload):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        return run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "run"))

    @pytest.mark.parametrize("key", ["lamdas", "n_anneal", "seed"])
    def test_unknown_top_level_key(self, tmp_path, capsys, key):
        with pytest.raises(SystemExit) as exc:
            self.sweep(tmp_path, dict(self.BASE, **{key: 1}))
        assert exc.value.code == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["n_anneal", "lamdas", "gama"])
    def test_unknown_cim_key(self, tmp_path, capsys, key):
        with pytest.raises(SystemExit) as exc:
            self.sweep(tmp_path, dict(self.BASE, cim={"steps": 50, key: 3}))
        assert exc.value.code == 2
        assert f"unknown key 'cim.{key}'" in capsys.readouterr().err

    def test_bad_cim_value_names_field(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.sweep(tmp_path, dict(self.BASE, cim={"steps": 2.5}))
        assert exc.value.code == 2
        assert "steps must be an integer" in capsys.readouterr().err

    def test_run_config_round_trip(self, tmp_path, capsys):
        assert self.sweep(tmp_path, self.BASE) == 0
        first = tmp_path / "run"
        echoed = first / "run_config.json"
        again = tmp_path / "again"
        code = run_cli("sweep", "--config", str(echoed), "--out", str(again))
        assert code == 0
        assert (again / "run_config.json").read_bytes() == echoed.read_bytes()
        assert (again / "results.csv").read_bytes() == (first / "results.csv").read_bytes()
        # an echoed config names the command of the run that loads it
        code = run_cli("trace", "--config", str(echoed), "--out", str(tmp_path / "trace"))
        assert code == 0
        echoed_trace = json.loads((tmp_path / "trace" / "run_config.json").read_text())
        assert echoed_trace["command"] == "trace"


class TestBadInput:
    """Bad outside input exits 2 with an ``error:`` line, never a traceback,
    and before any output directory is made."""

    @pytest.mark.parametrize("argv,env,message", [
        pytest.param(lambda tmp: ["sweep", *SMALL, "--lambdas", "1.5"], {},
                     "penalty weights must lie in [0, 1]", id="sweep-lambdas"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--lam", "1.5"], {},
                     "penalty weights must lie in [0, 1]", id="solve-lam"),
        pytest.param(lambda tmp: ["sweep", *SMALL, "--lambdas", "0.5,0.5"], {},
                     "penalty weights must be distinct", id="sweep-lambdas-duplicate"),
        pytest.param(lambda tmp: ["sweep", *SMALL, "--n-instances", "0"], {},
                     "n_instances must be >= 1", id="n-instances-0"),
        pytest.param(lambda tmp: ["trace", *SMALL, "--stride", "0"], {},
                     "trace_stride must be >= 1", id="trace-stride-0"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--stride", "0",
                                  "--dump-trajectory", str(tmp / "f.csv")], {},
                     "trace_stride must be >= 1", id="solve-stride-0"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--stride", "0"], {},
                     "trace_stride must be >= 1", id="solve-stride-0-no-trajectory"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(tmp, [1, 2])], {},
                     "must be JSON objects", id="config-top-level-list"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(tmp, {"cim": [1]})], {},
                     "must be JSON objects", id="config-cim-list"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, {"n_t": "two", "n_r": 2, "n_states": 2})], {},
                     "n_t must be an integer, got 'two'", id="config-n-t-string"),
        pytest.param(lambda tmp: ["sweep", *SMALL], {"CIMSEL_SEED": "abc"},
                     "invalid int value: 'abc'", id="env-seed"),
        pytest.param(lambda tmp: ["sweep", "--n-r", "2", "--n-states", "2"], {},
                     "missing problem dimension 'n_t'", id="missing-dimension"),
        pytest.param(lambda tmp: ["sweep", "--config", str(tmp / "absent.json")], {},
                     "cannot read config file", id="unreadable-config"),
        pytest.param(lambda tmp: ["sweep", *SMALL, "--seed", "-1"], {},
                     "master_seed must be >= 0", id="sweep-seed-negative"),
        pytest.param(lambda tmp: ["gen", "--n-t", "2", "--n-r", "2", "--n-states", "2",
                                  "--seed", "-1"], {},
                     "master_seed must be >= 0", id="gen-seed-negative"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--seed", "-1"], {},
                     "master_seed must be >= 0", id="solve-seed-negative"),
        pytest.param(lambda tmp: ["sweep", *SMALL, "--workers", "0"], {},
                     "workers must be >= 1, got 0", id="workers-0"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, n_instances=2.5))], {},
                     "n_instances must be an integer, got 2.5", id="config-n-instances-float"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, master_seed=1.7))], {},
                     "master_seed must be an integer, got 1.7", id="config-master-seed-float"),
        pytest.param(lambda tmp: ["trace", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, trace_stride=2.9))], {},
                     "trace_stride must be an integer, got 2.9", id="config-trace-stride-float"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, workers=True))], {},
                     "workers must be an integer, got True", id="config-workers-bool"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, cim={"dt": True}))], {},
                     "dt must be a finite number, got True", id="config-cim-dt-bool"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, cim={"p": "0.9"}))], {},
                     "p must be a finite number, got '0.9'", id="config-cim-p-string"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, cim={"x_clip": None}))], {},
                     "x_clip must be a finite number, got None", id="config-cim-x-clip-null"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, dict(SMALL_CONFIG, lambdas=0.5))], {},
                     "lambdas must be a list or tuple, got 0.5", id="config-lambdas-number"),
        pytest.param(lambda tmp: _file_at_out(tmp, ["sweep", *SMALL]), {},
                     "cannot make output directory", id="out-is-a-file"),
        pytest.param(lambda tmp: ["sweep", "--config", _config_file(
                         tmp, {**SMALL_CONFIG, "lambda": 0.9})], {},
                     "config key 'lambda'", id="config-lambda-sweep"),
        pytest.param(lambda tmp: ["compare", "--config", _config_file(
                         tmp, {**SMALL_CONFIG, "lambda": 0.9})], {},
                     "config key 'lambda'", id="config-lambda-compare"),
        pytest.param(lambda tmp: ["solve", _edited_channel(tmp, lambda raw: raw.update(seed=1.7))],
                     {}, "field 'seed' must be a non-negative integer", id="channel-seed-float"),
        pytest.param(lambda tmp: ["solve", _edited_channel(tmp, lambda raw: raw.update(seed=True))],
                     {}, "field 'seed' must be a non-negative integer", id="channel-seed-bool"),
        pytest.param(lambda tmp: ["solve", _edited_channel(tmp, lambda raw: raw.update(seed=-1))],
                     {}, "field 'seed' must be a non-negative integer", id="channel-seed-negative"),
        pytest.param(lambda tmp: ["solve", _edited_channel(
                         tmp, lambda raw: raw["entries"][0][0].update(re=True))], {},
                     "re/im objects of numbers", id="channel-re-bool"),
        pytest.param(lambda tmp: ["solve", _edited_channel(
                         tmp, lambda raw: raw["entries"][0][0].update(re=10 ** 400))], {},
                     "re/im objects of numbers", id="channel-re-int-overflow"),
        pytest.param(lambda tmp: ["solve", _edited_channel(tmp, lambda raw: raw.update(entries=5))],
                     {}, "field 'entries' must be 4 rows of 4 columns", id="channel-entries-not-list"),
        pytest.param(lambda tmp: ["solve", _edited_channel(
                         tmp, lambda raw: raw["entries"][0][0].update(re=1e200))], {},
                     "finite", id="channel-entry-huge-solve"),
        pytest.param(lambda tmp: ["export-ising", _edited_channel(
                         tmp, lambda raw: raw["entries"][0][0].update(re=1e200)),
                                  str(tmp / "ising.json")], {},
                     "finite", id="channel-entry-huge-export"),
        pytest.param(lambda tmp: ["solve", _channel_payload(tmp, 5)], {},
                     "the top level must be a JSON object", id="channel-top-level-int"),
        pytest.param(lambda tmp: ["solve", _channel_payload(tmp, "channel")], {},
                     "the top level must be a JSON object", id="channel-top-level-string"),
        pytest.param(lambda tmp: ["solve", _channel_payload(tmp, [1, 2])], {},
                     "the top level must be a JSON object", id="channel-top-level-list"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--steps", "20", "--anneals", "2",
                                  "--dump-trajectory", str(tmp / "absent" / "t.csv")], {},
                     "cannot write", id="trajectory-missing-directory"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--steps", "20", "--anneals", "2",
                                  "--dump-trajectory", str(tmp)], {},
                     "cannot write", id="trajectory-is-a-directory"),
        pytest.param(lambda tmp: ["export-ising", _channel_file(tmp),
                                  str(tmp / "absent" / "inst.json")], {},
                     "cannot write", id="export-missing-directory"),
        pytest.param(lambda tmp: ["export-ising", _channel_file(tmp), str(tmp)], {},
                     "cannot write", id="export-is-a-directory"),
        pytest.param(lambda tmp: ["solve", _channel_file(tmp), "--config", _config_file(
                         tmp, {"cim": {"init_scale": 1e308}})], {},
                     "init_scale", id="config-init-scale-overflow-solve"),
        pytest.param(lambda tmp: ["sweep", *SMALL, "--config", _config_file(
                         tmp, {"cim": {"init_scale": 1e308}})], {},
                     "init_scale", id="config-init-scale-overflow-sweep"),
    ])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, argv, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "run"
        argv = argv(tmp_path)
        existed = out.exists()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err
        # no output directory is made; a file already at --out stays a file
        assert out.exists() == existed and not out.is_dir()


def _failing_instance(monkeypatch, exc):
    """Make instance 0 of every run raise ``exc``; the others run as usual."""
    real = cli.bench._instance_record

    def record(plan, instance_id, record_every):
        if instance_id == 0:
            raise exc
        return real(plan, instance_id, record_every)

    monkeypatch.setattr(cli.bench, "_instance_record", record)


class TestInstanceFailures:
    """A sweep logs the errors one bad instance can raise and goes on; any
    other exception is a bug and ends the command."""

    ARGV = ("sweep", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--n-instances", "2",
            "--steps", "20", "--anneals", "2", "--lambdas", "0.5", "--workers", "1")

    @pytest.mark.parametrize("exc", [ValueError("bad value"), FloatingPointError("overflow"),
                                     ZeroDivisionError("empty")])
    def test_expected_error_is_logged(self, tmp_path, monkeypatch, exc):
        _failing_instance(monkeypatch, exc)
        out = tmp_path / "run"
        assert run_cli(*self.ARGV, "--out", str(out)) == 0
        assert (out / "run.log").read_text() == f"instance 0 failed: {exc!r}\n"
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows and {row.split(",")[0] for row in rows} == {"1"}

    @pytest.mark.parametrize("exc", [TypeError("bug"), AttributeError("bug"), KeyError("bug")])
    def test_programming_error_propagates(self, tmp_path, monkeypatch, exc):
        _failing_instance(monkeypatch, exc)
        with pytest.raises(type(exc), match="bug"):
            run_cli(*self.ARGV, "--out", str(tmp_path / "run"))


class TestTrace:
    def test_sampled_steps(self, tmp_path):
        out = tmp_path / "trace"
        code = run_cli(
            "trace", "--n-t", "2", "--n-r", "2", "--n-states", "2",
            "--n-instances", "3", "--lam", "0.7", "--steps", "1000",
            "--anneals", "10", "--stride", "100", "--seed", "2",
            "--out", str(out), "--plot-data",
        )
        assert code == 0
        summary = json.loads((out / "trace_summary.json").read_text())
        steps = [row["step"] for row in summary["rows"]]
        assert steps == list(range(0, 1001, 100))
        pc_lines = (out / "plot_step_pc.csv").read_text().splitlines()
        assert pc_lines[0] == "step,p_c"
        assert len(pc_lines) == 1 + len(steps)


class TestOneWeight:
    """``solve``, ``trace`` and ``export-ising`` run ``lambda`` when given,
    else the first of ``lambdas``."""

    def test_trace_runs_first_of_lambdas(self, tmp_path):
        config = _config_file(tmp_path, dict(SMALL_CONFIG, lambdas=[0.3, 0.7]))
        out = tmp_path / "trace"
        assert run_cli("trace", "--config", config, "--out", str(out)) == 0
        assert json.loads((out / "trace_summary.json").read_text())["lambda"] == 0.3

    @pytest.mark.parametrize("flags,lam", [((), 0.3), (("--lam", "0.6"), 0.6)])
    def test_export_runs_lambda_else_first_of_lambdas(self, tmp_path, capsys, flags, lam):
        config = _config_file(tmp_path, {"lambdas": [0.3, 0.7]})
        target = tmp_path / "ising.json"
        assert run_cli("export-ising", _channel_file(tmp_path), str(target),
                       "--config", config, *flags) == 0
        assert read_instance(target)[1] == lam


class TestCompare:
    def test_es_included_when_budget_passes(self, tmp_path, capsys):
        assert search_space_size(MimoConfig(4, 4, 4)) == 65_536 <= 2 ** 24
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--n-t", "2", "--n-r", "2", "--n-states", "2",
            "--n-instances", "3", "--lambdas", "0.6", "--steps", "150",
            "--anneals", "10", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "es" in {row["method"] for row in summary["rows"]}

    def test_es_skipped_over_budget(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--n-t", "2", "--n-r", "2", "--n-states", "2",
            "--n-instances", "2", "--lambdas", "0.6", "--steps", "100",
            "--anneals", "5", "--seed", "3", "--es-budget", "10", "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "exhaustive search skipped" in captured
        summary = json.loads((out / "summary.json").read_text())
        assert "es" not in {row["method"] for row in summary["rows"]}


class TestWorkerCounts:
    def test_compare_dim_33_byte_identical(self, tmp_path):
        # 1000 anneals make the step's matmul (1000, 33) @ (33, 33), a size
        # OpenBLAS splits across threads when allowed to
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            code = run_cli(
                "compare", "--n-t", "4", "--n-r", "4", "--n-states", "4",
                "--n-instances", "2", "--lambdas", "0.7", "--steps", "30",
                "--anneals", "1000", "--seed", "5", "--workers", str(workers),
                "--out", str(out),
            )
            assert code == 0
            files[workers] = [(out / name).read_bytes() for name in ("results.csv", "summary.json")]
        assert files[1] == files[2]


class TestExportIsing:
    def test_round_trip(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        run_cli(*gen_args(gen, n_instances=1))
        target = tmp_path / "ising.json"
        code = run_cli("export-ising", str(gen / "channel_00000.json"), str(target),
                       "--lam", "0.25")
        assert code == 0
        j, lam = read_instance(target)
        assert lam == 0.25 and j.shape == (9, 9)


class TestEnvOverrides:
    def test_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv("CIMSEL_SEED", "123")
        args = cli.build_parser().parse_args(["sweep"])
        assert args.seed == 123

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("CIMSEL_SEED", "123")
        args = cli.build_parser().parse_args(["sweep", "--seed", "9"])
        assert args.seed == 9
