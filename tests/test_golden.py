"""Golden output digests of small fixed plans and of one fixed channel.

Any change to the solver, the harness or the writers that alters a single
output byte fails here.  The digests were recorded before the in-place
integrator landed and must stay valid across refactors and perf work; a
change that moves them on purpose (a new output column, a different solver)
must say so and re-record them.
"""

import hashlib

import pytest

from cimsel import cli

GOLDEN = {
    "sweep": (
        ["sweep", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--n-instances", "20",
         "--lambdas", "0.1,0.5,0.9", "--anneals", "200", "--seed", "5"],
        {
            "results.csv":
                "d7cfecbdb146570579217515993487667a92fa2ff68aa4c8a1128ad18dd39206",
            "summary.json":
                "8a4ebea92d98bed898bec4214126dab3f3924dbbd0dac2d5d0656901b26b205a",
            "run_config.json":
                "30454d023a21323c6927a9b391ae9213d40ae925049bdf8a7eac845432ff1323",
            "run.log":
                "fbed18de3941127adf87a81d7caf5c4b2023972229419d9b61c7db8e681aba5a",
        },
    ),
    "trace": (
        ["trace", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--n-instances", "20",
         "--lam", "0.8", "--stride", "10", "--anneals", "200", "--seed", "5"],
        {
            "trace.csv":
                "7d119752d09e36c5f9056e55c92cd5c92bc15a2dd22a1745fc6a3e9eb5652a4c",
            "trace_summary.json":
                "e459922d2cb6a637594edb7d58442406b1c2746a73bf80e536a2cefd59e36dac",
        },
    ),
    "compare": (
        ["compare", "--n-t", "4", "--n-r", "4", "--n-states", "4", "--n-instances", "3",
         "--lambdas", "0.7", "--anneals", "200", "--seed", "5"],
        {
            "results.csv":
                "cf0af4336599cb307ce5d728a3d42b3040982d22b9beaabc4d2e47b100e8db82",
            "summary.json":
                "2d5fa560e02451dca2096528ffa3f74140e0a5ab77f8a1b4603f13a66ccc01d1",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(name, tmp_path):
    argv, digests = GOLDEN[name]
    out = tmp_path / name
    assert cli.main(argv + ["--workers", "1", "--out", str(out)]) == 0
    assert (out / "run.log").read_text() == "all instances completed\n"
    got = {fname: _sha256(out / fname) for fname in digests}
    assert got == digests


# the --plot-data tables of the plans above: keyed by the plan's name
PLOT_DATA = {
    "sweep": {
        "plot_lambda_e.csv":
            "abcd445f23ab6f780ee5a27130487fd7e3acad83555cc0756998d0d639056449",
        "plot_lambda_pc.csv":
            "ca8c9b08a8453749cb2bde5ee8115686711e2fee165d1d2b34ea40095d2d0fb4",
    },
    "trace": {
        "plot_step_e.csv":
            "a02340ab2dde7e0e163f9f47b3d86eab7394ab93ad7f482e79104ed760e3f41b",
        "plot_step_pc.csv":
            "2979cabb9b5c00e8a83294c0310a0d8a0d6fb5c4c2b0753204c8ff73b70f334f",
    },
    "compare": {
        "plot_lambda_e.csv":
            "9f5847ae40b42de5805359d27487a9b15703276efb09c51073c78479ebe41dde",
        "plot_lambda_pc.csv":
            "48769ffbd88cc86afc95ae986113f8a860dff7befa30a6d9ebf26c5e08957f8c",
    },
}


@pytest.mark.parametrize("name", sorted(PLOT_DATA))
def test_plot_data_digests(name, tmp_path):
    argv, digests = GOLDEN[name]
    out = tmp_path / name
    assert cli.main(argv + ["--workers", "1", "--out", str(out), "--plot-data"]) == 0
    # the plot tables are extra files: the pinned outputs stay as they are
    assert {fname: _sha256(out / fname) for fname in digests} == digests
    got = {path.name: _sha256(path) for path in out.glob("plot_*.csv")}
    assert got == PLOT_DATA[name]


# single-file outputs of one fixed generated channel: ``channel`` and
# ``target`` are the channel file and the path the command writes
SINGLE_FILE = {
    "export-ising": (
        lambda channel, target: ["export-ising", channel, target, "--lam", "0.3"],
        "a66b16276f07b249876eafc4c205fea4c4453adace3e717d7935c3f9d41a8686",
    ),
    "solve-trajectory": (
        lambda channel, target: ["solve", channel, "--lam", "0.8", "--anneals", "200",
                                 "--seed", "5", "--stride", "10", "--dump-trajectory", target],
        "29d8cbefa7781913cc1e50ab0fb422ff9a323f0b439f56b1cdbfbc6a78950fce",
    ),
}


@pytest.mark.parametrize("name", sorted(SINGLE_FILE))
def test_single_file_digests(name, tmp_path):
    argv, digest = SINGLE_FILE[name]
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--seed", "5",
                     "--out", str(gen)]) == 0
    target = tmp_path / "output"
    assert cli.main(argv(str(gen / "channel_00000.json"), str(target))) == 0
    assert _sha256(target) == digest


# the files of ``gen`` and of ``solve --out``, run from inside the test's
# directory so that the channel path ``solution.json`` records is relative
GEN_SOLVE = {
    "gen/channel_00000.json":
        "b2c966e99b6ae99a12518384d93e990c4539bbf9e1fa3787062e25470b8bf9fc",
    "gen/manifest.json":
        "518aaedb313e658b08c7376304784de7bb58be2070d5c91c3321783b2372bf3d",
    "solve/solution.json":
        "36a8efd9ce2a5a677213ff0572b686b28af998f45eaa8d63a919410e9bb1f7f8",
}


def test_gen_and_solve_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--seed", "5",
                     "--out", "gen"]) == 0
    assert cli.main(["solve", "gen/channel_00000.json", "--lam", "0.8", "--anneals", "200",
                     "--seed", "5", "--out", "solve"]) == 0
    assert {fname: _sha256(tmp_path / fname) for fname in GEN_SOLVE} == GEN_SOLVE
