import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cimsel import cim
from cimsel.bench import run_instance
from cimsel.channel import MimoConfig, generate_channel
from cimsel.cim import (
    E_FLOOR,
    CimParams,
    ising_energy,
    readout,
    solve,
    write_trajectory_csv,
)
from cimsel.cim import _EulerStep, _integrate
from cimsel.formulation import compile_instance, decode_states
from cimsel.rng import substream, uniform_table
from oracles import ReadoutLog, every_step_integrate, readout_steps, reference_integrate

FERRO2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _recorded_integrate(jm, x0, params, record_every=0):
    """``_integrate`` on a copy of ``x0``, with the readouts its observer
    sees stacked anneal-major: ``(x, aborted, trajectory)``, as
    ``oracles.every_step_integrate`` returns them; ``trajectory`` is
    ``None`` without ``record_every``, when the observer sees the final
    readout alone."""
    log = ReadoutLog()
    x, aborted = _integrate(jm, x0.copy(), params, record_every, log)
    assert log.readouts[-1].tobytes() == readout(x).tobytes()
    return x, aborted, log.table() if record_every else None


def _hooked_solve(j, params, master_seed, record_every):
    """``solve`` with the readouts its observer sees stacked anneal-major:
    ``(anneals, trajectories)``, ``trajectories`` of shape
    ``(n_anneals, len(readout_steps(...)), dim)``."""
    log = ReadoutLog()
    return solve(j, params, master_seed, record_every, observer=log), log.table()


class TestCimParams:
    def test_defaults(self):
        p = CimParams()
        assert (p.p, p.beta, p.a, p.gamma) == (0.98, 1.0, 2.0, 100.0)
        assert (p.dt, p.steps, p.n_anneals) == (0.01, 1000, 1000)

    @pytest.mark.parametrize(
        "bad",
        [dict(dt=0.0), dict(dt=-0.1), dict(steps=0), dict(n_anneals=0),
         dict(init_scale=0.0), dict(x_clip=1.0),
         dict(p=float("nan")), dict(dt=float("nan")), dict(beta=float("nan")),
         dict(gamma=float("inf")), dict(a=float("nan")), dict(init_scale=float("inf")),
         dict(x_clip=float("inf")), dict(p=float("-inf")),
         dict(n_anneals=2.5), dict(steps=True), dict(a=-1.0), dict(a=0.0),
         dict(n_anneals=False), dict(steps=np.float64(100.0)), dict(steps="100"),
         dict(p="0.9"), dict(dt=True), dict(x_clip=None), dict(init_scale=1e308)],
    )
    def test_validation(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            CimParams(**bad)

    def test_numpy_integer_run_sizes_accepted(self):
        p = CimParams(steps=np.int64(10), n_anneals=np.int32(3))
        assert (p.steps, p.n_anneals) == (10, 3)


def _kernel_run(jm, x0, params, e0=None, n_steps=1):
    """Advance one row through ``n_steps`` one-step spans of the step kernel;
    returns the ``(x, e)`` rows after each step."""
    kernel = _EulerStep(np.asarray(jm, dtype=float), np.array(x0, dtype=float)[None, :], params)
    if e0 is not None:
        kernel.e[0] = e0
    states = []
    for k in range(n_steps):
        kernel.advance(k, k + 1)
        states.append((kernel.x[0].copy(), kernel.e[0].copy()))
    return states


@pytest.fixture()
def first_step_state(monkeypatch):
    """Records, per ``solve`` call, the state handed to the kernel's first
    span and the model time its first step starts from."""
    seen = []

    class RecordingStep(_EulerStep):
        recorded = False

        def advance(self, k0, k1):
            if not self.recorded:
                self.recorded = True
                seen.append((self.x.copy(), self.e.copy(), k0 * self.dt))
            super().advance(k0, k1)

    monkeypatch.setattr(cim, "_EulerStep", RecordingStep)
    return seen


class TestInitState:
    """The state every anneal of ``solve`` starts from."""

    def test_bounds_and_error_variables(self, first_step_state):
        solve(np.zeros((50, 50)), CimParams(steps=1, n_anneals=3), master_seed=0)
        ((x, e, t),) = first_step_state
        assert x.shape == (3, 50)
        assert np.all(np.abs(x) <= 0.01)
        assert np.all(e == 1.0)
        assert t == 0.0

    def test_determinism(self, first_step_state):
        params = CimParams(steps=1, n_anneals=4)
        solve(FERRO2, params, master_seed=42)
        solve(FERRO2, params, master_seed=42)
        (first, _, _), (second, _, _) = first_step_state
        assert np.array_equal(first, second)
        # anneal k starts from the stream (master_seed, k)
        expected = np.stack([substream(42, k).uniform(-0.01, 0.01, 2) for k in range(4)])
        assert np.array_equal(first, expected)

    def test_sample_mean_near_zero(self, first_step_state):
        dim, n_anneals = 1000, 100
        solve(np.zeros((dim, dim)), CimParams(steps=1, n_anneals=n_anneals), master_seed=1)
        x = first_step_state[0][0]
        n = x.size
        stderr = 0.01 / np.sqrt(3.0) / np.sqrt(n)  # uniform(-s, s) has std s/sqrt(3)
        assert abs(x.mean()) < 3.0 * stderr


class TestStep:
    """The in-place step kernel on a batch of one."""

    def test_zero_amplitudes_fixed_point(self):
        params = CimParams()
        states = _kernel_run(np.zeros((3, 3)), np.zeros(3), params, n_steps=3)
        for k, (x, e) in enumerate(states, start=1):
            assert not x.any()
            growth = (1.0 + params.dt * params.beta * params.a) ** k
            assert e == pytest.approx(np.full(3, growth), rel=1e-12)

    def test_scalar_decay(self):
        params = CimParams()
        ((x, _),) = _kernel_run(np.zeros((1, 1)), [0.1], params)
        # dx/dt = (p-1)*x - x^3 = -0.002 - 0.001 = -0.003
        assert x[0] == pytest.approx(0.1 - 0.01 * 0.003, abs=1e-15)

    def test_coupling_vanishes_on_first_step(self):
        params = CimParams()
        x0 = np.array([0.1, -0.1])
        coupled = _kernel_run(FERRO2, x0, params, n_steps=2)
        uncoupled = _kernel_run(np.zeros((2, 2)), x0, params, n_steps=2)
        assert np.array_equal(coupled[0][0], uncoupled[0][0])
        # from t > 0 the coupling acts
        assert not np.array_equal(coupled[1][0], uncoupled[1][0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _integrate(FERRO2, np.zeros((1, 3)), CimParams(steps=5))
        with pytest.raises(ValueError):
            solve(np.zeros((3, 2)), CimParams(steps=5, n_anneals=1), master_seed=0)

    def test_error_floor_and_positivity(self):
        params = CimParams(dt=0.5, x_clip=10.0)
        states = _kernel_run(np.zeros((1, 1)), [5.0], params, e0=[1e-12], n_steps=20)
        assert all(e[0] >= E_FLOOR for _, e in states)

    def test_clamp_keeps_nan_and_bounds_inf(self):
        # x_sq overflows at +-1e200, so the cubic term sends those amplitudes
        # to -+inf before the clamp; a NaN error variable makes its amplitude
        # NaN, which the clamp must keep for solve's abort check
        params = CimParams()
        with np.errstate(over="ignore", invalid="ignore"):
            ((x, _),) = _kernel_run(np.zeros((3, 3)), [1.0, 1e200, -1e200], params,
                                    e0=[np.nan, 1.0, 1.0])
        assert np.isnan(x[0])
        assert x[1:].tolist() == [-params.x_clip, params.x_clip]

    def test_divergence_goes_non_finite(self):
        # uncoupled spins with a large dt: the amplitudes stay bounded while
        # the error variables overflow; the kernel itself never raises, and
        # solve flags the anneal aborted (see test_aborted_anneals_flagged_not_dropped)
        params = CimParams(dt=50.0, steps=10)
        with np.errstate(over="ignore", invalid="ignore"):
            states = _kernel_run(np.zeros((2, 2)), [0.01, -0.01], params, n_steps=200)
        assert not all(np.isfinite(x).all() and np.isfinite(e).all() for x, e in states)


@pytest.fixture()
def blas_threads():
    """The thread-count getter of the OpenBLAS numpy loaded, with the count
    set to 2 for the test and the previous count restored after it."""
    blas = cim._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in /proc/self/maps")
    get, set_ = blas
    caller = get()
    set_(2)
    yield get
    set_(caller)


class TestBlasThreads:
    """The integrator runs OpenBLAS on one thread and gives the caller's
    count back."""

    def test_caller_count_restored_after_exit_and_exception(self, blas_threads):
        with cim._one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2
        with pytest.raises(RuntimeError):
            with cim._one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == 2

    def test_one_thread_during_solve(self, blas_threads, monkeypatch):
        seen = []

        class RecordingStep(_EulerStep):
            def advance(self, k0, k1):
                seen.append((blas_threads(), k0, k1))
                super().advance(k0, k1)

        monkeypatch.setattr(cim, "_EulerStep", RecordingStep)
        # all three steps in one span, and, where a diverged row need not
        # stay non-finite, one span per step
        solve(FERRO2, CimParams(steps=3, n_anneals=2), master_seed=0)
        assert seen == [(1, 0, 3)]
        seen.clear()
        solve(FERRO2, CimParams(dt=50.0, steps=3, n_anneals=2), master_seed=0)
        assert seen == [(1, 0, 1), (1, 1, 2), (1, 2, 3)]
        assert blas_threads() == 2

    def test_caller_count_restored_when_solve_raises(self, blas_threads, monkeypatch):
        class FailingStep(_EulerStep):
            def advance(self, k0, k1):
                raise FloatingPointError("step failed")

        monkeypatch.setattr(cim, "_EulerStep", FailingStep)
        with pytest.raises(FloatingPointError):
            solve(FERRO2, CimParams(steps=3, n_anneals=2), master_seed=0)
        assert blas_threads() == 2

    def test_solve_unchanged_without_openblas(self, monkeypatch):
        params = CimParams(steps=200, n_anneals=8)
        found = solve(FERRO2, params, master_seed=4)
        monkeypatch.setattr(cim, "_openblas_threads", lambda: None)
        absent = solve(FERRO2, params, master_seed=4)
        assert np.array_equal(found.spins, absent.spins)


class TestRunAnneal:
    """Single anneals, run as ``solve`` with ``n_anneals=1``."""

    def test_zero_coupling(self):
        (out,) = solve(np.zeros((4, 4)), CimParams(steps=200, n_anneals=1), master_seed=3)
        assert ising_energy(np.zeros((4, 4)), out.spins) == 0.0
        assert set(np.unique(out.spins)) <= {-1, 1}
        assert not out.aborted

    def test_ferromagnetic_alignment(self):
        # the aligned states are the unique maxima of s J s: brute force
        pairs = [np.array(s) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        vals = [ising_energy(FERRO2, s) for s in pairs]
        assert sorted(vals) == [-2.0, -2.0, 2.0, 2.0]
        spins = solve(FERRO2, CimParams(steps=1000, n_anneals=100), master_seed=100).spins
        assert np.sum(spins[:, 0] == spins[:, 1]) >= 99

    def test_determinism(self):
        params = CimParams(steps=300, n_anneals=1)
        (a,) = solve(FERRO2, params, master_seed=7)
        (b,) = solve(FERRO2, params, master_seed=7)
        assert np.array_equal(a.spins, b.spins)
        assert ising_energy(FERRO2, a.spins) == ising_energy(FERRO2, b.spins)

    def test_trajectory_sampling(self):
        # the sample schedule against the reference integrator's
        for steps, record_every, expected in [
            (100, 30, [0, 30, 60, 90, 100]),        # stride does not divide steps
            (100, 100, [0, 100]),                   # stride equal to steps
            (100, 250, [0, 100]),                   # stride larger than steps
            (1000, 10, list(range(0, 1001, 10))),   # both endpoints included
        ]:
            params = CimParams(steps=steps, n_anneals=1)
            log = ReadoutLog()
            (out,) = solve(FERRO2, params, 1, record_every, observer=log)
            (trajectory,) = log.table()
            x0 = uniform_table(1, 1, -params.init_scale, params.init_scale, 2)
            _, _, ref_snaps, ref_steps = reference_integrate(FERRO2, x0, params, record_every)
            assert log.steps == ref_steps.tolist() == expected
            assert trajectory.shape == (len(expected), 2)
            assert np.array_equal(trajectory, np.where(ref_snaps[:, 0] >= 0.0, 1, -1))
            assert np.array_equal(trajectory[-1], out.spins)


class TestSaturationAndGauge:
    def test_uncoupled_amplitudes_stay_small(self):
        # below-threshold pump: with J = 0 the origin attracts
        params = CimParams(steps=1000)
        x0 = substream(2).uniform(-params.init_scale, params.init_scale, 6)
        states = _kernel_run(np.zeros((6, 6)), x0, params, n_steps=params.steps)
        assert all(np.max(np.abs(x)) < 1.0 for x, _ in states)

    def test_flip_of_initialisation_flips_readout(self):
        params = CimParams(steps=400)
        x0 = substream(5).uniform(-0.01, 0.01, (1, 2))
        xa, _ = _integrate(FERRO2, x0.copy(), params)
        xb, _ = _integrate(FERRO2, -x0, params)
        sa, sb = readout(xa[0]), readout(xb[0])
        assert np.array_equal(sa, -sb)
        assert ising_energy(FERRO2, sa) == ising_energy(FERRO2, sb)


class TestSolve:
    @pytest.mark.parametrize("init_scale,record_every", [(1e200, 0), (8.9e307, 2)])
    def test_overflowing_start_raises_no_warning(self, init_scale, record_every):
        # the kernel squares the start table as it is built; that overflow
        # is the divergence signal, inside the error-state guard like every
        # later one, at step 0's observer call too
        j = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=1), 0.5)
        params = CimParams(init_scale=init_scale, n_anneals=4, steps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            anneals = solve(j, params, 1, record_every, observer=ReadoutLog())
        assert len(anneals) == 4

    def test_single_anneal_matches_batch_anneal_0(self):
        # the contract behind cimsel solve --dump-trajectory
        params = CimParams(steps=300, n_anneals=6)
        batch, batch_traj = _hooked_solve(FERRO2, params, 11, 50)
        (single,), (single_traj,) = _hooked_solve(FERRO2, CimParams(steps=300, n_anneals=1),
                                                  11, 50)
        assert np.array_equal(batch[0].spins, single.spins)
        assert ising_energy(FERRO2, batch[0].spins) == ising_energy(FERRO2, single.spins)
        assert np.array_equal(batch_traj[0], single_traj)

    @pytest.mark.parametrize("dims,lam", [((2, 2, 2), 0.9), ((4, 4, 4), 0.7)])
    def test_paper_scale_anneal_0_readouts_match_single_anneal(self, dims, lam):
        # OpenBLAS rounds x @ J by row count, so anneal 0's amplitudes may
        # differ in the last bits between batch sizes; its readouts, which
        # cimsel solve --dump-trajectory writes, agree at every sample
        inst = compile_instance(generate_channel(MimoConfig(*dims), seed=7), lam)
        batch, batch_traj = _hooked_solve(inst, CimParams(), 1, 10)
        (single,), (single_traj,) = _hooked_solve(inst, CimParams(n_anneals=1), 1, 10)
        assert np.array_equal(batch_traj[0], single_traj)
        assert np.array_equal(batch[0].spins, single.spins)
        assert not batch[0].aborted and not single.aborted

    def test_start_table_is_the_kernels_x(self, monkeypatch):
        # x, e and the kernel's three work buffers are five (anneals, dim)
        # arrays; the start table is x itself, not a sixth beside them.
        # run_instance scores the final readout at the observer's last
        # call, after the kernel has dropped its work buffers, so scoring
        # adds nothing to that peak either
        tables, kernels = [], []

        def recording_table(*args):
            tables.append(uniform_table(*args))
            return tables[-1]

        class RecordingStep(_EulerStep):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        inst = compile_instance(generate_channel(MimoConfig(4, 4, 4), seed=3), 0.7)
        params = CimParams(steps=50, n_anneals=1000)
        with monkeypatch.context() as patch:
            patch.setattr(cim, "uniform_table", recording_table)
            patch.setattr(cim, "_EulerStep", RecordingStep)
            solve(inst, params, master_seed=1)
        assert kernels[0].x is tables[0]
        for dims in ((2, 2, 2), (4, 4, 4), (8, 8, 4)):
            g = generate_channel(MimoConfig(*dims), seed=3)
            inst = compile_instance(g, 0.7)
            for run in (lambda: solve(inst, params, master_seed=1),
                        lambda: run_instance(g, 0.7, params, seed=1)):
                tracemalloc.start()
                try:
                    run()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 5.75 * params.n_anneals * inst.dim * 8, (dims, peak)

    def test_each_anneal_matches_its_derived_stream(self):
        params = CimParams(steps=300, n_anneals=5)
        batch = solve(FERRO2, params, master_seed=23)
        for k, anneal in enumerate(batch):
            x0 = substream(23, k).uniform(-params.init_scale, params.init_scale, (1, 2))
            x, aborted = _integrate(FERRO2, x0, params)
            assert np.array_equal(anneal.spins, readout(x[0]))
            assert ising_energy(FERRO2, anneal.spins) == ising_energy(FERRO2, readout(x[0]))
            assert not aborted[0]

    def test_determinism_across_calls(self):
        params = CimParams(steps=200, n_anneals=8)
        a = solve(FERRO2, params, master_seed=1)
        b = solve(FERRO2, params, master_seed=1)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.spins, ob.spins)
            assert ising_energy(FERRO2, oa.spins) == ising_energy(FERRO2, ob.spins)

    def test_energy_positivity_floor(self):
        params = CimParams(steps=500, n_anneals=20)
        for out in solve(FERRO2, params, master_seed=2):
            assert ising_energy(FERRO2, out.spins) in (-2.0, 2.0)

    def test_feasible_found_at_tuned_weight(self):
        # with a mid-range penalty weight, virtually every instance yields
        # at least one feasible anneal
        cfg = MimoConfig(2, 2, 2)
        params = CimParams(steps=500, n_anneals=200)
        hits = 0
        n_instances = 100
        for k in range(n_instances):
            g = generate_channel(cfg, seed=k)
            inst = compile_instance(g, 0.6)
            feasible, _ = decode_states(solve(inst, params, master_seed=k).spins, cfg)
            hits += int(feasible.any())
        assert hits >= 0.99 * n_instances

    def test_aborted_anneals_flagged_not_dropped(self):
        params = CimParams(dt=50.0, steps=300, n_anneals=4)
        anneals = solve(np.zeros((2, 2)), params, master_seed=0)
        assert anneals.aborted.tolist() == [True] * 4
        assert anneals.spins.shape == (4, 2)

    def test_records_are_rows_of_the_columns(self, monkeypatch):
        # iterating the result, as a per-anneal reader does, gives record k
        # equal to row k of every column; the row started at zero aborts alone
        monkeypatch.setattr(cim, "uniform_table", lambda *args: _sticky_divergent_x0())
        params = CimParams(dt=50.0, steps=300, n_anneals=4)
        anneals, trajectories = _hooked_solve(FERRO2, params, 0, 7)
        assert anneals.dtype.names == ("spins", "aborted")
        assert anneals.aborted.tolist() == [False, True, False, False]
        assert trajectories.shape == (4, len(readout_steps(300, 7)), 2)
        assert anneals.spins.dtype == np.int8
        assert sum(bool(o.aborted) for o in anneals) == 1
        for k, record in enumerate(anneals):
            assert np.array_equal(record.spins, anneals.spins[k])
            assert record.aborted == anneals.aborted[k]
            assert np.array_equal(trajectories[k, -1], record.spins)
        assert solve(FERRO2, params, master_seed=0).dtype.names == ("spins", "aborted")
        assert solve(FERRO2, params, 0, observer=lambda k, run: None).dtype.names == (
            "spins", "aborted")

    def test_record_every_without_hook_raises(self):
        # sampled readouts leave solve through the observer alone
        with pytest.raises(ValueError, match="observer"):
            solve(FERRO2, CimParams(steps=20, n_anneals=2), 0, record_every=7)

    @pytest.mark.parametrize("record_every,match", [
        (-5, "record_every must be >= 0, got -5"),
        (2.5, "record_every must be an integer, got 2.5"),
    ])
    def test_rejects_bad_record_every(self, record_every, match):
        with pytest.raises(ValueError, match=match):
            solve(FERRO2, CimParams(steps=20, n_anneals=2), 0, record_every, observer=ReadoutLog())


def _hook_plans():
    inst = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=3), 0.8)
    yield "dim9", inst.j, CimParams(steps=200, n_anneals=50)
    # not sticky, checked after every step: all 4 anneals abort at step 154
    yield "dt50-zero-j", np.zeros((2, 2)), CimParams(dt=50.0, steps=300, n_anneals=4)
    # sticky, checked at readout steps only: 38 of 40 anneals abort from step 824 on
    inst_05 = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=5), 0.5)
    yield "sticky-negative-beta", inst_05.j, CimParams(beta=-1.0, dt=0.015, steps=835,
                                                       n_anneals=40)


HOOK_PLANS = {name: case for name, *case in _hook_plans()}


class TestReadoutHook:
    """``solve``'s observer: called as ``observer(k, run)`` at every readout
    step, it takes each sampled readout from the run itself."""

    @pytest.mark.parametrize("record_every", [1, 7, 100, 1000])
    @pytest.mark.parametrize("name", sorted(HOOK_PLANS))
    def test_readouts_are_the_recorded_trajectory(self, name, record_every):
        # against the readouts the every-pass, every-check integrator
        # records from the start table solve draws, at the readout steps
        jm, params = HOOK_PLANS[name]
        log = ReadoutLog()
        hooked = solve(jm, params, 5, record_every, observer=log)
        x0 = uniform_table(5, params.n_anneals, -params.init_scale, params.init_scale, len(jm))
        _, want_aborted, want = every_step_integrate(jm, x0, params, record_every)
        assert hooked.dtype.names == ("spins", "aborted")
        assert log.steps == readout_steps(params.steps, record_every).tolist()
        assert all(r.dtype == np.int8 and r.shape == hooked.spins.shape for r in log.readouts)
        assert log.table().tobytes() == want.tobytes()
        assert log.readouts[-1].tobytes() == hooked.spins.tobytes()
        assert hooked.spins.tobytes() == solve(jm, params, 5).spins.tobytes()
        assert hooked.aborted.tolist() == want_aborted.tolist()

    @pytest.mark.parametrize("name", sorted(HOOK_PLANS))
    def test_final_readout_only_without_record_every(self, name):
        jm, params = HOOK_PLANS[name]
        log = ReadoutLog()
        hooked = solve(jm, params, 5, observer=log)
        assert log.steps == [params.steps]
        assert log.readouts[0].tobytes() == hooked.spins.tobytes()
        assert log.readouts[0].tobytes() == solve(jm, params, 5).spins.tobytes()

    @pytest.mark.parametrize("record_every", [0, 7])
    @pytest.mark.parametrize("name", sorted(HOOK_PLANS))
    def test_last_call_sees_the_run_without_work_buffers(self, name, record_every):
        # every call reads x, e and the abort flags; by the last one the
        # kernel has dropped x_sq, coupling, factor and the block views that
        # would keep coupling alive, and e is the final e of the every-pass
        # integrator on the rows that did not abort
        jm, params = HOOK_PLANS[name]
        work = ("x_sq", "coupling", "factor", "blocks")
        calls = []

        def observer(k, run):
            calls.append((k, [hasattr(run, buf) for buf in work], run.x.copy(),
                           run.e.copy(), run.aborted.copy()))

        anneals = solve(jm, params, 5, record_every, observer=observer)
        x0 = uniform_table(5, params.n_anneals, -params.init_scale, params.init_scale, len(jm))
        internals = {}
        want_x, want_aborted, _ = every_step_integrate(jm, x0, params, record_every, internals)
        *earlier, (k, buffers, x, e, aborted) = calls
        assert k == params.steps and not any(buffers)
        assert all(all(buffers) for _, buffers, *_ in earlier)
        assert x.tobytes() == want_x.tobytes()
        assert aborted.tolist() == anneals.aborted.tolist() == want_aborted.tolist()
        assert e[~aborted].tobytes() == internals["e"][~aborted].tobytes()

    @pytest.mark.parametrize("name,record_every", [("dt50-zero-j", 1), ("dt50-zero-j", 7),
                                                   ("sticky-negative-beta", 50)])
    def test_aborted_rows_read_plus_one_from_their_flag(self, name, record_every):
        # a run cut at a sample's step flags exactly the anneals the full
        # run has flagged by that sample, and the observer reads the same
        # flags from the run
        jm, params = HOOK_PLANS[name]
        log, seen_flags = ReadoutLog(), []

        def observer(k, run):
            log(k, run)
            seen_flags.append(run.aborted.copy())

        anneals = solve(jm, params, 5, record_every, observer=observer)
        steps = readout_steps(params.steps, record_every)
        flagged = [solve(jm, replace(params, steps=int(k)), 5).aborted if k else
                   np.zeros(params.n_anneals, dtype=bool) for k in steps]
        assert flagged[-1].tolist() == anneals.aborted.tolist()
        assert anneals.aborted.any() and not flagged[0].any()
        assert [m.tolist() for m in seen_flags] == [m.tolist() for m in flagged]
        for spins, mask in zip(log.readouts, flagged):
            assert (spins[mask] == 1).all()
        # before their flag, aborting anneals read -1 somewhere
        assert any((spins[~mask & anneals.aborted] == -1).any()
                   for spins, mask in zip(log.readouts, flagged))


class TestReadout:
    def test_bytes_match_sign_rule(self):
        x = np.array([[1.5, -2.0, 0.0, -0.0], [np.nan, np.inf, -np.inf, 1e-300]])
        spins = readout(x)
        assert spins.dtype == np.int8 and spins.shape == x.shape
        assert spins.tobytes() == np.where(x >= 0.0, 1, -1).astype(np.int8).tobytes()
        assert spins.tolist() == [[1, -1, 1, 1], [-1, 1, -1, 1]]


class TestReferenceEquivalence:
    """The integrator against the allocating reference step in ``oracles``.

    The in-place update regroups the arithmetic, so amplitudes may differ in
    the last bits; the tolerance is fixed in advance at 1e-12, while every
    sign readout and every abort must agree exactly.
    """

    @pytest.mark.parametrize("dims,lam", [((2, 2, 2), 0.8), ((4, 4, 4), 0.7)])
    def test_amplitudes_and_readouts(self, dims, lam):
        inst = compile_instance(generate_channel(MimoConfig(*dims), seed=3), lam)
        params = CimParams(n_anneals=200)
        x0 = substream(9).uniform(-params.init_scale, params.init_scale, (200, inst.dim))
        x, aborted, trajectory = _recorded_integrate(inst.j, x0, params, record_every=10)
        ref_x, ref_aborted, ref_snaps, ref_steps = reference_integrate(inst.j, x0, params, 10)
        assert inst.dim in (9, 33)
        assert np.max(np.abs(x - ref_x)) <= 1e-12
        assert np.array_equal(readout_steps(params.steps, 10), ref_steps)
        # the trajectory is anneal-major, the reference's snapshots step-major
        assert np.array_equal(trajectory, np.where(ref_snaps >= 0.0, 1, -1).transpose(1, 0, 2))
        assert np.array_equal(aborted, ref_aborted) and not aborted.any()

    def test_aborted_mask(self):
        # the divergent parameters of test_aborted_anneals_flagged_not_dropped;
        # with the coupling on, a row started exactly at zero stays there while
        # its error variables overflow, so it alone is aborted mid-run
        params = CimParams(dt=50.0, steps=300, n_anneals=4)
        x0 = substream(0).uniform(-0.01, 0.01, (4, 2))
        x0[1] = 0.0
        for jm, expected in ((np.zeros((2, 2)), [True] * 4), (FERRO2, [False, True, False, False])):
            x, aborted = _integrate(jm, x0.copy(), params)
            ref_x, ref_aborted, _, _ = reference_integrate(jm, x0, params, 10)
            assert aborted.tolist() == ref_aborted.tolist() == expected
            assert np.max(np.abs(x - ref_x)) <= 1e-12


def _sticks(**kwargs) -> bool:
    return _EulerStep(FERRO2, np.zeros((1, 2)), CimParams(**kwargs)).divergence_sticks


class TestDivergenceSticks:
    """The condition under which a non-finite row stays non-finite, so the
    finiteness check may wait for the next readout step."""

    def test_holds_at_defaults(self):
        assert _sticks()

    def test_fails_for_large_dt(self):
        # the e factor at x_clip is 101 - 50 * 100 < 0
        assert not _sticks(dt=50.0)

    def test_fails_for_non_positive_c_e(self):
        # beta < 0 makes the factor at least c_e, so c_e = 1 + dt*beta*a
        # decides: 0 here
        assert not _sticks(beta=-1.0, dt=0.5)
        assert _sticks(beta=-1.0, dt=0.25)

    @pytest.mark.parametrize("params,sticks", [(CimParams(), True),
                                               (CimParams(dt=50.0), False)])
    def test_infinite_error_variable_at_the_clamp(self, params, sticks):
        # the e factor at x = x_clip is 0.02 at the defaults and -4899 at
        # dt = 50, where e = +inf turns -inf, is floored, and the row is
        # finite again after one step: a later check would miss it
        kernel = _EulerStep(FERRO2, np.full((1, 2), params.x_clip), params)
        assert kernel.divergence_sticks is sticks
        kernel.e[:] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            # the second step, from t = dt, where the coupling term acts
            kernel.advance(1, 2)
        assert kernel.x.tolist() == [[params.x_clip] * 2]
        assert kernel.e.tolist() == [[np.inf if sticks else E_FLOOR] * 2]

    def test_governed_by_init_scale_above_x_clip(self):
        # factor 3 - X^2: 0.75 at X = x_clip = 1.5, -1 at X = init_scale = 2
        assert _sticks(dt=1.0, x_clip=1.5)
        assert _sticks(dt=1.0, x_clip=1.5, init_scale=1.7)
        assert not _sticks(dt=1.0, x_clip=1.5, init_scale=2.0)


def _sticky_divergent_x0():
    x0 = substream(0).uniform(-0.01, 0.01, (4, 2))
    x0[1] = 0.0
    return x0


def _check_schedule_cases():
    inst = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=3), 0.8)
    x0 = substream(9).uniform(-0.01, 0.01, (100, inst.dim))
    sticky = CimParams(dt=1.0, x_clip=1.5, steps=1000)
    yield "defaults", inst.j, x0, CimParams()
    # error variables overflow near step 646 in the rows that abort
    yield "sticky-ferro", FERRO2, _sticky_divergent_x0(), sticky
    yield "sticky-zero-j", np.zeros((2, 2)), _sticky_divergent_x0(), sticky
    # past step 1292 a row zeroed at its abort diverges again
    yield "sticky-zero-j-1500", np.zeros((2, 2)), _sticky_divergent_x0(), CimParams(
        dt=1.0, x_clip=1.5, steps=1500)
    # beta < 0: amplitudes at the clamp grow their error variables until
    # 16 of the 40 rows overflow near step 835
    sticky_negative_beta = CimParams(beta=-1.0, dt=0.015, steps=835)
    inst_07 = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=5), 0.7)
    yield "sticky-negative-beta", inst_07.j, x0[:40], sticky_negative_beta
    not_sticky = CimParams(dt=50.0, steps=300, n_anneals=4)
    yield "dt50-ferro", FERRO2, _sticky_divergent_x0(), not_sticky
    yield "dt50-zero-j", np.zeros((2, 2)), _sticky_divergent_x0(), not_sticky
    # the floor binds from step 23 on; at gamma = 1000 from step 13, and the
    # clamp binds again at steps 277-278
    yield "floor-binds", inst.j, x0, CimParams(beta=5.0)
    yield "late-clamp", inst.j, x0, CimParams(beta=5.0, gamma=1000.0)
    # beta != 1: the two factors take separate x^2 products; at beta = 0
    # every factor is 1, so the bound on e never falls to the floor
    yield "beta-0.5", inst.j, x0, CimParams(beta=0.5)
    yield "beta-0", inst.j, x0, CimParams(beta=0.0)
    # every e grows past 1e290 before the rows overflow near step 1140,
    # while the bound on e keeps the floor skipped; their reset e = 1 then
    # decays by c_e = 0.4 a step and meets the floor from step 1168
    yield "abort-in-window", np.zeros((2, 2)), substream(0).uniform(-0.01, 0.01, (4, 2)), \
        CimParams(p=6.0, beta=-3.0, dt=0.1, gamma=1.0, x_clip=3.0, steps=1200)
    for dims, n_anneals in (((1, 1, 2), 1), ((3, 3, 4), 7), ((5, 5, 4), 1000)):
        big = compile_instance(generate_channel(MimoConfig(*dims), seed=3), 0.8)
        x0_big = substream(9).uniform(-0.01, 0.01, (n_anneals, big.dim))
        yield f"dim{big.dim}-n{n_anneals}", big.j, x0_big, CimParams()
    # two couplings in one batch, each from the same start rows: the floor
    # and the clamp bind on the first one's rows alone, and the batch takes
    # their decisions for both
    yield "two-couplings", np.stack([inst.j, np.zeros_like(inst.j)]), np.tile(x0, (2, 1)), \
        CimParams(beta=5.0, gamma=1000.0)


CHECK_CASES = {name: case for name, *case in _check_schedule_cases()}
# _integrate advances its x0 in place; these tables are shared
for _, _x0, _ in CHECK_CASES.values():
    _x0.flags.writeable = False


def _bound_rereads(jm, x0, params):
    """The minimum reductions of one ``_integrate`` run, the kernel's
    re-reads of its bound on ``e``, as a list of their results: seen on a
    subclass of ``x0`` that the kernel adopts and passes on to ``e``."""
    reads = []

    class CountingArray(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [a.view(np.ndarray) if isinstance(a, CountingArray) else a for a in inputs]
            out = kwargs.get("out", ())
            if out:
                kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, CountingArray) else a
                                      for a in out)
            result = getattr(ufunc, method)(*inputs, **kwargs)
            if method == "reduce" and ufunc in (np.minimum, np.fmin):
                reads.append(float(result))
            return out[0] if len(out) == 1 else result

    with np.errstate(over="ignore", invalid="ignore"):
        x, _ = _integrate(jm, x0.copy().view(CountingArray), params)
    assert type(x) is CountingArray
    return reads


@pytest.fixture()
def kernel_e(monkeypatch):
    """The error variables of every ``_integrate`` run, read from its kernel."""
    seen = []

    class RememberingStep(_EulerStep):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append(self.e)

    monkeypatch.setattr(cim, "_EulerStep", RememberingStep)
    return seen


class TestCheckSchedule:
    """``_integrate`` against the kernel that runs every pass on every step,
    checked after every step: byte-equal amplitudes, abort flags, readouts
    and error variables."""

    @pytest.mark.parametrize("record_every", [0, 7, 10])
    @pytest.mark.parametrize("name", sorted(CHECK_CASES))
    def test_byte_equal_to_every_step_check(self, name, record_every, kernel_e):
        jm, x0, params = CHECK_CASES[name]
        got = _recorded_integrate(jm, x0, params, record_every)
        internals = {}
        want = every_step_integrate(jm, x0, params, record_every, internals)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        # an aborted row restarts from e = 1 at its check step, which the
        # schedule may move; its amplitudes stay zero either way
        live = ~got[1]
        assert len(kernel_e) == 1
        assert kernel_e[0][live].tobytes() == internals["e"][live].tobytes()

    def test_floor_and_late_clamp_bind(self):
        internals = {}
        every_step_integrate(*CHECK_CASES["floor-binds"], internals=internals)
        assert internals["floor"]
        every_step_integrate(*CHECK_CASES["late-clamp"], internals=internals)
        assert max(internals["clamp"]) > 100
        every_step_integrate(*CHECK_CASES["defaults"], internals=internals)
        assert not internals["floor"] and max(internals["clamp"], default=0) < 100

    def test_two_couplings_bind_apart(self):
        # on its own, the first coupling meets the floor and the clamp and
        # the second meets neither; together, every step that binds for the
        # first binds for the batch
        jm, x0, params = CHECK_CASES["two-couplings"]
        alone = []
        for c in range(2):
            internals = {}
            every_step_integrate(jm[c], x0[c * 100:(c + 1) * 100], params, internals=internals)
            alone.append(internals)
        both = {}
        every_step_integrate(jm, x0, params, internals=both)
        assert alone[0]["floor"] and alone[0]["clamp"]
        assert not alone[1]["floor"] and not alone[1]["clamp"]
        assert (both["floor"], both["clamp"]) == (alone[0]["floor"], alone[0]["clamp"])

    def test_abort_while_the_floor_is_skipped(self, monkeypatch):
        resets, kernels = [], []

        class RecordingStep(_EulerStep):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

            def abort_nonfinite(self):
                e_low, finite = self.e_low, np.isfinite(self.x.sum() + self.e.sum())
                super().abort_nonfinite()
                if not finite:
                    resets.append((e_low, self.e_low, self.e.min()))

        monkeypatch.setattr(cim, "_EulerStep", RecordingStep)
        jm, x0, params = CHECK_CASES["abort-in-window"]
        _, aborted = _integrate(jm, x0.copy(), params, record_every=10)
        # after the first reset every e is 1, which decays to the floor in
        # 31 steps at c_e = 0.4, while the carried bound would stay above it
        # for longer: only the reset of the bound keeps the reset rows' e
        # at the floor
        assert aborted.all() and len(resets) == 2
        e_low, e_low_after, e_min = resets[0]
        assert e_min == 1.0 and e_low * 0.4 ** 31 > E_FLOOR > 0.4 ** 31
        assert e_low_after == 0.0
        assert kernels[0].e.tolist() == [[E_FLOOR] * 2] * 4

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
    def test_floor_rereads_e_only_where_it_runs(self, dims):
        # the bound is re-read only on the steps that floor, 1-5 of 1000 at
        # the defaults
        inst = compile_instance(generate_channel(MimoConfig(*dims), seed=3), 0.8)
        params = CimParams()
        x0 = substream(9).uniform(-params.init_scale, params.init_scale, (100, inst.dim))
        assert inst.dim in (9, 33) and 1 <= len(_bound_rereads(inst.j, x0, params)) <= 10

    def test_floor_rereads_e_only_where_the_bound_helps(self):
        # the floor binds on 895 steps of sticky-ferro; from step 648 to
        # the final check a row is NaN, which leaves the bound on the other
        # rows' e intact
        reads = _bound_rereads(*CHECK_CASES["sticky-ferro"])
        assert len(reads) == 895 and not np.isnan(reads).any()
        # at dt = 50 the floor runs on 299 steps, and after all but the
        # first the next factor bound is f <= 0, which no bound survives
        assert len(_bound_rereads(*CHECK_CASES["dt50-ferro"])) == 1

    @pytest.mark.parametrize("name", ["sticky-ferro", "sticky-zero-j", "sticky-negative-beta"])
    def test_sticky_cases_abort_mid_run(self, name):
        jm, x0, params = CHECK_CASES[name]
        assert _EulerStep(jm, x0, params).divergence_sticks
        _, aborted = _integrate(jm, x0.copy(), params)
        _, aborted_early, _ = every_step_integrate(jm, x0, replace(params, steps=600))
        assert aborted.any() and not aborted_early.any()


class TestSpans:
    """One span of the step kernel against its steps run one span each."""

    @pytest.mark.parametrize("name", ["floor-binds", "late-clamp", "sticky-ferro", "dt50-ferro",
                                      "abort-in-window", "defaults-dim33"])
    def test_span_equals_its_steps(self, name):
        # where the floor, the clamp or an abort binds, and a default
        # dim-33 solve, whose product runs in two row blocks; nothing is
        # aborted between steps, so the diverging rows go non-finite alike
        if name == "defaults-dim33":
            inst = compile_instance(generate_channel(MimoConfig(4, 4, 4), seed=3), 0.8)
            params = CimParams()
            jm, x0 = inst.j, uniform_table(9, params.n_anneals, -0.01, 0.01, inst.dim)
        else:
            jm, x0, params = CHECK_CASES[name]
        span, steps = (_EulerStep(jm, x0.copy(), params) for _ in range(2))
        assert name != "defaults-dim33" or len(span.blocks) == 2
        with np.errstate(over="ignore", invalid="ignore"):
            span.advance(0, params.steps)
            for k in range(params.steps):
                steps.advance(k, k + 1)
        for field in ("x", "e"):
            assert getattr(span, field).tobytes() == getattr(steps, field).tobytes(), field
        for field in ("e_low", "f"):
            a, b = (np.float64(getattr(run, field)) for run in (span, steps))
            assert a.tobytes() == b.tobytes(), field


class OneBlockStep(_EulerStep):
    """The step kernel with the whole batch in one ``x @ J`` product."""

    def __init__(self, *args):
        super().__init__(*args)
        self.blocks = [(self.x, self.j_scaled[0], self.coupling)]


def _check_block_tiling(run, n_couplings, per, n_blocks):
    """Each coupling's ``per`` rows of ``run`` tile, in order, into
    ``n_blocks`` near-equal ``(x, scaled J, coupling)`` views, the J view
    that coupling's own."""
    dim = run.x.shape[1]
    assert len(run.blocks) == n_couplings * n_blocks
    rows = [len(x_block) for x_block, _, _ in run.blocks]
    assert n_blocks == 1 or max(rows) <= 10**6 // dim**2
    assert max(rows) - min(rows) <= 1
    start = 0
    for i, ((x_block, j_block, coupling_block), n) in enumerate(zip(run.blocks, rows)):
        for block, whole in ((x_block, run.x), (coupling_block, run.coupling)):
            assert block.base is whole and block.shape == (n, dim)
            assert block.ctypes.data == whole[start:].ctypes.data
        c = i // n_blocks
        assert j_block.base is run.j_scaled and j_block.shape == (dim, dim)
        assert j_block.ctypes.data == run.j_scaled[c].ctypes.data
        assert start // per == c
        start += n
    assert start == n_couplings * per


class TestRowBlocks:
    """The step's ``x @ J`` in row blocks under OpenBLAS's small-matrix bound."""

    @pytest.mark.parametrize("dim,n_blocks", [(9, 1), (33, 2), (65, 5), (161, 1)])
    def test_blocks_tile_the_batch_in_order(self, dim, n_blocks):
        # dim 161 allows 38-row blocks, too thin to pay: one product
        run = _EulerStep(np.zeros((dim, dim)), np.zeros((1000, dim)), CimParams())
        _check_block_tiling(run, 1, 1000, n_blocks)

    @pytest.mark.parametrize("dim,n_blocks", [(9, 1), (33, 2), (65, 5), (161, 1)])
    def test_each_coupling_blocks_its_own_rows(self, dim, n_blocks):
        # a stack of three couplings: each one's 1000 rows take the blocks
        # one coupling's 1000 rows take alone, and multiply its own J
        run = _EulerStep(np.zeros((3, dim, dim)), np.zeros((3000, dim)), CimParams())
        _check_block_tiling(run, 3, 1000, n_blocks)

    def test_rows_must_split_evenly(self):
        with pytest.raises(ValueError, match="7 rows do not split evenly over 2 couplings"):
            _EulerStep(np.zeros((2, 3, 3)), np.zeros((7, 3)), CimParams())

    def test_paper_scale_readouts_match_one_product(self, monkeypatch):
        # amplitudes may move in their last bits (at most 6.9e-12 on this
        # channel under the SkylakeX kernel); no sampled or final readout does
        inst = compile_instance(generate_channel(MimoConfig(4, 4, 4), seed=200), 0.5)
        assert len(_EulerStep(inst.j, np.zeros((1000, inst.dim)), CimParams()).blocks) == 2
        runs = []
        for kernel in (_EulerStep, OneBlockStep):
            monkeypatch.setattr(cim, "_EulerStep", kernel)
            log = ReadoutLog()
            runs.append((solve(inst, CimParams(), 1, 10, observer=log), log.table()))
        (blocked, blocked_table), (one, one_table) = runs
        assert blocked_table.tobytes() == one_table.tobytes()
        assert blocked.spins.tobytes() == one.spins.tobytes()
        assert not blocked.aborted.any() and not one.aborted.any()


def _batch_cases():
    """``(couplings, params, aborting)`` per case: a stack of couplings of
    one size that one solve runs as a batch, and which of them abort
    anneals."""
    def stack(dims, lams):
        g = generate_channel(MimoConfig(*dims), seed=3)
        return np.stack([compile_instance(g, lam).j for lam in lams])

    # one, two and five row blocks a coupling at 1000 anneals
    for dims, lams in (((2, 2, 2), (0.2, 0.5, 0.8)), ((4, 4, 4), (0.3, 0.7)),
                       ((8, 8, 4), (0.3, 0.7))):
        for n_anneals in (1, 7, 1000):
            couplings = stack(dims, lams)
            yield (f"dim{couplings.shape[-1]}-n{n_anneals}", couplings,
                   CimParams(n_anneals=n_anneals), ())
    # the floor and the clamp bind on the first coupling's rows alone
    jm, _, params = CHECK_CASES["two-couplings"]
    yield "floor-clamp-first", jm, replace(params, n_anneals=100), ()
    # sticky: 24 of the first coupling's 40 anneals abort near step 835 and
    # none of the uncoupled second's
    inst = compile_instance(generate_channel(MimoConfig(2, 2, 2), seed=5), 0.7)
    yield "abort-first-sticky", np.stack([inst.j, np.zeros_like(inst.j)]), CimParams(
        beta=-1.0, dt=0.015, steps=835, n_anneals=40), (0,)
    # not sticky, checked after every step: every anneal of the uncoupled
    # second aborts and none of the first's
    yield "abort-second-dt50", np.stack([FERRO2, np.zeros((2, 2))]), CimParams(
        dt=50.0, steps=300, n_anneals=4), (1,)


BATCH_CASES = {name: case for name, *case in _batch_cases()}


def _observed_rows(j, params, record_every):
    """``solve`` at seed 5, with each observer call's step and, for every
    coupling's rows, digests of ``x``, ``e`` and the abort flags."""
    n = params.n_anneals
    calls = []

    def observer(k, run):
        calls.append((k, [[hashlib.sha256(a[c:c + n].tobytes()).hexdigest()
                           for a in (run.x, run.e, run.aborted)]
                          for c in range(0, len(run.x), n)]))

    return solve(j, params, 5, record_every, observer=observer), calls


class TestCouplingBatch:
    """A stack of couplings solved as one batch against each solved alone."""

    @pytest.mark.parametrize("record_every", [0, 7])
    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_each_coupling_gets_its_own_solve(self, name, record_every):
        couplings, params, aborting = BATCH_CASES[name]
        n = params.n_anneals
        batch, batch_calls = _observed_rows(couplings, params, record_every)
        assert len(batch) == len(couplings) * n
        for c, jm in enumerate(couplings):
            own, own_calls = _observed_rows(jm, params, record_every)
            rows = batch[c * n:(c + 1) * n]
            assert rows.tobytes() == own.tobytes()
            assert own.aborted.any() == (c in aborting)
            assert [(k, digests[c]) for k, digests in batch_calls] == [
                (k, digests) for k, (digests,) in own_calls]

    def test_every_coupling_starts_from_the_table(self, first_step_state):
        couplings, params, _ = BATCH_CASES["dim9-n7"]
        solve(couplings, params, master_seed=5)
        ((x, e, _),) = first_step_state
        table = uniform_table(5, 7, -params.init_scale, params.init_scale, 9)
        assert x.tobytes() == np.tile(table, (3, 1)).tobytes() and (e == 1.0).all()

    def test_weights_per_solve(self, monkeypatch):
        # three dim-9 couplings of 1000 anneals fit the budget, two of
        # dim 13, one of dim 17 and up, and always at least one
        assert [cim.couplings_per_solve(1000, dim) for dim in (9, 13, 17, 33)] == [3, 2, 1, 1]
        assert cim.couplings_per_solve(10**6, 9) == 1
        monkeypatch.setattr(cim, "_BATCH_CELLS", 0)
        assert cim.couplings_per_solve(1, 2) == 1


class TestTrajectoryDump:
    def test_csv_layout(self, tmp_path):
        params = CimParams(steps=100, n_anneals=1)
        log = ReadoutLog()
        (out,) = solve(FERRO2, params, 1, 50, observer=log)
        (trajectory,) = log.table()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(zip(log.steps, trajectory), FERRO2, params, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,s0,s1,energy"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "50", "100"]
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert [int(v) for v in lines[-1].split(",")[2:4]] == out.spins.tolist()
