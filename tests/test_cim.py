from dataclasses import replace

import numpy as np
import pytest

from cimsel import cim
from cimsel.channel import MimoConfig, generate_channel
from cimsel.cim import (
    E_FLOOR,
    AnnealOutcome,
    CimParams,
    ising_energy,
    readout,
    solve,
    write_trajectory_csv,
)
from cimsel.cim import _EulerStep, _integrate
from cimsel.formulation import InfeasibleDecode, compile_instance, decode_spins
from cimsel.rng import substream
from oracles import every_step_integrate, reference_integrate

FERRO2 = np.array([[0.0, 1.0], [1.0, 0.0]])


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
         dict(n_anneals=False), dict(steps=np.float64(100.0)), dict(steps="100")],
    )
    def test_validation(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            CimParams(**bad)

    def test_numpy_integer_run_sizes_accepted(self):
        p = CimParams(steps=np.int64(10), n_anneals=np.int32(3))
        assert (p.steps, p.n_anneals) == (10, 3)


def _kernel_run(jm, x0, params, e0=None, n_steps=1):
    """Advance one row through ``n_steps`` calls of the step kernel; returns
    the ``(x, e)`` rows after each step."""
    jm = np.asarray(jm, dtype=float)
    x = np.array(x0, dtype=float)[None, :]
    e = np.ones_like(x) if e0 is None else np.array(e0, dtype=float)[None, :]
    kernel = _EulerStep(jm, x.shape, params)
    states = []
    for k in range(n_steps):
        kernel(x, e, k * params.dt)
        states.append((x[0].copy(), e[0].copy()))
    return states


@pytest.fixture()
def first_step_state(monkeypatch):
    """Records, per ``solve`` call, the state handed to the first kernel call."""
    seen = []

    class RecordingStep(_EulerStep):
        recorded = False

        def __call__(self, x, e, t):
            if not self.recorded:
                self.recorded = True
                seen.append((x.copy(), e.copy(), t))
            super().__call__(x, e, t)

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
            def __call__(self, x, e, t):
                seen.append(blas_threads())
                super().__call__(x, e, t)

        monkeypatch.setattr(cim, "_EulerStep", RecordingStep)
        solve(FERRO2, CimParams(steps=3, n_anneals=2), master_seed=0)
        assert seen == [1, 1, 1]
        assert blas_threads() == 2

    def test_caller_count_restored_when_solve_raises(self, blas_threads, monkeypatch):
        class FailingStep(_EulerStep):
            def __call__(self, x, e, t):
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
        for a, b in zip(found, absent):
            assert np.array_equal(a.spins, b.spins)


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
        outcomes = solve(FERRO2, CimParams(steps=1000, n_anneals=100), master_seed=100)
        aligned = sum(int(out.spins[0] == out.spins[1]) for out in outcomes)
        assert aligned >= 99

    def test_determinism(self):
        params = CimParams(steps=300, n_anneals=1)
        (a,) = solve(FERRO2, params, master_seed=7)
        (b,) = solve(FERRO2, params, master_seed=7)
        assert np.array_equal(a.spins, b.spins)
        assert ising_energy(FERRO2, a.spins) == ising_energy(FERRO2, b.spins)

    def test_trajectory_sampling(self):
        (out,) = solve(FERRO2, CimParams(steps=100, n_anneals=1), master_seed=1, record_every=30)
        assert list(out.trajectory_steps) == [0, 30, 60, 90, 100]
        assert out.trajectory.shape == (5, 2)
        assert np.array_equal(out.trajectory[-1], out.spins)
        (out,) = solve(FERRO2, CimParams(steps=1000, n_anneals=1), master_seed=1, record_every=10)
        assert len(out.trajectory_steps) == 101  # both endpoints included
        assert out.trajectory_steps[0] == 0 and out.trajectory_steps[-1] == 1000


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
        xa, _, _, _ = _integrate(FERRO2, x0, params)
        xb, _, _, _ = _integrate(FERRO2, -x0, params)
        sa, sb = readout(xa[0]), readout(xb[0])
        assert np.array_equal(sa, -sb)
        assert ising_energy(FERRO2, sa) == ising_energy(FERRO2, sb)


class TestSolve:
    def test_single_anneal_matches_batch_anneal_0(self):
        # the contract behind cimsel solve --dump-trajectory
        params = CimParams(steps=300, n_anneals=6)
        batch = solve(FERRO2, params, master_seed=11, record_every=50)
        (single,) = solve(FERRO2, CimParams(steps=300, n_anneals=1), master_seed=11,
                          record_every=50)
        assert np.array_equal(batch[0].spins, single.spins)
        assert ising_energy(FERRO2, batch[0].spins) == ising_energy(FERRO2, single.spins)
        assert np.array_equal(batch[0].trajectory, single.trajectory)
        assert np.array_equal(batch[0].trajectory_steps, single.trajectory_steps)

    def test_each_anneal_matches_its_derived_stream(self):
        params = CimParams(steps=300, n_anneals=5)
        batch = solve(FERRO2, params, master_seed=23)
        for k, outcome in enumerate(batch):
            x0 = substream(23, k).uniform(-params.init_scale, params.init_scale, (1, 2))
            x, aborted, _, _ = _integrate(FERRO2, x0, params)
            assert np.array_equal(outcome.spins, readout(x[0]))
            assert ising_energy(FERRO2, outcome.spins) == ising_energy(FERRO2, readout(x[0]))
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
            outcomes = solve(inst, params, master_seed=k)
            any_feasible = any(
                not isinstance(decode_spins(o.spins, cfg), InfeasibleDecode)
                for o in outcomes
            )
            hits += int(any_feasible)
        assert hits >= 0.99 * n_instances

    def test_aborted_anneals_flagged_not_dropped(self):
        params = CimParams(dt=50.0, steps=300, n_anneals=4)
        outcomes = solve(np.zeros((2, 2)), params, master_seed=0)
        assert len(outcomes) == 4
        assert all(o.aborted for o in outcomes)


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
        x, aborted, snaps, snap_steps = _integrate(inst.j, x0, params, record_every=10)
        ref_x, ref_aborted, ref_snaps, ref_steps = reference_integrate(inst.j, x0, params, 10)
        assert inst.dim in (9, 33)
        assert np.max(np.abs(x - ref_x)) <= 1e-12
        assert np.array_equal(snap_steps, ref_steps)
        assert np.array_equal(snaps, np.where(ref_snaps >= 0.0, 1, -1))
        assert np.array_equal(aborted, ref_aborted) and not aborted.any()

    def test_aborted_mask(self):
        # the divergent parameters of test_aborted_anneals_flagged_not_dropped;
        # with the coupling on, a row started exactly at zero stays there while
        # its error variables overflow, so it alone is aborted mid-run
        params = CimParams(dt=50.0, steps=300, n_anneals=4)
        x0 = substream(0).uniform(-0.01, 0.01, (4, 2))
        x0[1] = 0.0
        for jm, expected in ((np.zeros((2, 2)), [True] * 4), (FERRO2, [False, True, False, False])):
            x, aborted, _, _ = _integrate(jm, x0, params)
            ref_x, ref_aborted, _, _ = reference_integrate(jm, x0, params, 10)
            assert aborted.tolist() == ref_aborted.tolist() == expected
            assert np.max(np.abs(x - ref_x)) <= 1e-12


def _sticks(**kwargs) -> bool:
    return _EulerStep(FERRO2, (1, 2), CimParams(**kwargs)).divergence_sticks


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
        kernel = _EulerStep(FERRO2, (1, 2), params)
        assert kernel.divergence_sticks is sticks
        x, e = np.full((1, 2), params.x_clip), np.full((1, 2), np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel(x, e, 1.0)
        assert x.tolist() == [[params.x_clip] * 2]
        assert e.tolist() == [[np.inf if sticks else E_FLOOR] * 2]

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


CHECK_CASES = {name: case for name, *case in _check_schedule_cases()}


class TestCheckSchedule:
    """``_integrate`` against the same kernel checked after every step:
    byte-equal amplitudes, abort flags and readouts."""

    @pytest.mark.parametrize("record_every", [0, 7, 10])
    @pytest.mark.parametrize("name", sorted(CHECK_CASES))
    def test_byte_equal_to_every_step_check(self, name, record_every):
        jm, x0, params = CHECK_CASES[name]
        got = _integrate(jm, x0, params, record_every)
        want = every_step_integrate(jm, x0, params, record_every)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["sticky-ferro", "sticky-zero-j", "sticky-negative-beta"])
    def test_sticky_cases_abort_mid_run(self, name):
        jm, x0, params = CHECK_CASES[name]
        assert _EulerStep(jm, x0.shape, params).divergence_sticks
        _, aborted, _, _ = _integrate(jm, x0, params)
        _, aborted_early, _, _ = every_step_integrate(jm, x0, replace(params, steps=600))
        assert aborted.any() and not aborted_early.any()


class TestTrajectoryDump:
    def test_csv_layout(self, tmp_path):
        params = CimParams(steps=100, n_anneals=1)
        (out,) = solve(FERRO2, params, master_seed=1, record_every=50)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(out, FERRO2, params, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,s0,s1,energy"
        assert len(lines) == 1 + len(out.trajectory_steps)
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

    def test_requires_trajectory(self):
        with pytest.raises(ValueError):
            write_trajectory_csv(
                AnnealOutcome(spins=np.array([1, 1])), FERRO2, CimParams(), "x"
            )
