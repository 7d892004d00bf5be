import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from levylab import parallel, sde
from levylab.errors import ParameterError
from levylab.objectives import ObjectiveSpec, double_well, quadratic
from levylab.rng import RngStream
from levylab.sde import (
    SdeConfig,
    first_exit_ensemble,
    first_transition_ensemble,
    noise_increments,
    occupancy_ensemble,
    simulate,
)
from levylab.tail_index import estimate_alpha


def _cfg(**kw):
    base = dict(eta=0.01, epsilon=0.1, alpha=1.5, w0=(0.0,), max_steps=200)
    base.update(kw)
    return SdeConfig(**base)


def _undeclared(spec):
    """The same objective without its linear-drift declaration (generic scan)."""
    return dataclasses.replace(spec, linear_drift=None)


def _outcomes(records):
    return [(r.exited, r.exit_step, r.diverged) for r in records]


def _threads(monkeypatch, n):
    """Run the engine as if n CPUs were usable."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


class _Alone:
    """Stream whose replicate 0 is replicate r of rng: runs r as a one-lane ensemble."""

    def __init__(self, rng, r):
        self.rng, self.r = rng, r

    def substream(self, i):
        return self.rng.substream(self.r + i)


class _LoggedGenerator(np.random.Generator):
    """A real PCG64 generator that reports its uniform and normal draws to ``stream``."""

    def random(self, size=None, dtype=np.float64, out=None):
        self.stream.record(out.shape if size is None else size)
        return super().random(size, dtype, out)

    def normal(self, loc, scale, size):
        self.stream.record(size)
        return super().normal(loc, scale, size)


class _Drawn:
    """Stream double of ``rng``: replicate r is ``rng.substream(r)``, and every
    generator passes each draw through.  Each uniform or normal draw appends
    (replicate, calling thread, size) to the shared ``log``, except that
    replicate ``fail[0]``'s first raises ``fail[1]``.  After a chunk drawn in
    pieces a lane goes on with the plain generator of ``piece_generators``,
    so only its first such chunk is logged."""

    def __init__(self, rng, fail=None, lane=0, log=None):
        self.rng, self.fail, self.lane = rng, fail, lane
        self.log = [] if log is None else log

    def substream(self, r):
        return _Drawn(self.rng.substream(r), self.fail, r, self.log)

    def generator(self):
        gen = _LoggedGenerator(self.rng.generator().bit_generator)
        gen.stream = self
        return gen

    def record(self, size):
        if self.fail and self.fail[0] == self.lane:
            raise self.fail[1]
        self.log.append((self.lane, threading.current_thread(), size))

    def on_main(self):
        return {thread is threading.main_thread() for _, thread, _ in self.log}


def _counted(spec):
    """``spec`` with a ``grad`` that appends to the returned list once per call
    after construction; no call means every chunk took the linear scan."""
    calls, grad = [], spec.grad

    def counting(w):
        calls.append(None)
        return grad(w)

    counted = dataclasses.replace(spec, grad=counting)
    calls.clear()
    return counted, calls


def _slow_drift():
    """A quadratic whose drift is slow enough (e^-1.5 per 3000-step chunk at eta
    0.01) that a lane restarted at w0 leaves at another step."""
    return ObjectiveSpec(dim=1, f=lambda w: 0.025 * w**2, grad=lambda w: 0.05 * w,
                         linear_drift=(0.05, 0.0))


def _lane_0_path(config, spec, streams):
    """Lane 0's path in a ``_run_lanes`` run whose merge retires every other
    lane after the first block (NaN at steps it did not observe), the lanes
    observed in the blocks at each first step, and whether each tile was
    observed on the calling thread."""
    path = np.full((config.max_steps, config.dim), np.nan)
    active, on_main = {}, set()

    def first_lane(done, W, finite):
        return W[0].copy(), threading.current_thread() is threading.main_thread()

    def keep_lane_0(lanes, done, result):
        first, main = result
        active[done] = active.get(done, 0) + lanes.size
        on_main.add(main)
        if lanes[0] == 0:
            path[done : done + first.shape[0]] = first
        return lanes != 0

    sde._run_lanes(config, spec, streams, first_lane, keep_lane_0)
    return path, active, on_main


def _declared_fast(config, spec, *args):
    """Exit records of a run that must take the exact linear scan."""
    counted, calls = _counted(spec)
    records = first_exit_ensemble(config, counted, *args)
    assert not calls, "declared linear drift fell back to the per-step loop"
    return records


@pytest.mark.parametrize(
    "bad",
    [
        dict(eta=0.0),
        dict(eta=-0.1),
        dict(epsilon=-1.0),
        dict(alpha=0.0),
        dict(alpha=2.5),
        dict(sigma_brownian=-0.1),
        dict(max_steps=0),
        dict(epsilon=float("nan")),
        dict(sigma_brownian=float("nan")),
        dict(eta=float("inf")),
        dict(epsilon=float("inf")),
        dict(sigma_brownian=float("inf")),
        dict(w0=(float("nan"),)),
        dict(w0=(0.0, float("inf"))),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ParameterError):
        _cfg(**bad)


@pytest.mark.parametrize("a", [float("nan"), float("inf")], ids=["a-nan", "a-inf"])
def test_exit_ensemble_refuses_a_bad_radius(a):
    with pytest.raises(ParameterError, match="a must"):
        first_exit_ensemble(_cfg(), quadratic(1), 0.0, a, RngStream(0), 2)


def test_noiseless_descent_is_geometric():
    config = _cfg(eta=0.1, epsilon=0.0, w0=(1.0,), max_steps=50)
    traj = simulate(config, quadratic(1), RngStream(90))
    expected = 0.9 ** np.arange(51)
    assert np.allclose(traj.points[:, 0], expected, rtol=1e-12)
    assert not traj.diverged


def test_simulate_deterministic():
    config = _cfg(max_steps=500)
    a = simulate(config, quadratic(1), RngStream(91))
    b = simulate(config, quadratic(1), RngStream(91))
    assert np.array_equal(a.points, b.points)


def test_simulate_dim_mismatch():
    with pytest.raises(ParameterError):
        simulate(_cfg(w0=(0.0, 0.0)), quadratic(1), RngStream(0))


def test_trajectory_includes_initial_point():
    config = _cfg(w0=(0.7,), max_steps=10)
    traj = simulate(config, quadratic(1), RngStream(92))
    assert traj.points.shape == (11, 1)
    assert traj.points[0, 0] == 0.7


def test_single_step_matches_update_formula():
    # one Euler step recomputed by hand from the same noise draws
    config = _cfg(eta=0.05, epsilon=0.3, alpha=2.0, sigma_brownian=1.5,
                  w0=(0.4,), max_steps=1)
    spec = quadratic(1)
    traj = simulate(config, _undeclared(spec), RngStream(93))
    inc = noise_increments(config, 1, *[RngStream(93).generator()] * 3)
    w0 = np.asarray(config.w0)
    expected = w0 - config.eta * spec.grad(w0) + inc[0]
    assert np.allclose(traj.points[1], expected, rtol=0, atol=0)


def test_noise_increments_amplitudes():
    # stable block scales as eps eta^(1/alpha); at alpha=2 each unit draw has
    # variance 2 under the characteristic-function convention
    config = _cfg(eta=0.04, epsilon=0.5, alpha=2.0, sigma_brownian=0.0)
    inc = noise_increments(config, 200_000, *[RngStream(94).generator()] * 3)
    amp = config.epsilon * config.eta ** 0.5
    assert inc.var() == pytest.approx(2.0 * amp**2, rel=0.02)


def test_noise_increments_scale_roundtrip():
    # the stable block is an exact increment of the driving motion: undoing
    # the eta**(1/alpha) scale leaves unit stable draws of the same index
    alpha, eta = 1.2, 0.01
    config = _cfg(eta=eta, epsilon=1.0, alpha=alpha)
    draws = np.concatenate(
        [noise_increments(config, 1000, *[RngStream(32, i).generator()] * 3) for i in range(100)]
    )
    est = estimate_alpha(draws.ravel() / eta ** (1.0 / alpha), 100)
    assert abs(est.alpha_hat - alpha) < 0.1


def test_ornstein_uhlenbeck_stationary_variance():
    eta, eps = 0.1, 0.5
    config = _cfg(eta=eta, epsilon=eps, alpha=2.0, w0=(0.0,), max_steps=100_000)
    traj = simulate(config, quadratic(1), RngStream(95))
    tail = traj.points[1000:, 0]
    predicted = eps**2 * 2.0 * eta / (1.0 - (1.0 - eta) ** 2)
    assert tail.var() == pytest.approx(predicted, rel=0.05)


def test_divergence_marked_and_truncated():
    # quartic drift with a long step blows up from a far start
    config = _cfg(eta=0.9, epsilon=0.0, w0=(40.0,), max_steps=500)
    traj = simulate(config, double_well(-1.0, 2.0), RngStream(96))
    assert traj.diverged
    assert traj.diverged_step is not None
    assert traj.points.shape[0] == traj.diverged_step
    assert np.isfinite(traj.points).all()


def test_stationary_start_never_exits():
    config = _cfg(epsilon=0.0, w0=(0.0,), max_steps=100)
    rec = first_exit_ensemble(config, quadratic(1), 0.0, 1.0, RngStream(97), 1)[0]
    assert not rec.exited
    assert rec.exit_step is None
    assert not rec.diverged


def test_start_outside_ball_rejected():
    config = _cfg(w0=(3.0,))
    with pytest.raises(ParameterError):
        first_exit_ensemble(config, quadratic(1), 0.0, 1.0, RngStream(0), 1)


def test_exit_record_consistent_with_replayed_path():
    config = _cfg(eta=0.01, epsilon=0.3, alpha=1.5, w0=(0.0,), max_steps=2000)
    spec = quadratic(1)
    records = first_exit_ensemble(config, spec, 0.0, 0.8, RngStream(98), 6)
    replayed = 0
    for rec in records:
        if not rec.exited:
            continue
        traj = simulate(config, _undeclared(spec), RngStream(98).substream(rec.replicate))
        dist = np.abs(traj.points[:, 0])
        assert np.all(dist[: rec.exit_step] <= 0.8)
        assert dist[rec.exit_step] > 0.8
        replayed += 1
    assert replayed > 0


def test_exit_step_monotone_in_radius():
    config = _cfg(eta=0.01, epsilon=0.3, alpha=1.2, w0=(0.0,), max_steps=4000)
    spec = quadratic(1)
    by_radius = {}
    for a in (0.5, 1.0, 2.0):
        by_radius[a] = first_exit_ensemble(config, spec, 0.0, a, RngStream(99), 40)
    for r in range(40):
        steps = []
        for a in (0.5, 1.0, 2.0):
            rec = by_radius[a][r]
            steps.append(rec.exit_step if rec.exit_step is not None else config.max_steps + 1)
        assert steps[0] <= steps[1] <= steps[2]


def test_linear_fast_path_matches_generic_scan():
    config = _cfg(eta=0.003, epsilon=0.2, alpha=1.5, w0=(0.0,), max_steps=3000)
    spec = quadratic(1)
    generic = first_exit_ensemble(config, _undeclared(spec), 0.0, 1.0, RngStream(100), 20)
    fast = _declared_fast(config, spec, 0.0, 1.0, RngStream(100), 20)
    assert _outcomes(generic) == _outcomes(fast)


def test_unstable_linear_drift_falls_back():
    # eta * rate = 1.5 leaves the contraction band; the declared drift is
    # true but the engine must take the per-step loop
    stiff = ObjectiveSpec(dim=1, f=lambda w: 75.0 * w**2, grad=lambda w: 150.0 * w,
                          linear_drift=(150.0, 0.0))
    config = _cfg(eta=0.01, epsilon=0.3, w0=(0.0,), max_steps=1000)
    counted, calls = _counted(stiff)
    recs = first_exit_ensemble(config, counted, 0.0, 0.8, RngStream(101), 4)
    ref = first_exit_ensemble(config, _undeclared(stiff), 0.0, 0.8, RngStream(101), 4)
    assert _outcomes(recs) == _outcomes(ref)
    assert calls


def test_linear_scan_stiff_rate_matches_generic():
    # c = 0.9: c**-j over a full 8192-step chunk overflows unless the scan
    # splits the chunk into sub-blocks
    stiff = ObjectiveSpec(dim=1, f=lambda w: 50.0 * w**2, grad=lambda w: 100.0 * w,
                          linear_drift=(100.0, 0.0))
    config = _cfg(eta=1e-3, epsilon=0.3, alpha=1.5, w0=(0.0,), max_steps=20_000)
    fast = _declared_fast(config, stiff, 0.0, 0.5, RngStream(120), 50)
    ref = first_exit_ensemble(config, _undeclared(stiff), 0.0, 0.5, RngStream(120), 50)
    assert _outcomes(fast) == _outcomes(ref)
    assert not any(r.diverged for r in fast)


def test_linear_scan_shifted_center_matches_generic():
    # the scan must relax toward the declared center, not toward 0
    shifted = ObjectiveSpec(dim=1, f=lambda w: 0.5 * (w - 3.0) ** 2,
                            grad=lambda w: w - 3.0, linear_drift=(1.0, 3.0))
    config = _cfg(eta=1e-3, epsilon=0.1, alpha=1.5, w0=(3.0,), max_steps=20_000)
    fast = _declared_fast(config, shifted, 3.0, 1.0, RngStream(120), 50)
    ref = first_exit_ensemble(config, _undeclared(shifted), 3.0, 1.0, RngStream(120), 50)
    assert _outcomes(fast) == _outcomes(ref)
    assert 0 < sum(r.exited for r in fast) < 50


@pytest.mark.parametrize("declared", [True, False], ids=["linear", "generic"])
def test_exit_record_independent_of_ensemble_size(declared, monkeypatch):
    # replicate r runs on its own substream, whoever runs beside it and
    # however many threads run the lane tiles
    spec = quadratic(1) if declared else _undeclared(quadratic(1))
    config = _cfg(eta=0.01, epsilon=0.1, alpha=1.5, w0=(0.0,), max_steps=10_000)
    runs = []
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        full = first_exit_ensemble(config, spec, 0.0, 1.0, RngStream(121), 64)
        assert 0 < sum(r.exited for r in full) < 64
        for r in (0, 1, 17, 63):
            small = first_exit_ensemble(config, spec, 0.0, 1.0, RngStream(121), r + 1)
            assert small[r] == full[r]
        runs.append(full)
    assert runs[0] == runs[1] == runs[2]


def test_transition_record_independent_of_ensemble_size(monkeypatch):
    config = SdeConfig(eta=1e-3, epsilon=0.15, alpha=1.2, w0=(-1.0,), max_steps=30_000)
    spec = double_well(-1.0, 2.0)
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        full, full_div = first_transition_ensemble(config, spec, 0.2, RngStream(122), 64)
        by_rep = {rec.replicate: rec for rec in full}
        assert 0 < len(by_rep) < 64
        for r in (0, 1, 17, 63):
            small, small_div = first_transition_ensemble(config, spec, 0.2, RngStream(122), r + 1)
            assert {rec.replicate: rec for rec in small}.get(r) == by_rep.get(r)
            assert small_div[r] == full_div[r]


@pytest.mark.parametrize("threads", [1, 2])
def test_exit_records_at_tile_edges_equal_lone_runs(monkeypatch, threads):
    # 2, 31, 32, 33 and 65 lanes: one lane per CPU, one or two tiles at the
    # TILE edge, three tiles; each record equals its replicate run alone,
    # and the tiles run on the pool whenever two CPUs are usable
    config = _cfg(eta=0.01, epsilon=0.1, alpha=1.5, w0=(0.0,), max_steps=6000)
    spec, rng = quadratic(1), RngStream(123)
    alone = [dataclasses.replace(first_exit_ensemble(config, spec, 0.0, 1.0,
                                                     _Alone(rng, r), 1)[0], replicate=r)
             for r in range(65)]
    assert 0 < sum(r.exited for r in alone) < 65
    _threads(monkeypatch, threads)
    for n in (2, 31, 32, 33, 65):
        drawn = _Drawn(rng)
        assert first_exit_ensemble(config, spec, 0.0, 1.0, drawn, n) == alone[:n]
        assert drawn.on_main() == {threads == 1}


def test_linear_scan_outcomes_independent_of_tile_size_and_threads(monkeypatch):
    # every tile split of TILE 1, 7 and 32 at 1, 2 and 3 CPUs.  A merge that
    # retires every lane but lane 0 after the first block leaves one active
    # lane, fewer than the CPUs, in each of the four later chunks, whose path
    # is its lone run's; the exit run's lanes carry their positions over
    # chunks, and about a quarter of the occupancy lanes overflow in the
    # exact scan
    exit_config = _cfg(eta=0.01, epsilon=0.05, alpha=1.5, w0=(0.0,), max_steps=15_000)
    occ_config = SdeConfig(eta=0.01, epsilon=1e294, alpha=0.8, w0=(0.0,), max_steps=3500)
    streams = [RngStream(127).substream(r) for r in range(40)]
    lone = simulate(exit_config, _slow_drift(), streams[0])
    assert not lone.diverged
    runs = []
    for tile in (1, 7, 32):
        monkeypatch.setattr(sde, "TILE", tile)
        for threads in (1, 2, 3):
            _threads(monkeypatch, threads)
            path, active, _ = _lane_0_path(exit_config, _slow_drift(), streams)
            assert active == {0: 40, 3000: 1, 6000: 1, 9000: 1, 12000: 1}
            assert path.tobytes() == lone.points[1:].tobytes()
            records = first_exit_ensemble(exit_config, _slow_drift(), 0.0, 0.6,
                                          RngStream(127), 40)
            runs.append((records, occupancy_ensemble(occ_config, quadratic(1),
                                                     RngStream(130), 40)))
    records, (frac, n_div) = runs[0]
    assert 0 < sum(r.exited for r in records) < 40 and 0 < n_div < 40
    for other, (other_frac, other_div) in runs[1:]:
        assert other == records
        assert np.array_equal(other_frac, frac) and other_div == n_div


def test_per_step_outcomes_independent_of_tile_size_and_threads(monkeypatch):
    # every tile split of TILE 1, 7 and 32 at 1, 2 and 3 CPUs on the quartic.
    # A merge that retires every lane but lane 0 after the first block leaves
    # one active lane in each of the three later chunks, whose path is its
    # lone run's; the occupancy run's burn-in ends inside its second chunk.
    # Tiles are filled and observed off the calling thread exactly when there
    # are two CPUs or more and two lanes
    trans_config = SdeConfig(eta=0.01, epsilon=0.2, alpha=1.2, w0=(-1.0,), max_steps=12_000)
    occ_config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=6000)
    spec = double_well(-1.0, 2.0)
    streams = [RngStream(153).substream(r) for r in range(40)]
    lone = simulate(trans_config, spec, streams[0])
    assert not lone.diverged
    runs = []
    for tile in (1, 7, 32):
        monkeypatch.setattr(sde, "TILE", tile)
        for threads in (1, 2, 3):
            _threads(monkeypatch, threads)
            path, active, on_main = _lane_0_path(trans_config, spec, streams)
            assert active == {0: 40, 3000: 1, 6000: 1, 9000: 1}
            assert path.tobytes() == lone.points[1:].tobytes()
            assert on_main == {threads == 1}
            drawn = _Drawn(RngStream(153))
            transitions = first_transition_ensemble(trans_config, spec, 0.2, drawn, 40)
            occupancy = occupancy_ensemble(occ_config, spec, _Drawn(RngStream(141), log=drawn.log),
                                           40, burn_in=4000)
            assert drawn.on_main() == {threads == 1}
            drawn = _Drawn(RngStream(153))
            first_transition_ensemble(trans_config, spec, 0.2, drawn, 1)
            assert drawn.on_main() == {True}
            runs.append((transitions, occupancy))
    ((records, div), (frac, n_div)), *others = runs
    assert 0 < div.sum() and 0 < len(records) < 40 and 0 < n_div < 40
    for (other_records, other_div), (other_frac, other_n_div) in others:
        assert other_records == records and np.array_equal(other_div, div)
        assert np.array_equal(other_frac, frac) and other_n_div == n_div


def test_occupancy_with_diverging_lanes_independent_of_threads(monkeypatch):
    # 100 lanes in four tiles; about a quarter overflow in the exact scan
    config = SdeConfig(eta=0.01, epsilon=1e294, alpha=0.8, w0=(0.0,), max_steps=6000)
    runs = []
    for threads in (1, 2):
        _threads(monkeypatch, threads)
        runs.append(occupancy_ensemble(config, quadratic(1), RngStream(130), 100))
    (frac1, div1), (frac2, div2) = runs
    assert 0 < div1 < 100
    assert np.array_equal(frac1, frac2) and div1 == div2


@pytest.mark.parametrize("c", [0.0, -2.5])
@pytest.mark.parametrize("thr", [1.0, 0.3, 1e-100, 1e100])
def test_1d_exit_detector_decides_like_the_distance(thr, c):
    edge = [thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf)]
    x = edge + [-v for v in edge] + [0.0, -0.0, np.inf, -np.inf, np.nan,
                                     5e-324, -5e-324, 1e-310, 1e200, -1e200]
    W = np.array(x)[None, :, None]
    center = np.array([c])
    with np.errstate(all="ignore"):
        distance = np.sqrt(np.sum((W - center) ** 2, axis=2)) > thr
    assert np.array_equal(sde._outside_ball(W, center, thr), distance)


def test_1d_exit_detector_is_exact_where_the_square_overflows():
    # (1e160)**2 overflows, so a squared distance put this iterate outside a 1e200 ball
    W = np.array([1e160, -1e160, 2e200])[None, :, None]
    assert sde._outside_ball(W, np.zeros(1), 1e200).tolist() == [[False, False, True]]


def test_2d_exit_detector_is_exact_where_the_square_overflows_or_underflows():
    # distances 1e160 and 1.4e160 lie inside a 1e200 ball and 2e200 outside;
    # 1e-160 and 1.4e-170 lie outside a 1e-200 ball, 1e-210 and 0 inside
    outside = sde._outside_ball
    with np.errstate(all="ignore"):  # as the engine calls it
        assert not outside(np.array([[[1e160, 0.0]]]), np.zeros(2), 1e200)
        assert outside(np.array([[[1e-160, 0.0]]]), np.zeros(2), 1e-200)
        W = np.array([[[1e160, 0.0], [-1e160, 1e160], [0.0, 2e200]]])
        assert outside(W, np.zeros(2), 1e200).tolist() == [[False, False, True]]
        W = np.array([[[1e-160, 0.0], [1e-170, -1e-170], [0.0, 1e-210], [3.0, -2.0]]])
        assert outside(W, np.zeros(2), 1e-200)[0, :3].tolist() == [True, True, False]
        assert not outside(W, np.array([3.0, -2.0]), 1e-200)[0, 3]
        W = np.array([[[np.inf, 0.0], [-np.inf, 1e160], [np.nan, 1e160], [np.nan, np.inf]]])
        assert outside(W, np.zeros(2), 1e200).tolist() == [[True, True, False, False]]


@pytest.mark.parametrize("thr", [1.0, 0.3, 1e-100, 1e100])
def test_2d_exit_detector_keeps_the_distance_where_squares_are_normal(thr):
    # the exit-2d payload depends on this form staying as it was
    rng = np.random.default_rng(145)
    W = thr * rng.uniform(-1.5, 1.5, (1, 400, 2))
    center = np.array([0.25 * thr, -0.5 * thr])
    distance = np.sqrt(np.sum((W - center) ** 2, axis=2)) > thr
    assert 0 < distance.sum() < 400
    assert np.array_equal(sde._outside_ball(W, center, thr), distance)


@pytest.mark.parametrize("t", [-1.0, 0.0, 2.0, 0.3, 1e-300, 1e300])
@pytest.mark.parametrize("delta", [0.2, 0.7, 1e-17, 5e-324])
def test_transition_window_decides_like_the_distance(t, delta):
    # every float within six steps of t, t +- delta and the window's edges
    lo, hi = sde._edge(t, delta, -np.inf), sde._edge(t, delta, np.inf)
    x = [np.inf, -np.inf, np.nan]
    for edge in (t, t - delta, t + delta, lo, hi):
        for way in (-np.inf, np.inf):
            v = edge
            for _ in range(6):
                x.append(v)
                v = np.nextafter(v, way)
    x = np.array(x)
    with np.errstate(all="ignore"):
        distance = np.abs(x - t) <= delta
    assert np.array_equal((lo <= x) & (x <= hi), distance)


def test_tile_task_error_surfaces_and_threads_stop(monkeypatch):
    _threads(monkeypatch, 2)
    boom = ParameterError("lane 40 failed")
    rng = _Drawn(RngStream(124), fail=(40, boom))
    before = threading.active_count()
    with pytest.raises(ParameterError) as err:
        first_exit_ensemble(_cfg(max_steps=2000), quadratic(1), 0.0, 1.0, rng, 65)
    assert err.value is boom
    assert threading.active_count() == before


def test_threaded_diverging_ensemble_warns_nothing(monkeypatch):
    # pool threads do not inherit the caller's errstate; overflow in a tile
    # task must stay as silent as on the calling thread
    _threads(monkeypatch, 2)
    config = SdeConfig(eta=0.01, epsilon=1e294, alpha=0.8, w0=(0.0,), max_steps=6000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = first_exit_ensemble(config, quadratic(1), 0.0, 1e300,
                                      RngStream(131), 65)
    assert any(r.diverged for r in records)


def _per_step_exits(config, spec, rng, n, thr):
    """(exited, exit_step, diverged) per replicate from a plain per-step loop.

    Each lane draws its noise chunk by chunk from its own substream, with the
    engine's chunk lengths, and carries its position from step to step.
    """
    L = sde._chunk_len(config.eta, config.max_steps)
    out = []
    for r in range(n):
        gen, w, step, rec = rng.substream(r).generator(), np.asarray(config.w0), 0, None
        while rec is None and step < config.max_steps:
            for inc in noise_increments(config, min(L, config.max_steps - step), gen, gen, gen):
                w = w - config.eta * spec.grad(w) + inc
                step += 1
                if not np.isfinite(w).all() or abs(w[0]) > thr:
                    rec = (bool(np.isfinite(w).all()), step, not np.isfinite(w).all())
                    break
        out.append(rec or (False, None, False))
    return out


@pytest.mark.parametrize("declared", [True, False], ids=["linear", "generic"])
def test_multichunk_exit_records_equal_a_per_step_loop(declared):
    # four chunks of 3000, 3000, 3000 and 1000 steps, and a drift slow enough
    # (e^-1.5 per chunk) that a lane restarted at w0 leaves at another step:
    # a lane that lives past a chunk must start the next one where it stopped
    slow = _slow_drift()
    config = _cfg(eta=0.01, epsilon=0.04, alpha=1.5, w0=(0.0,), max_steps=10_000)
    rng = RngStream(150)
    loop = _per_step_exits(config, slow, rng, 16, 0.5)
    if declared:
        records = _declared_fast(config, slow, 0.0, 0.5, rng, 16)
    else:
        records = first_exit_ensemble(config, _undeclared(slow), 0.0, 0.5, rng, 16)
    assert _outcomes(records) == loop
    chunk = sde._chunk_len(config.eta, config.max_steps)
    assert {s // chunk for _, s, _ in loop if s is not None} >= {1, 2}
    assert any(s is None for _, s, _ in loop)


def test_pooled_generic_transition_records_independent_of_threads(monkeypatch):
    # 300 lanes over three chunks; 21 lanes diverge on the quartic
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=7000)
    runs = []
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        runs.append(first_transition_ensemble(config, double_well(-1.0, 2.0), 0.2,
                                              RngStream(140), 300))
    (recs, div), *others = runs
    assert 0 < div.sum() and 0 < len(recs) < 300
    assert any(r.transition_step > sde._chunk_len(config.eta, config.max_steps) for r in recs)
    for other_recs, other_div in others:
        assert other_recs == recs and np.array_equal(other_div, div)


def test_pooled_generic_exit_records_equal_lone_runs(monkeypatch):
    # tiles of 1 to 24 lanes, each filled by one task; each record equals its
    # replicate run alone, and noise is drawn off the calling thread exactly
    # when there are two threads or more and more than one lane
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=7000)
    spec, rng = double_well(-1.0, 2.0), RngStream(143)
    alone = [dataclasses.replace(first_exit_ensemble(config, spec, -1.0, 10.0,
                                                     _Alone(rng, r), 1)[0], replicate=r)
             for r in range(33)]
    assert 0 < sum(r.exited for r in alone) < 33
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        for n in (1, 2, 3, 24, 33):
            drawn = _Drawn(rng)
            assert first_exit_ensemble(config, spec, -1.0, 10.0, drawn, n) == alone[:n]
            assert drawn.on_main() == {threads == 1 or n == 1}


def test_pooled_generic_occupancy_independent_of_threads(monkeypatch):
    # 24 lanes on the quartic, 6 of which diverge
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=6000)
    runs = []
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        runs.append(occupancy_ensemble(config, double_well(-1.0, 2.0), RngStream(141), 24))
    (frac, div), *others = runs
    assert 0 < div < 24
    for other_frac, other_div in others:
        assert np.array_equal(other_frac, frac) and other_div == div


@pytest.mark.parametrize("threads", [2, 3])
def test_pooled_fill_error_surfaces_and_threads_stop(monkeypatch, threads):
    _threads(monkeypatch, threads)
    boom = ParameterError("lane 20 failed")
    rng = _Drawn(RngStream(144), fail=(20, boom))
    before = threading.active_count()
    with pytest.raises(ParameterError) as err:
        first_exit_ensemble(_cfg(w0=(-1.0,), max_steps=2000), double_well(-1.0, 2.0),
                            -1.0, 1.0, rng, 24)
    assert err.value is boom
    assert threading.active_count() == before


def test_pooled_fill_of_diverging_ensemble_warns_nothing(monkeypatch):
    # the fill's own overflow happens on pool threads, the scan's on the
    # calling thread; both stay silent
    _threads(monkeypatch, 2)
    config = SdeConfig(eta=0.01, epsilon=1e306, alpha=0.8, w0=(-1.0,), max_steps=6000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = first_exit_ensemble(config, double_well(-1.0, 2.0), -1.0, 1e308,
                                      RngStream(131), 24)
    assert any(r.diverged for r in records)


@pytest.mark.parametrize("alpha,sigma_b,dim", [(0.8, 0.0, 1), (1.0, 0.0, 1), (1.5, 0.0, 1),
                                               (2.0, 0.0, 1), (1.5, 0.5, 1), (2.0, 0.5, 1),
                                               (1.3, 0.3, 2)])
def test_per_step_pieces_draw_whole_chunks(monkeypatch, alpha, sigma_b, dim):
    # a budget of 67 variates per lane splits the 1500-step first chunk of 9
    # lanes into pieces of 67 // dim steps, the last ragged; a stored path,
    # exit records and occupancy are the whole-chunk ones bit for bit at 1, 2
    # and 3 threads.  Alpha 1 still draws exponentials, alpha 2 draws
    # normals, and the Brownian normals start where the stable draws end
    config = SdeConfig(eta=0.02, epsilon=0.15, alpha=alpha, w0=(-1.0,) + (0.0,) * (dim - 1),
                       sigma_brownian=sigma_b, max_steps=1800)
    if dim == 1:
        spec, center, a = double_well(-1.0, 2.0), -1.0, 1.0
    else:
        spec, center, a = _undeclared(quadratic(2)), (0.0, 0.0), 1.5

    def run(stream):
        path = simulate(config, spec, stream(160)).points
        exits = first_exit_ensemble(config, spec, center, a, stream(161), 9)
        if dim > 1:
            return path.tobytes(), exits
        fractions, n_div = occupancy_ensemble(config, spec, stream(162), 9)
        return path.tobytes(), exits, fractions.tobytes(), n_div

    whole = run(RngStream)
    drawn = []
    monkeypatch.setattr(sde, "BUDGET", 67 * 9)
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        assert run(lambda seed: _Drawn(RngStream(seed), log=drawn)) == whole
    rows = 67 // dim
    assert {rows, 1500 % rows} <= {size[0] for _, _, size in drawn}


def test_lanes_retire_per_piece_with_whole_chunk_records(monkeypatch):
    # 40 lanes in 600-step chunks, drawn in pieces of 100 steps: some lanes
    # cross in the first piece and draw nothing after it, some only after the
    # first chunk; the records are the whole-chunk ones at 1, 2 and 3
    # threads, and fewer rows are drawn in the first chunk: the one chunk a
    # lane drawn in pieces logs, and each lane's first draw in the whole run
    config = SdeConfig(eta=0.05, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=3000)
    spec = double_well(-1.0, 2.0)
    drawn = _Drawn(RngStream(163))
    records, div = first_transition_ensemble(config, spec, 0.2, drawn, 40)
    steps = [r.transition_step for r in records]
    assert min(steps) <= 100 and max(steps) > sde._chunk_len(config.eta, config.max_steps)
    first = {lane: size[0] for lane, _, size in reversed(drawn.log)}
    whole_rows = sum(first.values())
    monkeypatch.setattr(sde, "BUDGET", 100 * 40)
    for threads in (1, 2, 3):
        _threads(monkeypatch, threads)
        drawn = _Drawn(RngStream(163))
        piece_records, piece_div = first_transition_ensemble(config, spec, 0.2, drawn, 40)
        assert piece_records == records and np.array_equal(piece_div, div)
        assert sum(size[0] for _, _, size in drawn.log) < whole_rows


@pytest.mark.parametrize("threads", [2, 3])
def test_per_step_pieces_fill_the_tiles_they_observe(monkeypatch, threads):
    # 70 lanes in 600-step chunks, the first drawn in pieces of 100 steps.
    # After the piece at step s the merge retires the lanes ranked 60 - s // 10
    # and up (rank 37 * lane mod 70), so the pieces hold 70, 60, ..., 10
    # scattered lanes; Gaussian noise keeps every lane finite, so none
    # retires on its own.  Each piece's fill calls take exactly the lanes of
    # its observe tiles, the tile rule's split of the active lanes, and fill
    # the very views those tiles observe
    _threads(monkeypatch, threads)
    config = SdeConfig(eta=0.05, epsilon=0.1, alpha=2.0, w0=(-1.0,), max_steps=1200)
    monkeypatch.setattr(sde, "BUDGET", 100 * 70)
    rank = np.arange(70) * 37 % 70
    starts, fills, views = [], {}, {}
    fill, observe = sde._fill, sde._observe

    def fill_spy(config, draws, lanes, W):
        fills.setdefault(len(starts), []).append((id(W), tuple(lanes.tolist())))
        return fill(config, draws, lanes, W)

    def observe_spy(W, reduce, done):
        views.setdefault(done, set()).add(id(W))
        return observe(W, reduce, done)

    def merge(lanes, done, result):
        if not starts or starts[-1] != done:
            starts.append(done)
        return rank[lanes] >= 60 - done // 10

    monkeypatch.setattr(sde, "_fill", fill_spy)
    monkeypatch.setattr(sde, "_observe", observe_spy)
    streams = [RngStream(164).substream(r) for r in range(70)]
    sde._run_lanes(config, double_well(-1.0, 2.0), streams, lambda *block: None, merge)
    assert starts == list(range(0, 700, 100)) and len(fills) == len(starts)
    for k, start in enumerate(starts):
        active = np.flatnonzero(rank < 70 - 10 * k)
        tiles = np.array_split(active, max(-(-active.size // sde.TILE), min(threads, active.size)))
        assert sorted(lanes for _, lanes in fills[k]) == [tuple(t.tolist()) for t in tiles]
        assert {view for view, _ in fills[k]} == views[start]


def test_diverged_lane_not_counted_as_exit():
    # long steps on the quartic overflow; with this ball radius some lanes
    # hit non-finite values while still inside and others leave first
    config = SdeConfig(eta=0.4, epsilon=5.0, alpha=1.2, w0=(-1.0,), max_steps=800)
    spec = double_well(-1.0, 2.0)
    records = first_exit_ensemble(config, spec, -1.0, 1e200, RngStream(102), 30)
    n_div = sum(r.diverged for r in records)
    n_exit = sum(r.exited for r in records)
    assert n_div > 0 and n_exit > 0
    for rec in records:
        if rec.diverged:
            assert not rec.exited


def test_quiet_path_has_no_transition():
    config = _cfg(epsilon=0.0, w0=(-1.0,), max_steps=300)
    records, diverged = first_transition_ensemble(
        config, double_well(-1.0, 2.0), 0.2, RngStream(103), 1
    )
    assert records == []
    assert not diverged.any()


def test_transition_requires_geometry():
    bare = ObjectiveSpec(dim=1, f=lambda w: 0.5 * w**2, grad=lambda w: w)
    with pytest.raises(ParameterError):
        first_transition_ensemble(_cfg(), bare, 0.1, RngStream(0), 1)


def test_oversized_delta_rejected():
    with pytest.raises(ParameterError):
        first_transition_ensemble(
            _cfg(w0=(-1.0,)), double_well(-1.0, 2.0), 1.5, RngStream(0), 1
        )


@pytest.mark.parametrize("delta", [0.0, float("nan")])
def test_delta_must_be_positive(delta):
    with pytest.raises(ParameterError, match="delta must be positive"):
        first_transition_ensemble(
            _cfg(w0=(-1.0,)), double_well(-1.0, 2.0), delta, RngStream(0), 1
        )


def test_two_basin_transitions_all_land_in_other_basin():
    config = SdeConfig(eta=1e-3, epsilon=0.1, alpha=1.2, w0=(-1.0,), max_steps=250_000)
    spec = double_well(-1.0, 2.0)
    records, diverged = first_transition_ensemble(config, spec, 0.2, RngStream(104), 25)
    assert len(records) >= 20
    assert all(r.start_basin == 0 and r.end_basin == 1 for r in records)
    assert all(r.transition_time == pytest.approx(r.transition_step * config.eta)
               for r in records)


def test_three_basin_transitions_land_in_the_nearby_neighbor():
    # from the middle valley a lane reaches either neighbor; each record's
    # end basin holds the lone run's position at the transition step
    spec = ObjectiveSpec(dim=1, f=lambda w: w**6 / 6 - 1.25 * w**4 + 2 * w**2,
                         grad=lambda w: w * (w**2 - 1) * (w**2 - 4),
                         minima=(-2.0, 0.0, 2.0), saddles=(-1.0, 1.0))
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(0.0,), max_steps=5000)
    rng = RngStream(161)
    records, _ = first_transition_ensemble(config, spec, 0.3, rng, 20)
    assert {r.end_basin for r in records} == {0, 2}
    for rec in records:
        assert rec.start_basin == 1
        path = simulate(config, spec, rng.substream(rec.replicate)).points
        assert abs(path[rec.transition_step, 0] - spec.minima[rec.end_basin]) <= 0.3


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_transition_peak_memory_stays_near_one_block(monkeypatch, threads):
    # the per-step piece's (rows, A, d) block, at most BUDGET variates, is the
    # one block-sized array; its tiles are observed without block-sized
    # temporaries
    _threads(monkeypatch, threads)
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=8192)
    L = sde._chunk_len(config.eta, config.max_steps)
    tracemalloc.start()
    try:
        first_transition_ensemble(config, double_well(-1.0, 2.0), 0.2, RngStream(7), 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 300 * L * 8
    assert peak < 2 * sde.BUDGET * 8


def test_per_step_peak_memory_does_not_follow_the_lanes(monkeypatch):
    # four times the lanes over the same 2048-step chunk hold pieces of a
    # quarter the length, so the peak grows only by per-lane state
    _threads(monkeypatch, 2)
    config = SdeConfig(eta=0.01, epsilon=0.3, alpha=1.2, w0=(-1.0,), max_steps=2048)
    peaks = []
    for lanes in (300, 1200):
        tracemalloc.start()
        try:
            first_transition_ensemble(config, double_well(-1.0, 2.0), 0.2, RngStream(7), lanes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.6 * peaks[0]


def test_occupancy_of_single_valley_path():
    config = _cfg(epsilon=0.0, w0=(-1.0,), max_steps=100)
    spec = double_well(-1.0, 2.0)
    fractions, n_div = occupancy_ensemble(config, spec, RngStream(105), 1)
    assert fractions == pytest.approx([1.0, 0.0])
    assert n_div == 0


def test_occupancy_symmetric_well_balances():
    spec = double_well(-1.0, 1.0)
    config = SdeConfig(eta=1e-3, epsilon=0.15, alpha=1.2, w0=(-1.0,), max_steps=150_000)
    fractions, n_div = occupancy_ensemble(config, spec, RngStream(106), 8, burn_in=15_000)
    assert fractions.sum() == pytest.approx(1.0)
    assert abs(fractions[0] - 0.5) < 0.05
    assert n_div < 8


def test_occupancy_with_every_lane_diverged_is_an_error():
    # long steps from a large kick overflow the quartic in every lane; there
    # is no finite occupancy to report
    config = SdeConfig(eta=0.3, epsilon=3.0, alpha=1.1, w0=(-1,), max_steps=5000)
    with pytest.raises(ParameterError, match="all 16 lanes diverged"):
        occupancy_ensemble(config, double_well(-1, 2), RngStream(10), 16, burn_in=10)


def test_occupancy_requires_geometry():
    bare = ObjectiveSpec(dim=1, f=lambda w: 0.5 * w**2, grad=lambda w: w)
    config = _cfg(max_steps=10)
    with pytest.raises(ParameterError):
        occupancy_ensemble(config, bare, RngStream(107), 1)
