"""Euler simulation of gradient flow driven by Brownian plus stable noise.

The discrete process is

    w[k+1] = w[k] - eta * grad f(w[k])
             + eps * sigma_brownian * sqrt(eta) * Z[k+1]
             + eps * eta**(1/alpha) * S[k+1],

with Z standard normal and S scale-1 symmetric alpha-stable, drawn
independently per component.  The eta**(1/alpha) factor makes the stable
term an exact increment of the driving motion over a step of length eta, so
a finer step discretizes the same continuous-time process.

One chunked engine, ``_run_lanes``, advances every simulation: lanes move
in lockstep, each on its own substream, and an observer (first exit, first
transition, valley counts, stored path) sees each block of steps once, in
lane tiles on the shared pool of ``parallel``; ``_run_lanes`` describes the
chunk, piece, tile and fill layout.  A lane's path depends on its stream
and on its chunk lengths, which CHUNK_CAP, eta and max_steps set, so it is
reproducible per replicate and the same at any ensemble size, tile split
and thread count.  A chunk draws all its uniforms, then all its
exponentials, so a step cap that changes a chunk's length changes the
path; an exit radius never moves the path (enlarging one can only delay
the recorded exit on the same path).  A chunk is scanned exactly when the
objective declares linear drift with 0 < 1 - eta*rate < 1, and stepped
row by row otherwise.  ``simulate`` is a one-lane ensemble and scans the
same way.  Extreme draws are never truncated; an iterate that leaves float
range halts its path with a divergence marker, which exit measurements
count separately and never silently merge into exit statistics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import parallel
from .csvfmt import CsvRecord
from .errors import ParameterError
from .objectives import ObjectiveSpec
from .rng import RngStream
from .stable import piece_generators, sample_standard_sas

CHUNK_CAP = 8192
TILE = 32
# Variates in one per-step block (4 MiB of float64), which sets the piece
# length; each piece costs one draw call per lane, so a smaller budget
# costs wall time.
BUDGET = 2**19


@dataclass(frozen=True)
class SdeConfig:
    """Discretization and noise parameters for one simulation run."""

    eta: float
    epsilon: float
    alpha: float
    w0: tuple[float, ...]
    sigma_brownian: float = 0.0
    max_steps: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.eta < math.inf):
            raise ParameterError(f"eta must be positive and finite, got {self.eta}")
        if not (0.0 <= self.epsilon < math.inf):
            raise ParameterError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not (0.0 <= self.sigma_brownian < math.inf):
            raise ParameterError(
                f"sigma_brownian must be nonnegative and finite, got {self.sigma_brownian}"
            )
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps}")
        w0 = tuple(float(v) for v in np.atleast_1d(np.asarray(self.w0, dtype=float)))
        if len(w0) < 1:
            raise ParameterError("w0 must have at least one component")
        if not all(map(math.isfinite, w0)):
            raise ParameterError(f"w0 must be finite, got {w0}")
        object.__setattr__(self, "w0", w0)

    @property
    def dim(self) -> int:
        return len(self.w0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored iterates w^0 .. w^T (finite ones only) plus divergence marker."""

    points: np.ndarray  # shape (T+1, dim)
    eta: float
    diverged: bool = False
    diverged_step: int | None = None


@dataclass(frozen=True)
class ExitTimeRecord(CsvRecord):
    """First-exit outcome of one replicate."""

    CSV_HEADER = "replicate,exited,exit_step,exit_time,radius_a,diverged"

    replicate: int
    exited: bool
    exit_step: int | None
    exit_time: float | None
    radius_a: float
    diverged: bool = False


@dataclass(frozen=True)
class TransitionRecord(CsvRecord):
    """One recorded hop between minimum neighborhoods."""

    CSV_HEADER = "replicate,start_basin,end_basin,transition_step,transition_time"

    replicate: int
    start_basin: int
    end_basin: int
    transition_step: int
    transition_time: float


def _chunk_len(eta: float, max_steps: int) -> int:
    # Each lane draws its noise one chunk at a time, and the stable sampler
    # draws the chunk's whole uniform block before its exponential block, so
    # the chunk length decides which variate drives which step (pieces of a
    # chunk keep its bytes; see ``stable.piece_generators``).  Changing it
    # changes every path and every payload byte; the 30/eta cap stays as is.
    cap = max(64, min(CHUNK_CAP, math.ceil(30.0 / eta)))
    return min(cap, max_steps)


def noise_increments(config: SdeConfig, n_steps: int, gen: np.random.Generator,
                     exp_gen: np.random.Generator,
                     normal_gen: np.random.Generator) -> np.ndarray:
    """Combined per-step noise increments, shape (n_steps, dim).

    The stable block's uniforms (or its normals at alpha = 2) come from
    ``gen``, its exponentials from ``exp_gen``, and the Brownian block, when
    sigma_brownian > 0, from ``normal_gen``.  One generator passed three
    times draws a chunk in the fixed order (uniforms, then exponentials,
    then Brownian normals) that makes paths reproducible from the stream
    and the chunk lengths; the generators of ``stable.piece_generators``
    make consecutive pieces of a chunk give that order's bytes.
    """
    d = config.dim
    amp_s = config.epsilon * config.eta ** (1.0 / config.alpha)
    inc = amp_s * sample_standard_sas(config.alpha, (n_steps, d), gen, exp_gen)
    if config.sigma_brownian > 0.0:
        amp_z = config.epsilon * config.sigma_brownian * math.sqrt(config.eta)
        inc += amp_z * normal_gen.normal(0.0, 1.0, (n_steps, d))
    return inc


def _scan_chunk_generic(P, wa, spec, eta):
    """Per-step Euler scan; overwrites the (L, A, d) time-major increments with positions."""
    for row in P:
        np.add(wa - eta * spec.grad(wa), row, out=row)
        wa = row


def _scan_chunk_linear(inc, wa, rate, center, eta):
    """Exact scan of u[k+1] = c u[k] + n[k], u = w - center, c = 1 - eta*rate.

    Over a sub-block of B steps, u_j = c^j (u_0 + sum_{i<=j} n_i c^-i).  B is
    at most 30/(rate*eta), so c^-B stays near e^30, and at most 700/-log(c),
    which bounds it when c is near 0.  The chunk itself is never shortened,
    since that would change the noise draws.  Overwrites the (A, L, d)
    increments with positions.
    """
    c = 1.0 - eta * rate
    L = inc.shape[1]
    B = max(1, min(math.ceil(30.0 / (rate * eta)), math.floor(700.0 / -math.log(c))))
    j = np.arange(1, min(B, L) + 1)
    cpos = (c**j)[None, :, None]
    cneg = (c ** (-j))[None, :, None]
    u = wa - center
    for s in range(0, L, B):
        blk = inc[:, s : s + B]
        n = blk.shape[1]
        blk *= cneg[:, :n]
        np.cumsum(blk, axis=1, out=blk)
        blk += u[:, None, :]
        blk *= cpos[:, :n]
        u = blk[:, -1]
    if center.any():
        inc += center


def _observe(W, reduce, done):
    """Last positions, ``reduce(done, W, finite)`` and divergence mask of one (A, L, d) block."""
    finite = np.isfinite(W).all(axis=2)
    return W[:, -1].copy(), reduce(done, W, finite), ~finite.all(axis=1)


def _fill(config, draws, lanes, W):
    """Draw lane ``lanes[i]``'s noise into ``W[i]`` of the lane-major (A, L, d) block or view W."""
    for i, rid in enumerate(lanes):
        W[i] = noise_increments(config, W.shape[1], *draws[rid])


def _fill_and_scan(config, draws, lanes, wa, L, scan, reduce, done, scratch):
    """Noise fill, scan and observation of one tile, whose (A, L, d) block stays here.

    The block is a view of ``scratch.buf``, one buffer per thread that each
    of its tiles reuses: a block freed after every tile let the allocator
    hand its pages back, and faulting them in again cost about a tenth of a
    one-CPU run.
    """
    n = lanes.size * L * config.dim
    if getattr(scratch, "buf", np.empty(0)).size < n:
        scratch.buf = np.empty(n)
    W = scratch.buf[:n].reshape(lanes.size, L, config.dim)
    _fill(config, draws, lanes, W)
    scan(W, wa)
    return _observe(W, reduce, done)


def _fill_and_step(pool, config, draws, tiles, wa, L, spec, reduce, done):
    """The per-step piece of the lanes of ``tiles``: one ``_observe`` result per tile.

    Each tile's block is a basic slice of the (L, A, d) block, viewed lane
    major, which one task fills and, after the rows are stepped, one task
    observes, so no tile is copied.  The block is local and the results
    share no memory with it, so it is freed before the next piece allocates
    its own.
    """
    P = np.empty((L, wa.shape[0], config.dim))
    views = [V.transpose(1, 0, 2)
             for V in np.split(P, np.cumsum([lanes.size for lanes in tiles])[:-1], axis=1)]
    list(parallel.run_tasks(pool, _fill, [(config, draws, lanes, W)
                                          for lanes, W in zip(tiles, views)]))
    _scan_chunk_generic(P, wa, spec, config.eta)
    return list(parallel.run_tasks(pool, _observe, [(W, reduce, done) for W in views]))


def _run_lanes(config, spec, streams, reduce, merge):
    """Advance one lane per stream, chunk by chunk, until all retire or time out.

    The observer comes in two parts.  ``reduce(done, W, finite)`` gets the
    steps before the block, one tile's (A, L, d) positions and their
    (A, L) finite mask, and returns a small result that shares no memory
    with the block, whose memory the next tile or piece reuses; it must not
    write to shared state, since tiles reduce concurrently.  ``merge(lanes,
    done, result)`` gets the tile's running lane ids and that result on the
    calling thread, in lane order, and returns the mask (or False) of lanes
    it is done with.  Lanes that reach a non-finite iterate retire too.

    A block's A active lanes split into max(ceil(A / TILE), min(workers, A))
    near-equal tiles, with workers the usable CPUs, and one task per tile
    observes it, returning only its last row, its result and its divergence
    mask.  Under the linear scan the block is the whole chunk, and the same
    task first fills and scans the tile in a per-thread buffer.  The
    per-step scan holds a chunk time-major, in pieces of max(1, BUDGET //
    (A * d)) steps, with A the lanes active at the chunk start: each piece
    is one (rows, A, d) block, and each tile is a lane-major view of its
    columns, which one task fills lane by lane; the calling thread then
    steps the rows, one task per tile observes the same view, and the merge
    retires lanes before the next piece, so a lane that stops draws no
    further piece.  A chunk in one piece takes all three of
    noise_increments' generators from the lane's generator; in more, they
    come from ``stable.piece_generators``, so the pieces draw the chunk
    exactly as one piece would, and at the chunk end the lane goes on with
    the generator that drew last.  Tasks run on one thread per usable CPU
    when there are two or more and at least two lanes.  The next block
    starts only after every result is merged, so a lane's generators are
    used by one thread at a time.
    """
    if spec.dim != config.dim:
        raise ParameterError(f"objective dim {spec.dim} != config dim {config.dim}")
    eta = config.eta
    drift = spec.linear_drift
    if drift is not None and not (0.0 < 1.0 - eta * drift[0] < 1.0):
        drift = None
    gens = [s.generator() for s in streams]
    if drift is not None:
        scan = partial(_scan_chunk_linear, rate=drift[0], center=np.asarray(drift[1]), eta=eta)
    w = np.tile(np.asarray(config.w0), (len(gens), 1))
    active = np.arange(len(gens))
    done = 0
    L0 = _chunk_len(eta, config.max_steps)
    workers = parallel.usable_cpus()
    scratch = threading.local()
    with parallel.task_pool(len(gens)) as pool, np.errstate(all="ignore"):
        while active.size and done < config.max_steps:
            L = min(L0, config.max_steps - done)
            rows = L if drift is not None else max(1, BUDGET // (active.size * config.dim))
            if rows >= L:
                draws = {rid: (gens[rid],) * 3 for rid in active.tolist()}
            else:
                draws = {rid: piece_generators(gens[rid], L * config.dim, config.alpha < 2.0,
                                               config.sigma_brownian > 0.0)
                         for rid in active.tolist()}
            for start in range(done, done + L, rows):
                if not active.size:
                    break
                n = min(rows, done + L - start)
                tiles = np.array_split(active, max(-(-active.size // TILE),
                                                   min(workers, active.size)))
                if drift is None:
                    results = _fill_and_step(pool, config, draws, tiles, w[active], n,
                                             spec, reduce, start)
                else:
                    results = parallel.run_tasks(
                        pool, _fill_and_scan,
                        [(config, draws, lanes, w[lanes], n, scan, reduce, start, scratch)
                         for lanes in tiles])
                retire = []
                for lanes, (last, result, diverged) in zip(tiles, results):
                    w[lanes] = last
                    retire.append(merge(lanes, start, result) | diverged)
                active = active[~np.concatenate(retire)]
            for rid in active.tolist():
                gens[rid] = draws[rid][2]
            done += L


def simulate(config: SdeConfig, spec: ObjectiveSpec, rng: RngStream) -> Trajectory:
    """Single Euler path of length up to max_steps, scanned as the ensembles scan.

    Runs are bit-identical for a fixed stream.  A non-finite iterate at step
    k truncates the stored path to w^0 .. w^(k-1) and marks divergence at k.
    """
    points = np.empty((config.max_steps + 1, config.dim))
    points[0] = config.w0
    diverged_at = []

    def reduce(done, W, finite):
        return W[0].copy(), finite[0]

    def merge(lanes, done, result):
        path, finite = result
        points[done + 1 : done + 1 + path.shape[0]] = path
        if not finite.all():
            diverged_at.append(done + 1 + int(np.argmin(finite)))
        return False

    _run_lanes(config, spec, [rng], reduce, merge)
    if diverged_at:
        k = diverged_at[0]
        return Trajectory(points=points[:k].copy(), eta=config.eta, diverged=True,
                          diverged_step=k)
    return Trajectory(points=points, eta=config.eta)


def _replicate_streams(rng: RngStream, n_replicates: int) -> list[RngStream]:
    """Substreams 0 .. n_replicates-1 of ``rng``, one per replicate lane."""
    if n_replicates < 1:
        raise ParameterError(f"n_replicates must be >= 1, got {n_replicates}")
    return [rng.substream(r) for r in range(n_replicates)]


def _first_passage(config, spec, rng, n_replicates, detector, payload=None):
    """Run an ensemble until each lane triggers, diverges, or times out.

    ``detector(W)`` maps an (A, L, d) position block to a fresh (A, L)
    boolean trigger matrix, which the caller then overwrites; ``payload(x)``,
    if given, maps the (A, d) positions at each lane's first trigger to
    integers.  Both may run in several tile tasks at once, so they write to
    nothing they did not allocate.  Returns arrays (hit_step, payload,
    diverged) indexed by replicate; hit_step is -1 for lanes that never
    triggered, and payload is -1 where there is none.
    """
    streams = _replicate_streams(rng, n_replicates)
    hit_step = np.full(n_replicates, -1, dtype=np.int64)
    codes = np.full(n_replicates, -1, dtype=np.int64)
    diverged = np.zeros(n_replicates, dtype=bool)

    def reduce(done, W, finite):
        stop = detector(W)
        stop |= ~finite
        first = stop.argmax(axis=1)
        rows = np.arange(first.size)
        return (stop.any(axis=1), first, finite[rows, first],
                None if payload is None else payload(W[rows, first]))

    def merge(lanes, done, result):
        hit, first, ok, pay = result
        rid = lanes[hit]
        hit_step[rid] = done + 1 + first[hit]
        diverged[rid] = ~ok[hit]
        if pay is not None:
            got = hit & ok
            codes[lanes[got]] = pay[got]
        return hit

    _run_lanes(config, spec, streams, reduce, merge)
    return hit_step, codes, diverged


def _outside_ball(W, c, thr):
    """(A, L) mask of the (A, L, d) positions farther than thr from c."""
    if W.shape[2] == 1:
        # sqrt(fl(x*x)) == |x| wherever x*x is a normal float, so this decides
        # as the distance does for every thr whose square is a normal float
        dev = W[:, :, 0] - c[0]
        np.abs(dev, out=dev)
        return dev > thr
    dev = W - c[None, None, :]
    sq = np.sum(dev**2, axis=2)
    outside = np.sqrt(sq) > thr
    # where the sum of squares overflows, or underflows below the normal
    # floats with an offset that is not zero, decide by the scaled norm
    # s * |dev / s| with s = max |dev_i|, which neither overflows nor underflows
    s = np.abs(dev).max(axis=2)
    redo = ((sq == np.inf) & (s < np.inf)) | ((sq < np.finfo(float).tiny) & (s > 0.0))
    if redo.any():
        x, s = dev[redo], s[redo]
        outside[redo] = s * np.sqrt(np.sum((x / s[:, None]) ** 2, axis=1)) > thr
    return outside


def first_exit_ensemble(
    config: SdeConfig,
    spec: ObjectiveSpec,
    center: tuple[float, ...] | float,
    a: float,
    rng: RngStream,
    n_replicates: int,
) -> list[ExitTimeRecord]:
    """First exit from the ball of radius a around center, per replicate.

    Replicate r runs on ``rng.substream(r)``.  If ``spec`` declares linear
    drift with 0 < 1 - eta*rate < 1, chunks take the exact linear scan, whose
    paths agree with the per-step update up to floating-point reassociation.
    """
    if not 0.0 < a < math.inf:
        raise ParameterError(f"radius a must be positive and finite, got {a}")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.size != config.dim:
        raise ParameterError(f"center dim {c.size} != config dim {config.dim}")
    start_dist = float(np.sqrt(np.sum((np.asarray(config.w0) - c) ** 2)))
    if start_dist > a:
        raise ParameterError(
            f"w0 lies outside the exit ball: |w0 - center| = {start_dist} > a = {a}")

    hit_step, _, diverged = _first_passage(
        config, spec, rng, n_replicates, lambda W: _outside_ball(W, c, a)
    )
    return [
        ExitTimeRecord(
            replicate=r,
            exited=hit >= 0 and not div,
            exit_step=hit if hit >= 0 else None,
            exit_time=hit * config.eta if hit >= 0 else None,
            radius_a=a,
            diverged=div,
        )
        for r, (hit, div) in enumerate(zip(hit_step.tolist(), diverged.tolist()))
    ]


def _validate_neighborhoods(spec: ObjectiveSpec, delta: float) -> np.ndarray:
    if spec.minima is None:
        raise ParameterError("transitions need an objective with declared geometry")
    if not (delta > 0.0):
        raise ParameterError(f"delta must be positive, got {delta}")
    minima = np.asarray(spec.minima)
    bounds = np.concatenate(([-np.inf], np.asarray(spec.saddles), [np.inf]))
    for i, m in enumerate(minima):
        if not (bounds[i] < m - delta and m + delta < bounds[i + 1]):
            raise ParameterError(
                f"delta-neighborhood of minimum {m} leaves its valley "
                f"({bounds[i]}, {bounds[i+1]}); shrink delta={delta}"
            )
    return minima


def _edge(t, delta, way):
    """The float x farthest from t toward ``way`` (+-inf) with abs(x - t) <= delta.

    The rounded difference x - t is monotone in x, so the floats that pass
    that test form one interval, and lo <= x <= hi between its two edges
    decides as the test does, NaN and infinities included.
    """
    x = t + math.copysign(delta, way)
    while abs(x - t) > delta:
        x = math.nextafter(x, t)
    while abs(math.nextafter(x, way) - t) <= delta:
        x = math.nextafter(x, way)
    return x


def first_transition_ensemble(
    config: SdeConfig,
    spec: ObjectiveSpec,
    delta: float,
    rng: RngStream,
    n_replicates: int,
) -> tuple[list[TransitionRecord], np.ndarray]:
    """First hop out of the starting neighborhood for each replicate.

    Returns the records of replicates that transitioned, plus a boolean
    divergence mask over all replicates; diverged or timed-out replicates
    produce no record.
    """
    minima = _validate_neighborhoods(spec, delta)
    start = int(spec.valley_index(np.asarray(config.w0[0])))
    others = np.array([j for j in range(minima.size) if j != start])
    targets = minima[others]

    windows = [(_edge(t, delta, -math.inf), _edge(t, delta, math.inf)) for t in targets]

    def near_target(W):
        # min_j |x - t_j| <= delta, with no (A, L) float temporary per tile
        x = W[:, :, 0]
        near = np.zeros_like(x, dtype=bool)
        for lo, hi in windows:
            near |= (lo <= x) & (x <= hi)
        return near

    def nearest_target(x):
        # argmin keeps the first of equally near targets
        return others[np.abs(x - targets).argmin(axis=1)]

    hit_step, payload, diverged = _first_passage(config, spec, rng, n_replicates,
                                                 near_target, nearest_target)
    records = []
    for r in range(n_replicates):
        if hit_step[r] >= 0 and not diverged[r]:
            records.append(
                TransitionRecord(
                    replicate=r,
                    start_basin=start,
                    end_basin=int(payload[r]),
                    transition_step=int(hit_step[r]),
                    transition_time=float(hit_step[r] * config.eta),
                )
            )
    return records, diverged


def occupancy_ensemble(
    config: SdeConfig,
    spec: ObjectiveSpec,
    rng: RngStream,
    n_replicates: int,
    burn_in: int = 0,
) -> tuple[np.ndarray, int]:
    """Pooled valley occupancy over an ensemble of full-length runs.

    Each replicate runs max_steps steps on its own substream; the first
    ``burn_in`` steps of every lane are excluded from the counts.  A lane
    that diverges contributes its finite prefix and is then retired; if
    every lane diverges the run is an error, not a fraction.  Returns
    (fractions, n_diverged).
    """
    if spec.minima is None:
        raise ParameterError("occupancy needs an objective with declared geometry")
    if not (0 <= burn_in < config.max_steps):
        raise ParameterError(f"burn_in must lie in [0, max_steps), got {burn_in}")
    streams = _replicate_streams(rng, n_replicates)
    n_valleys = len(spec.minima)
    counts = np.zeros(n_valleys, dtype=np.int64)
    n_diverged = 0

    def reduce(done, W, finite):
        keep_from = max(0, burn_in - done)
        block = W[:, keep_from:, 0][finite[:, keep_from:]]
        return (np.bincount(spec.valley_index(block), minlength=n_valleys),
                int((~finite.all(axis=1)).sum()))

    def merge(lanes, done, result):
        nonlocal counts, n_diverged
        counts += result[0]
        n_diverged += result[1]
        return False

    _run_lanes(config, spec, streams, reduce, merge)
    if n_diverged == n_replicates:
        raise ParameterError(f"all {n_replicates} lanes diverged; lower eta or epsilon")
    if counts.sum() == 0:
        raise ParameterError("no samples survived burn-in")
    return counts / counts.sum(), n_diverged
