"""Guided trajectory ensembles: transport, statistics and relaxation metrics.

Particles move with the local velocity of the wave field,

    dx/dt = (hbar/m) Im( grad(psi) / psi ) at x(t),

integrated with classic RK4 against a wave-field timeline stored at
half-step granularity, so every sub-stage samples a stored field and reruns
are bit-reproducible. Near density nodes the velocity field diverges; there
the sampled velocity is capped at the grid Nyquist velocity and the event
is counted, and runs where more than 0.1% of trajectories ever hit the cap
are marked degraded.

Statistics side: equilibrium sampling of a density (inverse CDF in 1D,
per-cell multinomial with in-cell jitter in 2D), histogram L1 distance to
|psi|^2 for equivariance checks, and the coarse-grained relative entropy

    H = sum over cells of P ln(P / rho) * cell volume,

which is zero exactly at equilibrium, positive otherwise, and whose decay
under guided transport from a non-equilibrium start is the relaxation
diagnostic.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConfigError, GridMismatchError
from .grids import (DENSITY_FLOOR_FRACTION, GridSpec, ScalarField, WaveField, _check_finite,
                    _interp_weights, _nonzero_parts, _spectral_derivative)
from .oracle import Potential, PropagatorState, _check_steps, split_step_evolve

__all__ = [
    "TrajectoryEnsemble",
    "NodeEvents",
    "VelocityField",
    "WaveTimeline",
    "OracleTimeline",
    "propagate_ensemble",
    "PropagationResult",
    "sample_equilibrium",
    "ks_statistic",
    "equivariance_distance",
    "coarse_grained_H",
    "bootstrap_coarse_H",
]

DEGRADED_CAP_FRACTION = 1e-3
# trajectories per block of RK4 transport (and of histogram binning), and the
# slice values per block of conditional guidance (64 slices of 128 points): a
# block's temporaries stay in a 2 MB per-core L2 cache (4096 to 32768
# measured for transport; see CHANGES.md)
_BLOCK = 8192
# the wave fields one RK4 step reads (t, t + dt/2, t + dt): what a timeline
# keeps of its fields and velocity fields
_RK4_FIELDS = 3
# the least a fed timeline's pipe holds (F_SETPIPE_SZ), and the most Linux
# lets an unprivileged process set by default; with the default 64 KB a
# 128^2 field (256 KB) crosses in four handoffs and the fed relaxation run
# took 1.14 s against 0.86 s with 1 MB
_PIPE_BYTES = 1 << 20
# the one process that may fork: in a forked worker or producer _cpus() is
# 1, so nothing a task calls forks a grandchild
_FORKER = os.getpid()


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Particle positions with optional history.

    positions has shape (n,) in 1D or (n, 2) in 2D; history, when recorded,
    has shape (steps + 1, k[, 2]) for the first k trajectories, including
    their initial positions.
    """

    grid: GridSpec
    positions: np.ndarray
    history: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)

    @property
    def size(self) -> int:
        return self.positions.shape[0]


@dataclass
class NodeEvents:
    """Counter for velocity evaluations inside flagged near-node regions."""

    evaluations: int = 0
    capped: int = 0

    def record(self, points: int, flagged: np.ndarray | None = None):
        """Count one batch of `points` evaluations, flagged where the cap
        applied; None when it applied nowhere."""
        self.evaluations += points
        if flagged is not None:
            self.capped += int(np.count_nonzero(flagged))


@dataclass
class _TrajectoryEvents(NodeEvents):
    """NodeEvents that also remembers which trajectories were ever capped,
    at any RK4 stage; a batch of flags belongs to the trajectories `block`."""

    ever_capped: np.ndarray | None = None
    block: slice = field(default_factory=lambda: slice(None))

    def record(self, points: int, flagged: np.ndarray | None = None):
        super().record(points, flagged)
        if flagged is not None:
            self.ever_capped[self.block] |= flagged


def _cell_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
               peak: float) -> np.ndarray:
    """The six rows of VelocityField's 1D cell formula, one column per cell.

    On a cell psi = a + b w and g = c + d w for w in [0, 1): a, c are the
    values at the cell's lower node and b, d their rise to the next node.
    peak bounds |a|^2 over the cells and only decides whether a flat cell
    can occur at all.
    """
    a_bar = a.conj()
    b_bar = b.conj()
    ab = a * b_bar
    rows = np.empty((6,) + a.shape)
    rows[0] = (c * a_bar).imag
    np.add((c * b_bar).imag, (d * a_bar).imag, out=rows[1])
    rows[2] = (d * b_bar).imag
    bb = rows[3]
    bb[:] = (b * b_bar).real
    # rows 4 and 5 hold -Re(a conj b) and Im(a conj b)^2 until divided by |b|^2
    np.negative(ab.real, out=rows[4])
    np.square(ab.imag, out=rows[5])
    # a flat cell has |b|^2 <= 1e-32 |a|^2 <= 1e-32 * peak
    if np.minimum.reduce(bb) <= 1e-32 * peak:
        mag = np.abs(a)
        flat = bb <= 1e-32 * mag * mag
        bb[flat] = 1.0
        rows[4:] /= bb
        rows[3:5, flat] = 0.0
        rows[5, flat] = mag[flat] ** 2
    else:
        rows[4:] /= bb
    return rows


def _cell_terms(rows: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator Im(g conj psi) and |psi|^2 at offset w on cells given by
    their six _cell_rows, in the order a 1D lookup has always used."""
    n0, n1, n2, bb, w_star, rho_min = rows
    v = n2 * w
    v += n1
    v *= w
    v += n0
    rho = w - w_star
    rho *= rho
    rho *= bb
    rho += rho_min
    return v, rho


def _floored_ratios(numerators: list[np.ndarray], rho: np.ndarray, rho_floor,
                    v_max) -> np.ndarray | None:
    """Divide each numerator by max(|psi|^2, floor) in place, clip numerator
    i at +-v_max[i] where the floor applied, and return those flags, or None
    when the floor applied at no point.

    rho_floor is one floor, or one per point (conditional slices each have
    their own peak).
    """
    if isinstance(rho_floor, np.ndarray):
        flagged = rho < rho_floor
        if not flagged.any():
            flagged = None
    else:
        # one min scan clears the common case of no point under the floor
        flagged = rho < rho_floor if rho.size and rho.min() < rho_floor else None
    if flagged is not None:
        np.maximum(rho, rho_floor, out=rho)
    for v, cap in zip(numerators, v_max):
        v /= rho
        if flagged is not None:
            np.clip(v, -cap, cap, out=v, where=flagged)
    return flagged


class VelocityField:
    """Sampled guiding velocity of one wave field.

    Interpolates psi and grad(psi) linearly at the requested positions and
    takes Im(grad/psi) afterwards. Doing the division after interpolation
    keeps factorized states exactly factorized, which the conditional
    wave-function machinery relies on. Gradients come from one
    grids._spectral_derivative call per axis, with hbar / m_i folded into
    its wavenumbers.

    1D keeps six rows per cell (_cell_rows). On cell i, with w in [0, 1)
    the offset from node i, psi = a + b w and g = c + d w (a, c the node
    values, b, d their rise to node i + 1), so the velocity is a ratio of
    two quadratics in w:

    - numerator Im(g conj psi) = n0 + w (n1 + w n2), evaluated by Horner;
    - denominator |psi|^2 in vertex form, |b|^2 (w - w*)^2 + rho_min, with
      w* = -Re(a conj b) / |b|^2 and rho_min = Im(conj(a) b)^2 / |b|^2.
      Both terms are non-negative, so nothing cancels near a node, where an
      expanded quadratic would lose digits.

    The rows are [n0, n1, n2, |b|^2, w*, rho_min]. A flat cell
    (|b|^2 <= 1e-32 |a|^2) stores |b|^2 = 0, w* = 0 and rho_min = |a|^2,
    so no build divides by zero. A lookup is one weight pass
    (grids._interp_weights), one `take` of the six rows at the cell index
    and eight elementwise operations. conditional.conditional_guiding_velocities
    evaluates the same formula on one cell per conditional slice.

    2D keeps split real corner tables in two plane groups, each plane padded
    with one periodic line per axis (padded line n is line 0) and
    flattened: [psi.re, psi.im, d1psi.re, d1psi.im] row-major and
    [d0psi.re, d0psi.im] column-major. A lookup takes, per x end, one
    gather of both y ends from each group (row-major from i0 (ny + 1) + j0,
    column-major from j0 (nx + 1) + i0) and lerps along y, then x. A
    prototype bilinear per-cell table measured slower there (0.51 against
    0.46 ms for 5000 points at 128^2) and needs four times the memory.
    Tables are filled only where lookups read them: per axis the field
    keeps the filled span [lo, hi) of padded lines, and a lookup extends it
    to [min, max + 2) of its lower corner indices, transforming only the
    lines not filled yet. A row (one x index) carries psi and d1 psi, a
    column (one y index) d0 psi, and each group stores its lines
    contiguously, so a fill writes (b - a)(ny + 1) or (b - a)(nx + 1)
    consecutive values per plane. Every line takes the whole field's
    transform (grids._nonzero_parts), so its bits are those of a
    whole-field derivative, whatever the spans.

    Either way the velocity is numerator / max(|psi|^2, floor), and points
    under the floor are clipped at the Nyquist velocity and flagged.
    """

    def __init__(self, psi: WaveField, hbar: float = 1.0, m: float = 1.0,
                 masses: tuple[float, ...] | None = None):
        grid = psi.grid
        self.grid = grid
        self.hbar = hbar
        self.masses = masses if masses is not None else (m,) * grid.dims
        self.v_max = tuple(
            hbar * np.pi / (mi * h)
            for mi, h in zip(self.masses, grid.spacing)
        )
        values = psi.values
        if grid.dims == 1:
            peak = float(np.maximum.reduce(np.abs(values))) ** 2
        else:
            # the tables' block is allocated first and written only where
            # lookups fill it (np.empty touches no page). Allocated at the
            # first lookup it left the heap growing and trimming (about 15k
            # more page faults and 4 % more wall time per relaxation-2d
            # pass); allocated after the peak's temporaries, about 1 % more
            self._block = np.empty(6 * (grid.points[0] + 1) * (grid.points[1] + 1))
            rho = values.real * values.real
            rho += values.imag * values.imag
            peak = float(np.maximum.reduce(rho, axis=None))
        # a NaN or inf value makes the peak non-finite, and _check_finite
        # then raises before any transform, which would warn on an inf
        if not math.isfinite(peak):
            _check_finite(values, "velocity field input")
        self.rho_floor = DENSITY_FLOOR_FRACTION * peak
        if grid.dims == 1:
            self._tables = self._cell_table(values, peak)
        else:
            self._values = values
            # planes are line-first: (nx + 1, ny + 1) in the row-major
            # group, (ny + 1, nx + 1) in the column-major one
            row, col = grid.points[1] + 1, grid.points[0] + 1
            rows, cols = self._block[:4 * row * col], self._block[4 * row * col:]
            self._planes = rows.reshape(4, col, row), cols.reshape(2, row, col)
            # the whole field's transform choice, which every line takes
            self._parts = _nonzero_parts(values)
            # filled span [lo, hi) of padded lines per axis, empty at first
            self._spans = [(0, 0), (0, 0)]
            # per group, the flat tables and the flat-index offsets of the
            # corners (x end, y end) from the lower-left one
            self._groups = ((rows.reshape(4, -1), np.array([[[0], [1]], [[row], [row + 1]]])),
                            (cols.reshape(2, -1), np.array([[[0], [col]], [[1], [col + 1]]])))

    def _cell_table(self, values: np.ndarray, peak: float) -> np.ndarray:
        """The six per-cell rows of a 1D field."""
        n = values.size
        a = values
        c = _spectral_derivative(values, self.grid, 0, self.hbar / self.masses[0])
        # rise to the next node; the last cell wraps to node 0
        b = np.empty(n, dtype=complex)
        np.subtract(a[1:], a[:-1], out=b[:-1])
        b[-1] = a[0] - a[-1]
        d = np.empty(n, dtype=complex)
        np.subtract(c[1:], c[:-1], out=d[:-1])
        d[-1] = c[0] - c[-1]
        return _cell_rows(a, b, c, d, peak)

    def _cover(self, axis: int, lower: np.ndarray):
        """Extend the filled span along axis over the corners of the lower
        indices `lower`, filling only the padded lines it did not hold."""
        lo, hi = int(lower.min()), int(lower.max()) + 2
        filled_lo, filled_hi = self._spans[axis]
        if filled_lo == filled_hi:
            filled_lo = filled_hi = lo
        lo, hi = min(lo, filled_lo), max(hi, filled_hi)
        for a, b in ((lo, filled_lo), (filled_hi, hi)):
            if a < b:
                self._fill_lines(axis, a, b)
        self._spans[axis] = (lo, hi)

    def _fill_lines(self, axis: int, a: int, b: int):
        """Fill padded lines [a, b) across axis: rows (axis 0) with psi and
        d1 psi, columns (axis 1) with d0 psi, each padded along itself."""
        along = 1 - axis
        # turn views lines-first for columns and back; a no-op for rows
        turn = (lambda x: x) if axis == 0 else (lambda x: x.swapaxes(-1, -2))
        lines = turn(self._values)
        src = lines[a:b]
        if b > len(lines):
            # padded line n is line 0
            src = np.concatenate((src, lines[:1]))
        g = _spectral_derivative(turn(src), self.grid, along,
                                 self.hbar / self.masses[along], self._parts)
        planes = self._planes[axis][:, a:b]
        for r, part in enumerate((src, g) if axis == 0 else (turn(g),)):
            for plane, values in ((planes[2 * r], part.real), (planes[2 * r + 1], part.imag)):
                plane[:, :-1] = values
                plane[:, -1] = plane[:, 0]

    def at(self, positions: np.ndarray, events: NodeEvents | None = None) -> np.ndarray:
        """Velocity components at the given positions, shape (n, dims)."""
        v, flagged = self._velocity(positions)
        if events is not None:
            events.record(v.size // self.grid.dims, flagged)
        return v

    @staticmethod
    def _lerp(group, lower, weights):
        """One plane group lerped along y on both bracketing x lines, then
        along x, as grids._interp_values does term for term; lower holds the
        lower-left corners' flat indices, weights is (end, axis, point)."""
        table, offsets = group
        lines = []
        for e in (0, 1):
            # (plane, y end, point); the indices are in range, and numpy's
            # "wrap" mode gathers faster
            ends = table.take(lower + offsets[e], axis=1, mode="wrap")
            ends *= weights[:, 1]
            line = ends[:, 0]
            line += ends[:, 1]
            line *= weights[e, 0]
            lines.append(line)
        lines[0] += lines[1]
        return lines[0]

    def _velocity(self, positions) -> tuple[np.ndarray, np.ndarray | None]:
        """Velocity shaped like positions, and the per-point cap flags (None
        when no point was capped)."""
        pos = np.asarray(positions, dtype=float)
        grid = self.grid
        if grid.dims == 1:
            i0, w = _interp_weights(grid, pos.reshape(-1), 0)
            v, rho = _cell_terms(np.take(self._tables, i0, axis=1, mode="wrap"), w)
            numerators = [v]
            point_shape = pos.shape
        else:
            pts = pos.reshape(-1, 2)
            i0, wx = _interp_weights(grid, pts[:, 0], 0)
            j0, wy = _interp_weights(grid, pts[:, 1], 1)
            if i0.size:
                self._cover(0, i0)
                self._cover(1, j0)
            nx, ny = grid.points
            weights = np.array(((1.0 - wx, 1.0 - wy), (wx, wy)))
            rows = self._lerp(self._groups[0], i0 * (ny + 1) + j0, weights)
            d0 = self._lerp(self._groups[1], j0 * (nx + 1) + i0, weights)
            pr, pi = rows[0], rows[1]
            rho = pr * pr
            rho += pi * pi
            numerators = []
            for g in (d0, rows[2:]):
                # Im(g conj psi), g already scaled by hbar / m_i
                v = g[1] * pr
                v -= g[0] * pi
                numerators.append(v)
            point_shape = pos.shape[:-1]
        flagged = _floored_ratios(numerators, rho, self.rho_floor, self.v_max)
        out = numerators[0] if grid.dims == 1 else np.stack(numerators, axis=-1)
        return (out.reshape(pos.shape),
                None if flagged is None else flagged.reshape(point_shape))


class _Timeline:
    """Psi on the half-step lattice, with its velocity cache.

    Entry j holds psi at j * half_dt: the times an RK4 step of dt = 2 half_dt
    reads. fields holds entries _first ... _first + len(fields) - 1: every
    entry when stored, the last _RK4_FIELDS made when streaming (_field).
    Velocity fields are built lazily and the last _RK4_FIELDS built stay
    cached, evicted first in, first out, so sequential access builds each
    entry once.
    """

    def __init__(self, grid: GridSpec, half_dt: float, hbar: float, m: float,
                 fields: list[WaveField]):
        self.grid = grid
        self.half_dt = half_dt
        self.hbar = hbar
        self.m = m
        self.fields = fields
        self._first = 0
        self._velocities: dict[int, VelocityField] = {}

    def index_of(self, t: float) -> int:
        j = round(t / self.half_dt)
        if abs(j * self.half_dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"time {t!r} does not align with the half-step lattice")
        return j

    def _field(self, j: int) -> WaveField:
        if not 0 <= j - self._first < len(self.fields):
            raise ConfigError(f"lattice entry {j} outside the held entries {self._first} "
                              f"to {self._first + len(self.fields) - 1}")
        return self.fields[j - self._first]

    def at(self, t: float) -> WaveField:
        return self._field(self.index_of(t))

    def velocity(self, t: float) -> VelocityField:
        j = self.index_of(t)
        psi = self._field(j)
        if j not in self._velocities:
            if len(self._velocities) >= _RK4_FIELDS:
                self._velocities.pop(next(iter(self._velocities)))
            self._velocities[j] = VelocityField(psi, self.hbar, self.m)
        return self._velocities[j]


class WaveTimeline(_Timeline):
    """Wave fields stored at every point of the half-step lattice."""

    def __init__(self, half_dt: float, fields: list[WaveField],
                 hbar: float = 1.0, m: float = 1.0):
        if len(fields) < 3:
            raise ConfigError("timeline needs at least three stored fields")
        super().__init__(fields[0].grid, half_dt, hbar, m, fields)

    @classmethod
    def from_oracle(cls, psi0: WaveField, potential: Potential, dt: float,
                    steps: int, hbar: float = 1.0, m: float = 1.0) -> "WaveTimeline":
        """Evolve psi0 with the split-operator propagator at half the
        trajectory step and store every state: entries 0 ... 2 steps of an
        unfed OracleTimeline."""
        stream = OracleTimeline(psi0, potential, dt, hbar, m)
        return cls(dt / 2.0, [stream._field(j) for j in range(2 * steps + 1)], hbar, m)

    # bound by name on each public class, where qbench's tracer wraps them
    at = _Timeline.at
    velocity = _Timeline.velocity


class OracleTimeline(_Timeline):
    """Streaming counterpart of WaveTimeline for grids too large to store.

    Advances the split-operator propagator lazily on the same half-step
    lattice and keeps the latest _RK4_FIELDS fields. Time requests must move
    forward (RK4 sub-stage order is fine); rewinding past them raises.

    Used as a context manager (`with OracleTimeline(...) as timeline:`) on
    two or more CPUs (_cpus()), it is fed: one forked producer runs the same
    one-step split steps ahead from the last field and writes each field's
    bytes to a pipe made to hold at least one field and _PIPE_BYTES, and the
    parent reads each into a fresh array, so its time goes to lookups. The
    parent never trusts the producer: on a short read it reaps it and takes
    the step itself, so a producer that dies gives the same bytes and an
    error a step raises (UnitarityError) is raised by the parent at the same
    step. Leaving the block closes the pipe and kills and reaps the
    producer on every path; a new block starts a new one from the last
    field. Outside a block, on one CPU, or when the pipe cannot hold a
    field, the steps run in-process.
    """

    def __init__(self, psi0: WaveField, potential: Potential, dt: float,
                 hbar: float = 1.0, m: float = 1.0):
        super().__init__(potential.grid, dt / 2.0, hbar, m, [psi0])
        self.potential = potential
        self._state = PropagatorState(psi0, 0.0, self.half_dt, hbar, m)
        self._producer: dict = {}  # pid -> None while a producer feeds _pipe
        self._pipe = None

    def __enter__(self) -> "OracleTimeline":
        if self._pipe is None and _cpus() >= 2:
            nbytes = self._state.psi.values.nbytes
            self._pipe = _fork(partial(_produce, self._state, self.potential),
                               self._producer, None, max(nbytes, _PIPE_BYTES))
        return self

    def __exit__(self, *exc):
        self._stop()

    def _stop(self):
        """Close the pipe, and kill and reap the producer."""
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        _reap(self._producer)

    def _step(self) -> PropagatorState:
        """The next state: the producer's field when it sent all of it,
        else (and from then on) the parent's own split step."""
        state = self._state
        if self._pipe is not None:
            values = np.empty_like(state.psi.values)
            if self._pipe.readinto(values.ravel("K")) == values.nbytes:
                return replace(state, psi=WaveField._adopt(state.psi.grid, values),
                               t=state.t + 1 * state.dt)
            self._stop()
        return split_step_evolve(state, self.potential, 1)

    def _field(self, j: int) -> WaveField:
        while self._first + len(self.fields) <= j:
            self._state = self._step()
            self.fields.append(self._state.psi)
            if len(self.fields) > _RK4_FIELDS:
                del self.fields[0]
                self._first += 1
        return super()._field(j)

    at = _Timeline.at
    velocity = _Timeline.velocity


def _produce(state: PropagatorState, potential: Potential, pipe):
    """A fed OracleTimeline's producer: the split steps on from state, each
    field's bytes written to pipe, until the reader is gone."""
    while True:
        state = split_step_evolve(state, potential, 1)
        pipe.write(state.psi.values.ravel("K"))
        # a field smaller than the writer's buffer would wait in it
        pipe.flush()


def _shift_in(pos: np.ndarray, grid: GridSpec, exact: bool = False) -> np.ndarray:
    """Move positions that left the domain by less than one period back in
    with a conditional +-extent shift, in place and without a float mod.

    Lookups do not need it (the weight routine reduces any point), it only
    keeps them on the weight routine's fast path. exact=True falls back to
    the mod for the points still outside (a point just under the lower edge
    can round onto the upper one), so stored positions always lie in the
    domain. Points inside are never touched, so a point's result does not
    depend on the others in its batch.
    """
    columns = (pos,) if grid.dims == 1 else (pos[:, 0], pos[:, 1])
    for i, col in enumerate(columns):
        lo, period = grid.origin[i], grid.extent[i]
        # one min/max scan skips the masked passes when every point is inside
        if not col.size or (col.min() >= lo and col.max() < lo + period):
            continue
        np.subtract(col, period, out=col, where=col >= lo + period)
        np.add(col, period, out=col, where=col < lo)
        if exact and not (col.min() >= lo and col.max() < lo + period):
            outside = (col < lo) | (col >= lo + period)
            col[outside] = grid.wrap(col[outside], i)
    return pos


@dataclass(frozen=True)
class PropagationResult:
    """Propagated ensemble plus node-capping statistics."""

    ensemble: TrajectoryEnsemble
    events: NodeEvents
    capped_trajectories: int
    degraded: bool


def propagate_ensemble(ens: TrajectoryEnsemble, timeline, steps: int,
                       record_history: bool | int = True,
                       t_start: float | None = None) -> PropagationResult:
    """Classic RK4 transport of all trajectories through the timeline.

    The step is dt = 2 * timeline.half_dt (stored WaveTimeline or streaming
    OracleTimeline), so the sub-stages hit lattice fields exactly.
    Each step fetches its three velocity fields once, then runs all four
    stages and the position update on one block of _BLOCK trajectories
    before it moves to the next, so a block's temporaries stay in cache.
    Trajectories are independent and every operation is elementwise, so
    the result is bit-identical to one pass over the whole ensemble.
    Positions wrap periodically: stage and step positions move far less than
    one period, so a conditional +-extent shift brings them back into the
    domain without a float mod (a step end still outside after the shift
    falls back to the mod). A trajectory counts as capped when any of its
    four RK4 stage evaluations hits the near-node velocity cap; runs where
    more than 0.1% of trajectories ever do are marked degraded and should be
    excluded from acceptance statistics. t_start defaults to 0, the timeline
    origin; pass a later lattice time to continue a previous propagation.
    record_history is True (every trajectory), False (none) or an int n:
    the history of the first n trajectories only. Any other value, a numpy
    bool included, is a ConfigError, so a flag is never read as a count.
    steps must be an integer >= 0 (not a bool), or it is a ConfigError. A
    NaN or infinite start position is a NonFiniteFieldError.

    Over a stored WaveTimeline, an ensemble of at least two blocks per CPU
    of the affinity mask is transported in one contiguous share of whole
    blocks per CPU (_fork_join), bit-identical to the serial loop. The
    parent's share comes first and holds at least two blocks, so it records
    any history of up to 2 * _BLOCK trajectories; a longer one stays
    serial, as does a streaming timeline, since every process would repeat
    each split step.
    """
    _check_steps(steps)
    if timeline.grid != ens.grid:
        raise GridMismatchError("ensemble and timeline grids differ")
    # min and max carry a NaN through, so the check adds no flag array
    if ens.size and not (math.isfinite(ens.positions.min())
                         and math.isfinite(ens.positions.max())):
        _check_finite(ens.positions, "start positions")
    if isinstance(record_history, bool):
        keep = ens.size
    elif isinstance(record_history, (int, np.integer)) and 0 <= record_history <= ens.size:
        keep = int(record_history)
    else:
        raise ConfigError(f"record_history={record_history!r} is neither a bool nor "
                          f"a count of 0 to {ens.size} trajectories")
    history = [np.array(ens.positions[:keep], dtype=float)] if record_history else None
    t = 0.0 if t_start is None else t_start
    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, ens.size, _BLOCK)]
    most = 1
    if isinstance(timeline, WaveTimeline) and (history is None or keep <= 2 * _BLOCK):
        most = min(_cpus(), ens.size // (2 * _BLOCK))
    shares = _shares(len(blocks), most)
    x = np.empty(np.shape(ens.positions))
    ever_capped = np.zeros(ens.size, dtype=bool)
    counts = np.zeros((len(shares), 2), dtype=np.int64)  # evaluations, capped

    def share(j: int, part: slice):
        # from the start positions, so that a rerun share is the serial loop's
        span = slice(part.start * _BLOCK, part.stop * _BLOCK)

        def run():
            x[span] = ens.positions[span]
            ever_capped[span] = False
            events = _TrajectoryEvents(ever_capped=ever_capped)
            _rk4(x, blocks[part], timeline, steps, t, events, None if j else history)
            counts[j] = events.evaluations, events.capped
        return run, (counts[j], x[span], ever_capped[span])

    _fork_join([share(j, part) for j, part in enumerate(shares)])
    capped_count = int(ever_capped.sum())
    out = replace(
        ens,
        positions=x,
        history=None if history is None else np.array(history),
    )
    return PropagationResult(
        ensemble=out,
        events=NodeEvents(*(int(c) for c in counts.sum(axis=0))),
        capped_trajectories=capped_count,
        degraded=capped_count > DEGRADED_CAP_FRACTION * ens.size,
    )


def _rk4(x: np.ndarray, blocks: list[slice], timeline, steps: int, t: float,
         events: _TrajectoryEvents, history: list | None = None):
    """The serial block loop: `steps` RK4 steps of 2 * timeline.half_dt
    from time t of the trajectories in blocks of x, in place, counting into
    events (whose ever_capped is indexed like x) and appending to history a
    copy of the first len(history[0]) trajectories after each step."""
    grid = timeline.grid
    dt = 2.0 * timeline.half_dt
    for n in range(steps):
        v0 = timeline.velocity(t)
        vh = timeline.velocity(t + dt / 2.0)
        v1 = timeline.velocity(t + dt)
        for block in blocks:
            events.block = block
            xb = x[block]
            k1 = v0.at(xb, events)
            k2 = vh.at(_shift_in(xb + 0.5 * dt * k1, grid), events)
            k3 = vh.at(_shift_in(xb + 0.5 * dt * k2, grid), events)
            k4 = v1.at(_shift_in(xb + dt * k3, grid), events)
            x[block] = _shift_in(xb + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), grid,
                                 exact=True)
        t += dt
        if history is not None:
            history.append(x[:len(history[0])].copy())


def _cpus() -> int:
    """How many processes a _fork_join may run: one per CPU of the affinity
    mask; one without fork, while another Python thread runs (it could hold
    a lock a worker needs), or in any process but _FORKER."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and os.getpid() == _FORKER):
        return 1
    return len(os.sched_getaffinity(0))


def _shares(n: int, most: int) -> list[slice]:
    """range(n) cut into min(most, n) contiguous shares, at least one, the
    larger ones first: each share after the first runs in a forked worker,
    which pays the fork's copy-on-write faults."""
    count = max(1, min(most, n))
    cut = [-(-n * i // count) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(cut[:-1], cut[1:])]


def _fork(body, pids: dict, key, pipe_bytes: int = 0):
    """Fork a process that runs body(pipe), pipe the write end of a new pipe
    opened "wb", and return the read end opened "rb"; None when no pipe,
    pipe size or process could be had, and nothing was forked.

    With pipe_bytes the pipe is first made to hold at least that many bytes
    (F_SETPIPE_SZ). Signals are blocked from the fork until the process is
    recorded as pids[pid] = key, so that none can leave it unrecorded or run
    it on into the caller's code. The process leaves by os._exit, so no
    atexit handler runs and no stdio buffer is flushed twice: with status 0
    once body returns or its reader is gone (BrokenPipeError), 1 on any
    other exception. The caller kills and reaps it (_reap).
    """
    try:
        fds = os.pipe()
    except OSError:  # out of descriptors
        return None
    try:
        if pipe_bytes:
            import fcntl
            try:
                fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, pipe_bytes)
            except AttributeError:  # no F_SETPIPE_SZ on this platform
                raise OSError("pipe size cannot be set") from None
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(fds[0])
                    with open(fds[1], "wb") as pipe:
                        body(pipe)
                    code = 0
                except BrokenPipeError:
                    code = 0
                finally:
                    os._exit(code)
            pids[pid] = key
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    except OSError:  # the pipe size refused, or out of processes
        for fd in fds:
            os.close(fd)
        return None
    os.close(fds[1])
    return open(fds[0], "rb")


def _reap(pids: dict):
    """SIGKILL and reap every process of pids, and forget them."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pids.clear()


def _send(task, pipe):
    """A _fork_join worker's body: run the task, then write its outputs."""
    run, outputs = task
    run()
    for part in outputs:
        pipe.write(part)


def _fork_join(tasks: list):
    """Run every task of tasks, each a pair (run, outputs), and return what
    tasks[0]'s run returns: tasks[0] runs in this process and, when _cpus()
    allows, each other task in a worker forked by _fork.

    run() must overwrite every byte of its outputs, C-contiguous arrays,
    from inputs that no task writes. A worker sends its outputs through a
    pipe, which the parent reads straight into its own arrays before it
    reaps the worker, so no page is added to the parent's memory, as a
    shared result buffer would. Its own report of failure is never trusted:
    the parent reruns, in order, every task whose worker could not be
    forked, sent less or exited non-zero, so the caller sees the serial
    result or exception. An exception in the parent's own task propagates.
    No worker outlives the call on any path.
    """
    if len(tasks) < 2 or _cpus() < 2:
        return [run() for run, _ in tasks][0]
    pids, pipes, failed = {}, {}, []  # pid -> task; task -> read end
    try:
        for j in range(1, len(tasks)):
            pipe = _fork(partial(_send, tasks[j]), pids, j)
            if pipe is None:
                failed.append(j)
            else:
                pipes[j] = pipe
        result = tasks[0][0]()
        for pid, j in list(pids.items()):
            outputs = tasks[j][1]
            sent = [pipes[j].readinto(part) for part in outputs]
            _, status = os.waitpid(pid, 0)
            del pids[pid]
            if status != 0 or sent != [part.nbytes for part in outputs]:
                failed.append(j)
        for j in sorted(failed):
            tasks[j][0]()
        return result
    finally:
        for pipe in pipes.values():
            pipe.close()
        _reap(pids)


def _cell_cdf(vals: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell edges and CDF of the 1D piecewise-constant law of the
    non-negative node values vals: cell k spans half a spacing on either
    side of node k, so the law is unbiased in the mean."""
    h = grid.spacing[0]
    cdf = np.concatenate([[0.0], np.cumsum(vals) * h])
    cdf /= cdf[-1]
    edges = grid.origin[0] + h * (np.arange(grid.points[0] + 1) - 0.5)
    return edges, cdf


def sample_equilibrium(rho: ScalarField, n: int, seed: int) -> TrajectoryEnsemble:
    """Draw n positions distributed as the (normalized) density rho.

    1D uses the inverse of the piecewise-linear CDF built on cell edges,
    which samples exactly the piecewise-constant density the grid
    represents. 2D draws per-cell counts from a multinomial and jitters
    uniformly inside each cell. Deterministic for a fixed seed. A density
    with a non-finite value, or with no positive value, raises.
    """
    rng = np.random.default_rng(seed)
    grid = rho.grid
    _check_finite(rho.values, "sampled density")
    vals = np.maximum(rho.values, 0.0)
    if not vals.any():
        raise ConfigError("sampled density has no positive value")
    if grid.dims == 1:
        edges, cdf = _cell_cdf(vals, grid)
        u = rng.random(n)
        positions = grid.wrap(np.interp(u, cdf, edges), 0)
    else:
        p = (vals * grid.cell_volume).ravel()
        p = p / p.sum()
        counts = rng.multinomial(n, p)
        flat = np.repeat(np.arange(p.size), counts)
        ix, iy = np.unravel_index(flat, grid.shape)
        jitter = rng.random((n, 2))
        hx, hy = grid.spacing
        positions = np.stack(
            [
                grid.wrap(grid.origin[0] + (ix - 0.5 + jitter[:, 0]) * hx, 0),
                grid.wrap(grid.origin[1] + (iy - 0.5 + jitter[:, 1]) * hy, 1),
            ],
            axis=-1,
        )
    return TrajectoryEnsemble(grid=grid, positions=positions)


def ks_statistic(positions: np.ndarray, rho: ScalarField) -> float:
    """Kolmogorov-Smirnov distance between sample and density CDF (1D).

    Uses the same node-centered piecewise-constant law as the sampler.
    """
    grid = rho.grid
    if grid.dims != 1:
        raise ConfigError("KS statistic implemented for 1D densities")
    edges, cdf = _cell_cdf(np.maximum(rho.values, 0.0), grid)
    lo = edges[0]
    xs = np.sort(lo + np.mod(np.asarray(positions, dtype=float) - lo,
                             grid.extent[0]))
    f = np.interp(xs, edges, cdf)
    n = xs.size
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def _window(grid: GridSpec, axis: int, col: np.ndarray,
            bins: int) -> tuple[np.ndarray, np.ndarray]:
    """col wrapped into the node-centered window along axis, which starts
    half a spacing below the origin, and the edges of its `bins` equal bins:
    bin b groups whole node-centered cells, the law sample_equilibrium
    draws from."""
    low, extent = grid.origin[axis] - grid.spacing[axis] / 2, grid.extent[axis]
    edges = low + (extent / bins) * np.arange(bins + 1)
    return low + np.mod(col - low, extent), edges


def _bin_index(grid: GridSpec, positions: np.ndarray,
               bins: tuple[int, ...]) -> np.ndarray:
    """Flat (row-major) bin of each position on the _window bins of every
    axis, or prod(bins) for a point in no bin; a ConfigError when no
    position lies in any bin, as for an empty ensemble.

    numpy's equal-bin rule: a scaled guess, then one correction against
    the edges. Bins are half-open [e_k, e_k+1) except the last, which also
    holds its upper edge; a point past the last edge, or NaN, is in none,
    as in np.histogram.
    """
    pos = np.asarray(positions, dtype=float)
    flat = np.zeros(len(pos), dtype=np.intp)
    no_bin = int(np.prod(bins))
    # block by block, as np.histogram counts, so the temporaries stay small
    for lo in range(0, len(pos), _BLOCK):
        part, into = pos[lo:lo + _BLOCK], flat[lo:lo + _BLOCK]
        outside = np.zeros(len(part), dtype=bool)
        for i, (col, b) in enumerate(zip([part] if grid.dims == 1 else part.T, bins)):
            wrapped, edges = _window(grid, i, col, b)
            first, last = edges[0], edges[-1]
            out = ~((wrapped >= first) & (wrapped <= last))
            outside |= out
            wrapped[out] = first
            k = ((wrapped - first) / (last - first) * b).astype(np.intp)
            k[k == b] = b - 1
            k[wrapped < edges[k]] -= 1
            k[(wrapped >= edges[k + 1]) & (k != b - 1)] += 1
            into *= b
            into += k
        into[outside] = no_bin
    if not (flat < no_bin).any():
        raise ConfigError(f"none of {len(pos)} positions lies in a histogram bin")
    return flat


def _density(bin_of: np.ndarray, size: int, bin_volume: float) -> np.ndarray:
    """Histogram density on `size` flat bins of bin indices bin_of (_bin_index)."""
    counts = np.bincount(bin_of, minlength=size + 1)[:size]
    return counts / (counts.sum() * bin_volume)


def _checked_bins(grid: GridSpec, bins) -> tuple[int, ...]:
    """bins (one count, or one per axis) as a tuple, or a ConfigError
    unless each is at least 1 and divides its axis's point count."""
    bins = (bins,) * grid.dims if np.isscalar(bins) else tuple(bins)
    for n, b in zip(grid.points, bins):
        if b < 1 or n % b != 0:
            raise ConfigError(f"{b} bins do not divide {n} grid points")
    return bins


def _bin_average(values: np.ndarray, grid: GridSpec, bins: tuple[int, ...]) -> np.ndarray:
    """Average a grid field over equal _checked_bins."""
    if grid.dims == 1:
        return values.reshape(bins[0], -1).mean(axis=1)
    bx, by = bins
    nx, ny = grid.points
    return values.reshape(bx, nx // bx, by, ny // by).mean(axis=(1, 3))


def equivariance_distance(ens: TrajectoryEnsemble, psi: WaveField,
                          bins) -> float:
    """L1 distance between the ensemble histogram and |psi|^2 on the bins."""
    if psi.grid != ens.grid:
        raise GridMismatchError("ensemble and wave field grids differ")
    rho_bar, bin_volume, flat = _binned(ens, psi, _checked_bins(ens.grid, bins))
    density = _density(flat, rho_bar.size, bin_volume)
    return float(np.sum(np.abs(density - rho_bar)) * bin_volume)


def coarse_grained_H(ens: TrajectoryEnsemble, psi: WaveField,
                     cell_size: int) -> float:
    """Coarse-grained relative entropy of the ensemble against |psi|^2.

    cell_size is in grid spacings (at least 4) and must divide the point
    count. Cells with no particles contribute zero; empty-density cells
    under occupied particles are guarded with a tiny floor instead of
    returning infinity.
    """
    return _entropy(*_binned(ens, psi, _coarse_bins(ens.grid, cell_size)))


def _coarse_bins(grid: GridSpec, cell_size: int) -> tuple[int, ...]:
    """The bins of cells cell_size spacings wide on every axis; cell_size
    must be at least 4 and divide each axis's point count."""
    if cell_size < 4:
        raise ConfigError("coarse-graining cells must span at least 4 spacings")
    for n in grid.points:
        if n % cell_size:
            raise ConfigError(f"cells of {cell_size} spacings do not divide "
                              f"{n} grid points")
    return tuple(n // cell_size for n in grid.points)


def _binned(ens: TrajectoryEnsemble, psi: WaveField,
            bins: tuple[int, ...]) -> tuple[np.ndarray, float, np.ndarray]:
    """The flat bin averages of |psi|^2, the bin volume and each
    trajectory's bin (_bin_index)."""
    grid = ens.grid
    rho_bar = _bin_average(psi.density().values, grid, bins).ravel()
    bin_volume = float(np.prod([L / b for L, b in zip(grid.extent, bins)]))
    return rho_bar, bin_volume, _bin_index(grid, ens.positions, bins)


def _entropy(rho_bar: np.ndarray, bin_volume: float, bin_of: np.ndarray) -> float:
    """Relative entropy of the histogram of bin indices bin_of against rho_bar."""
    p_bar = _density(bin_of, rho_bar.size, bin_volume)
    mask = p_bar > 0
    ratio = p_bar[mask] / np.maximum(rho_bar[mask], 1e-300)
    return float(np.sum(p_bar[mask] * np.log(ratio)) * bin_volume)


def bootstrap_coarse_H(ens: TrajectoryEnsemble, psi: WaveField,
                       cell_size: int, n_boot: int = 200,
                       seed: int = 0) -> tuple[float, float, float]:
    """H estimate with a bootstrap 95% band (resampling trajectories).

    Each trajectory's bin is assigned once; the estimate and every resample
    then only count bins (a resample of redrawn trajectory indices), which
    gives the same histogram density as binning the positions, on flat bins
    in the same order: the estimate equals coarse_grained_H bit for bit.
    """
    binned = _coarse_binned(ens, psi, cell_size)
    return (_entropy(*binned),) + _band(*binned, n_boot, seed)


def _band(rho_bar: np.ndarray, bin_volume: float, bin_of: np.ndarray, n_boot: int,
          seed: int) -> tuple[float, float]:
    """bootstrap_coarse_H's 95% band of the histogram of bin indices bin_of."""
    rng = np.random.default_rng(seed)
    n = len(bin_of)
    samples = [_entropy(rho_bar, bin_volume, bin_of[rng.integers(0, n, size=n)])
               for _ in range(n_boot)]
    lo, hi = np.percentile(samples, [2.5, 97.5])
    return float(lo), float(hi)


def _coarse_binned(ens: TrajectoryEnsemble, psi: WaveField,
                   cell_size: int) -> tuple[np.ndarray, float, np.ndarray]:
    """coarse_grained_H's bin averages, bin volume and trajectory bins, the
    bins in the smallest unsigned type that holds them (bincount counts
    them alike), so that relaxation can keep one per checkpoint for
    _bootstrap_bands."""
    rho_bar, bin_volume, bin_of = _binned(ens, psi, _coarse_bins(ens.grid, cell_size))
    return rho_bar, bin_volume, bin_of.astype(np.min_scalar_type(rho_bar.size))


def _bootstrap_bands(kept: list, seeds: list[int], n_boot: int = 200) -> list:
    """bootstrap_coarse_H's (H, lo, hi) of each _coarse_binned checkpoint of
    kept with its seed, bit for bit; the bands split into one contiguous
    share of checkpoints per CPU (_fork_join)."""
    bands = np.empty((len(kept), 2))

    def share(part: slice):
        def run():
            for c in range(part.start, part.stop):
                bands[c] = _band(*kept[c], n_boot, seeds[c])
        return run, (bands[part],)

    _fork_join([share(part) for part in _shares(len(kept), _cpus())])
    return [(_entropy(*k), lo, hi) for k, (lo, hi) in zip(kept, bands.tolist())]
