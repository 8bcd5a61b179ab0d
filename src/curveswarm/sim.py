"""Closed-loop mission simulator: sweep the curve, then form the polygon.

A mission integrates the 6-state agents (x, y, psi, v, z, vz) under the
blended controller with a fixed RK4 step and zero-order-hold controls.
The lifted reference for agent i marches at a constant parameter rate,
z_ref_i(t) = z_i(0) + lift_gain * v_ref * t, until it reaches the
agent's assigned vertex address (after the required revolutions) and
holds there; a reference that kept marching past the address would
build an unbounded backlog against any captured agent and destabilize
the formation.  Missions with fewer than 3 agents skip formation
finding and run sweep-only (the blend stays at zero and the reference
never stops; collision avoidance still applies).
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _sim_kernels as sk
from ._sim_kernels import TRAJECTORY_COLUMNS
from ._stream import Stream
from .control import (
    ControllerParams,
    FormationAssignment,
    assign_vertices,
    make_params,
)
from .curves import Curve
from .finder import FinderConfig, FormationSolution, multistart

TWO_PI = 2.0 * np.pi
DT_MAX = 0.02
# bytes a mission may keep in arrays with one entry per tick: its times,
# min_distance and adherence series, and every agent's sigma and pose
RECORD_BUDGET = 1 << 30


class MissionError(ValueError):
    """Invalid mission configuration or an unusable formation."""


@dataclass
class MissionConfig:
    """Everything a mission needs besides the curve object itself.

    finder and params default to the standard configurations for the
    mission's curve and agent count; c_target seeds the formation
    center preference.  Initial conditions: agents drop on an annulus
    of half-width annulus_frac * scale around the curve at stratified
    parameters (redrawn until pairwise separation reaches 2x d_ao), with
    headings tangent-aligned up to a uniform +/-heading_spread rad.
    """

    curve: Curve
    n: int = 4
    finder: Optional[FinderConfig] = None
    params: Optional[ControllerParams] = None
    c_target: Optional[tuple] = None
    seed: int = 0
    dt: float = 0.01
    horizon: float = 120.0
    annulus_frac: float = 0.1
    heading_spread: float = 0.3
    snapshot_times: tuple = ()

    def validate(self) -> None:
        if not isinstance(self.curve, Curve):
            raise MissionError("curve must be a Curve instance")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise MissionError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise MissionError("n must be a positive integer")
        if self.seed < 0:
            raise MissionError(f"seed must be nonnegative, got {self.seed!r}")
        for name in ("horizon", "annulus_frac", "heading_spread"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise MissionError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.dt <= DT_MAX:
            raise MissionError(f"dt must lie in (0, {DT_MAX}]")
        if not self.horizon > 0.0:
            raise MissionError("horizon must be positive")
        ticks = self.horizon / self.dt + 1.0
        nbytes = 8.0 * ticks * (3 + 4 * self.n)
        if not nbytes <= RECORD_BUDGET:
            raise MissionError(
                f"horizon {self.horizon!r} s at dt {self.dt!r} s with n = {self.n} agents asks for"
                f" {nbytes:.4g} bytes of per-tick series (times, min_distance, adherence, and each"
                f" agent's sigma, x, y and psi), over the budget of {RECORD_BUDGET} bytes"
            )
        if self.annulus_frac < 0.0:
            raise MissionError("annulus_frac must be nonnegative")
        if self.heading_spread < 0.0:
            raise MissionError("heading_spread must be nonnegative")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.horizon:
                raise MissionError("snapshot times must lie within [0, horizon]")
        if self.finder is not None and self.finder.n != self.n:
            raise MissionError(
                f"finder is configured for n={self.finder.n} but the mission has n={self.n}"
            )


@dataclass
class MissionMetrics:
    """Mission outcome series on a shared time grid plus end-state facts.

    closest_pair (i, j), i < j, is the first pair at the smallest
    separation of the run, at the first record reaching it: on a
    collision, the colliding pair at the abort time.  None for a lone
    agent.
    """

    times: np.ndarray
    min_distance: np.ndarray
    mean_adherence: np.ndarray
    sigma: np.ndarray
    final_vertex_errors: Optional[np.ndarray]
    collision: bool
    nonfinite: bool
    solution: Optional[FormationSolution]
    assignment: Optional[FormationAssignment]
    closest_pair: Optional[tuple] = None

    @property
    def completed(self) -> bool:
        return not (self.collision or self.nonfinite)


def integrate_step(states, controls, dt: float) -> np.ndarray:
    """One RK4 step of every agent under frozen (zero-order-hold) controls."""
    if not 0.0 < dt <= DT_MAX:
        raise MissionError(f"dt must lie in (0, {DT_MAX}]")
    st = np.asarray(states, dtype=np.float64)
    u = np.asarray(controls, dtype=np.float64)
    if st.ndim != 2 or st.shape[1] != 6:
        raise MissionError("states must be an (n, 6) array")
    if u.shape != (st.shape[0], 3):
        raise MissionError("controls must be an (n, 3) array")
    if not (np.all(np.isfinite(st)) and np.all(np.isfinite(u))):
        raise MissionError("states and controls must be finite")
    # as record rows; sigma and alpha do not enter the step
    rows = [(*s, 0.0, 0.0, *c) for s, c in zip(st.tolist(), u.tolist())]
    return np.array(sk.rk4_step_team(rows, float(dt))).reshape(st.shape)


def nearest_parameter(p, curve: Curve) -> float:
    """Curve parameter in [0, 2*pi) whose point is closest to p."""
    px = np.array([float(p[0])])
    py = np.array([float(p[1])])
    _dist, s_at = sk.nearest_on_curve(curve, px, py)
    return float(s_at[0])


def initial_states(config: MissionConfig, cp: ControllerParams, rng):
    """Draw starting states near the curve; returns (states (n,6), z0 (n,)).

    Stratified parameters keep the draw reproducible and well spread.
    The whole set is redrawn until every pair clears 2x d_ao and the
    sweep-rate extrapolation along the curve keeps every pair outside
    d_ao for the first 5 s: on self-crossing curves two agents launched
    toward the same intersection close faster than avoidance can brake,
    so such draws are unwinnable and rejected up front.  The lifted
    coordinate starts at the address of the nearest curve point, and
    speeds start at the sweep-consistent value there (floored at v_min
    so the decoupling matrix starts regular).  rng is anything with
    numpy's Generator.uniform; each attempt draws n stratified
    parameters, n annulus offsets, then one heading per agent.
    run_mission passes _stream.Stream(seed), which draws what
    default_rng(seed) would.
    """
    curve = config.curve
    n = config.n
    scale = curve.scale
    for _attempt in range(1000):
        s_base = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) * TWO_PI / n
        offsets = rng.uniform(-config.annulus_frac, config.annulus_frac, size=n) * scale
        pts = np.empty((n, 2))
        for i in range(n):
            fr = curve.frenet(float(s_base[i]))
            pts[i] = curve.point(float(s_base[i])) + offsets[i] * fr.normal
        states = np.zeros((n, 6))
        z0 = np.zeros(n)
        for i in range(n):
            s_near = nearest_parameter(pts[i], curve)
            fr = curve.frenet(s_near)
            heading = fr.tangent_angle + rng.uniform(-config.heading_spread, config.heading_spread)
            v0 = max(cp.v_ref * cp.lift_gain * fr.speed, cp.v_min)
            states[i] = [pts[i, 0], pts[i, 1], heading, v0, cp.lift_gain * s_near, cp.lift_gain * cp.v_ref]
            z0[i] = cp.lift_gain * s_near
        if n == 1:
            return states, z0
        # 2x the activation radius: agents starting near a planar
        # crossing close fast, so leave room for avoidance to engage
        if sk.min_pair_distance(pts[:, 0], pts[:, 1]) < 2.0 * cp.d_ao:
            continue
        # ahead[t, i]: agent i's curve point t_ahead seconds on
        t_ahead = np.linspace(0.0, 5.0, 51)
        ahead = curve.point(z0 / cp.lift_gain + cp.v_ref * t_ahead[:, None])
        i, j = np.triu_indices(n, 1)
        gaps = np.hypot(*(ahead[:, i] - ahead[:, j]).transpose(2, 0, 1))
        if not np.any(gaps < cp.d_ao):
            return states, z0
    raise MissionError("could not draw a collision-free initial placement")


def _march_time(travel, total, rate, width):
    """Time for the eased reference march to cover `travel` out of `total`.

    Exact inverse of the kernel march profile: linear at `rate` until
    `width` short of the cap, then an exponential ease whose remaining
    gap shrinks by a factor of e every width / rate seconds.
    """
    if travel <= 0.0:
        return 0.0
    left = total - travel
    if total > width:
        if left >= width:
            return travel / rate
        return (total - width) / rate + (width / rate) * math.log(width / left)
    return (width / rate) * math.log(total / left)


def _schedule_laps(theta, gap, base, curve, cp):
    """Extra whole revolutions per agent so nobody parks on a mover's lane.

    Agent k last sweeps past vertex j a fixed arc before reaching its own
    cap, so the integer lap counts decide whether that pass happens while
    the vertex owner is still travelling or after it has parked there.  A
    parked agent keeps zero avoidance duty and sits directly on the
    passer's path, and the cosine-gated avoidance law can only brake on
    axis, not route around it, so every pass must beat the owner's
    arrival.  Search the small lap grid for the schedule with the largest
    worst-case time margin between each pass and the owner entering its
    parking zone, preferring fewer laps once the margin is comfortable
    and keeping the slowest arrival inside the mission budget.
    """
    n = theta.size
    if n < 2:
        return base
    rate = cp.v_ref
    width = cp.brake_width
    # parameter half-width of the parking zone: arc whose chord spans the
    # avoidance activation radius, plus a pad for the capture crawl
    zone = np.empty(n)
    for j in range(n):
        d1 = np.asarray(curve.deriv(float(theta[j]), 1), dtype=float)
        zone[j] = cp.d_ao / max(float(np.hypot(d1[0], d1[1])), 1e-9) + 0.2
    # cyc[k, j]: arc from vertex j forward along the sweep to vertex k
    cyc = np.mod(theta[:, None] - theta[None, :], TWO_PI)
    enough = 8.0
    t_budget = 80.0
    span = 3 if n <= 6 else 2
    best_key = None
    best = base
    for extra in itertools.product(range(span), repeat=n):
        total = gap + TWO_PI * (base + np.asarray(extra, dtype=float))
        worst = np.inf
        for j in range(n):
            t_zone = _march_time(total[j] - zone[j], total[j], rate, width)
            for k in range(n):
                back = cyc[k, j]
                if k == j or total[k] <= back:
                    continue
                t_pass = _march_time(total[k] - back, total[k], rate, width)
                worst = min(worst, t_zone - t_pass)
        t_done = max(
            _march_time(tot - 0.05, tot, rate, width) for tot in total
        )
        key = (
            t_done <= t_budget,
            min(worst, enough),
            -float(np.sum(extra)),
            -t_done,
        )
        if best_key is None or key > best_key:
            best_key = key
            best = base + np.asarray(extra, dtype=float)
    return best


def run_mission(config: MissionConfig, on_block=None):
    """Execute the closed loop; returns (MissionMetrics, pose).

    pose[k, i] is agent i's (x, y, psi), the first three record columns,
    at metrics.times[k].  Missions with n >= 3 first find the inscribed
    polygon by multistart and assign vertices in cyclic order; a mission
    whose best formation is not geometrically usable raises MissionError.
    Early stops: inter-agent distance under 0.5 * d_safe sets the
    collision flag, non-finite states set nonfinite; both truncate the
    series.  on_block gets each block of records with its minimum
    distances and mean adherence (_sim_kernels.mission_core), in arrays
    valid only during the call: a caller that keeps them copies them.
    """
    config.validate()
    curve = config.curve
    cp = config.params if config.params is not None else make_params(curve)
    states0, z0 = initial_states(config, cp, Stream(config.seed))

    solution = None
    assignment = None
    targets = None
    z_cap = np.full(config.n, np.inf)
    if config.n >= 3:
        fc = config.finder
        if fc is None:
            fc = FinderConfig(n=config.n, seed=config.seed, c_target=config.c_target)
        elif config.c_target is not None and fc.c_target is None:
            fc = dataclasses.replace(fc, c_target=config.c_target)
        solution = multistart(curve, fc)
        if not solution.feasible:
            raise MissionError(
                "formation finder returned no geometrically usable polygon"
            )
        assignment = assign_vertices(states0, solution, curve, cp)
        targets = np.column_stack((assignment.position, assignment.heading))
        # march budget: forward gap to the vertex plus whole revolutions
        # until the revolution gate is satisfied on arrival, staggered so
        # every agent clears the vertices of earlier arrivers in time
        s0 = z0 / cp.lift_gain
        gap = np.mod(assignment.theta - s0, TWO_PI)
        base = np.maximum(0.0, np.ceil(cp.revs_star - gap / TWO_PI))
        whole = _schedule_laps(assignment.theta, gap, base, curve, cp)
        z_cap = z0 + cp.lift_gain * (gap + TWO_PI * whole)

    n_steps = int(round(config.horizon / config.dt))
    min_dist, adherence, sigma, pose, collision, nonfinite = sk.mission_core(
        curve, states0, z0, z_cap, targets, cp, float(config.dt), n_steps, on_block
    )
    times = np.arange(pose.shape[0]) * config.dt
    final_errors = None
    if targets is not None and pose.shape[0] > 0:
        final_errors = np.hypot(
            pose[-1, :, 0] - assignment.position[:, 0],
            pose[-1, :, 1] - assignment.position[:, 1],
        )
    closest = None
    if config.n > 1 and pose.shape[0] > 0:
        k = int(np.argmin(min_dist))
        closest = sk.closest_pair(pose[k, :, 0], pose[k, :, 1])
    metrics = MissionMetrics(
        times=times,
        min_distance=min_dist,
        mean_adherence=adherence,
        sigma=sigma,
        final_vertex_errors=final_errors,
        collision=bool(collision),
        nonfinite=bool(nonfinite),
        solution=solution,
        assignment=assignment,
        closest_pair=closest,
    )
    return metrics, pose
