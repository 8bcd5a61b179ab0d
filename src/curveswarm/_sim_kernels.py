"""Mission integration kernels: team control ticks, RK4 stepping,
curve-distance queries, and the full fixed-step mission loop.  The
adherence metric is not part of the loop: it is one batched
nearest-point pass over the recorded positions once the loop ends.
Each point's closest cached curve sample comes from a search that skips
every chunk of samples whose bounding circle cannot hold it (the same
index a brute-force argmin gives); a few ternary steps around it pick
the branch of the curve, and a bracketed Newton method polishes the
parameter.  Placement (`sim.nearest_parameter`) uses the same query.

A tick runs on Python floats end to end: the curve geometry (from the
float path of curve_jet; numpy only for the tangent angles and near a
cusp), the control laws and the RK4 step, per agent.  At a handful of
agents that is faster than array expressions over agents, whose
per-call overhead dwarfs the arithmetic.  mission_core converts its
array inputs once, holds each agent's state as a tuple of floats, and
writes each tick's record into the trajectory array with one
assignment.  The laws live in `control`; team_controls is their caller
and adds what belongs to the mission rather than to one agent's law:
the marching reference and its leash, the speed envelope and the
turn-rate clamp.  The tick's neighbor loop also yields the smallest
separation, so the loop needs no separate pairwise-distance pass.

A trajectory record holds one row per agent in the TRAJECTORY_COLUMNS
order.  Controls are recomputed from each snapshot before stepping and
held constant across the step (zero-order hold).  The loop can hand each
finished block of TICK_BLOCK records to a callback while it runs on, so
a writer can format them on another core (output.TrajectoryWriter).
"""

import itertools
import math

import numpy as np

from ._curve_kernels import curve_jet, curve_point
from .control import agent_control, curve_geometry
from .curves import SAMPLE_CHUNK

TWO_PI = 2.0 * np.pi
# one trajectory record row: the state, the blend diagnostics, the controls
TRAJECTORY_COLUMNS = (
    "x",
    "y",
    "psi",
    "v",
    "z",
    "vz",
    "sigma",
    "alpha",
    "alpha_duty",
    "accel",
    "turn_rate",
    "lift_accel",
)
TERNARY_PREFIX = 8  # ternary steps that pick the branch before Newton polishes it
TERNARY_STEPS = 64  # ternary steps at most, for brackets that hold a cusp or corner
TURN_COS = 0.9  # cosine of the largest tangent turn a bracket may hold for Newton
NEWTON_TOL = 1e-12  # Newton step at which a point counts as converged
NEWTON_CAP = 64  # Newton rounds at most; a point still moving keeps its last step
POINT_BLOCK = 256  # points per pruned nearest-sample pass
PAIR_BLOCK = 2048  # (point, chunk) pairs per exact pass: (2048, 32) temporaries
# records per adherence pass after the mission loop, and per block that
# mission_core streams to its on_block callback
TICK_BLOCK = 512


def rk4_step_team(states, controls, dt):
    """One classical Runge-Kutta step of every agent's 6-state dynamics.

    The dynamics with frozen controls do not depend on the curve:
    (x', y', psi', v', z', vz') = (v cos psi, v sin psi, turn, accel,
    vz, lift_accel).  states holds one (x, y, psi, v, z, vz) row of
    floats per agent and controls one row per agent that starts (accel,
    turn, lift_accel); returns the stepped states as a list of tuples.
    """
    out = []
    for (x, y, psi, v, z, vz), c in zip(states, controls):
        a, om, az = c[0], c[1], c[2]
        # stage 1
        k1x = v * math.cos(psi)
        k1y = v * math.sin(psi)
        # stage 2
        psi2 = psi + 0.5 * dt * om
        v2 = v + 0.5 * dt * a
        k2x = v2 * math.cos(psi2)
        k2y = v2 * math.sin(psi2)
        # stage 3 sees the same midpoint rates for psi and v
        k3x = k2x
        k3y = k2y
        # stage 4
        psi4 = psi + dt * om
        v4 = v + dt * a
        k4x = v4 * math.cos(psi4)
        k4y = v4 * math.sin(psi4)
        out.append(
            (
                x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                psi + dt * om,
                v + dt * a,
                z + dt * vz + 0.5 * dt * dt * az,
                vz + dt * az,
            )
        )
    return out


def nearest_sample(px, py, chunks):
    """Index of the first sample at the smallest squared distance, per point.

    Equal, index for index, to np.argmin((sample_x - px)**2 + (sample_y -
    py)**2) with the squares taken as dx*dx, but prunes: every chunk of
    SAMPLE_CHUNK consecutive samples has a bounding circle (centre c,
    radius r), a point's distance is at most min(|p - c| + r) over the
    chunks, and only chunks whose |p - c| - r does not exceed that bound
    by more than a rounding slack get their squared distances computed.
    chunks is curves.chunk_circles(sample_x, sample_y), which
    Curve.sample_chunks caches.  Points run POINT_BLOCK at a time and
    chunk evaluations PAIR_BLOCK at a time, so no temporary exceeds
    PAIR_BLOCK x SAMPLE_CHUNK entries.
    """
    chunk_x, chunk_y, centre_x, centre_y, radius, reach = chunks
    best = np.zeros(px.shape[0], dtype=np.intp)
    for b in range(0, px.shape[0], POINT_BLOCK):
        bx = px[b : b + POINT_BLOCK]
        by = py[b : b + POINT_BLOCK]
        cx = centre_x - bx[:, None]
        cy = centre_y - by[:, None]
        dc = np.sqrt(cx * cx + cy * cy)
        # the bounds are rounded to ~1e-15 of the coordinates' size; this slack
        # keeps every chunk that could hold a tie with the true minimum
        bound = np.min(dc + radius, axis=1) + 1e-9 * (np.abs(bx) + np.abs(by) + reach)
        pt, ch = np.nonzero(dc - radius <= bound[:, None])
        if pt.shape[0] == 0:
            continue  # non-finite points keep index 0, as argmin gives them
        within = np.empty(pt.shape[0], dtype=np.intp)
        d2_min = np.empty(pt.shape[0])
        for a in range(0, pt.shape[0], PAIR_BLOCK):
            p = pt[a : a + PAIR_BLOCK]
            k = ch[a : a + PAIR_BLOCK]
            dx = chunk_x[k] - bx[p, None]
            dy = chunk_y[k] - by[p, None]
            d2 = dx * dx + dy * dy
            j = np.argmin(d2, axis=1)
            within[a : a + PAIR_BLOCK] = j
            d2_min[a : a + PAIR_BLOCK] = d2[np.arange(j.shape[0]), j]
        # pairs run in (point, chunk) order, so the first pair at its
        # point's minimum holds the lowest sample index at that minimum
        first = np.flatnonzero(np.diff(pt, prepend=-1))
        point_min = np.full(bx.shape[0], np.inf)
        point_min[pt[first]] = np.minimum.reduceat(d2_min, first)
        at_min = np.flatnonzero(d2_min == point_min[pt])
        lead = at_min[np.diff(pt[at_min], prepend=-1) != 0]
        best[b + pt[lead]] = ch[lead] * SAMPLE_CHUNK + within[lead]
    return best


def _ternary_step(kind, par, px, py, lo, hi):
    """One ternary-search step on |gamma - p|^2 over each bracket [lo, hi]."""
    m1 = lo + (hi - lo) / 3.0
    m2 = hi - (hi - lo) / 3.0
    x, y = curve_point(kind, par, np.stack((m1, m2)))
    dx = x - px
    dy = y - py
    f = dx * dx + dy * dy
    left = f[0] < f[1]
    return np.where(left, lo, m1), np.where(left, m2, hi)


def _turns(kind, par, lo, hi):
    """Whether the tangent turns further than TURN_COS allows from lo to hi.

    Over a bracket this short a regular arc barely turns, so a turn marks
    a cusp or a corner inside: there gamma' = 0, and the distance can have
    a local minimum on either side.
    """
    _x, _y, dx, dy = curve_jet(kind, par, np.stack((lo, hi)), 1)
    dot = dx[0] * dx[1] + dy[0] * dy[1]
    speeds = (dx[0] * dx[0] + dy[0] * dy[0]) * (dx[1] * dx[1] + dy[1] * dy[1])
    return dot <= TURN_COS * np.sqrt(speeds)


def nearest_on_curve(curve, px, py):
    """Global distance to the curve and the parameter attaining it, per point.

    px, py are (m,) arrays.  nearest_sample finds the closest of the
    curve's cached samples (Curve.sample_cache).  The bracket of its two
    neighbours takes TERNARY_PREFIX ternary steps, which settle which
    branch of the curve the point projects to; a bracket that still
    holds a cusp or a corner keeps stepping until it no longer does.  A
    safeguarded Newton method then polishes the parameter inside the
    bracket (rtsafe, Numerical Recipes 9.4; Hu and Wallner 2005).  It
    seeks the zero of g(s) = (gamma - p) . gamma', half the derivative
    of |gamma(s) - p|^2, with g' = |gamma'|^2 + (gamma - p) . gamma'',
    from one order-2 curve_jet call per round over the points still
    open.  Each round shrinks the bracket on the sign of g and bisects
    instead where g' <= 0 (at a local maximum of the distance) or where
    the step would leave the bracket.  A point retires once its step is
    at most NEWTON_TOL, or after NEWTON_CAP rounds; non-finite points
    skip the polish.  Returns (distance (m,), parameter in [0, 2*pi) (m,)).
    """
    kind, par = curve.kind, curve.par
    sample_s = curve.sample_cache()[0]
    best = nearest_sample(px, py, curve.sample_chunks())
    step = TWO_PI / sample_s.shape[0]
    lo = sample_s[best] - step
    hi = sample_s[best] + step
    for _ in range(TERNARY_PREFIX):
        lo, hi = _ternary_step(kind, par, px, py, lo, hi)
    # Newton settles on whichever side of a cusp or corner it starts,
    # where the ternary search may go on to pick the other side
    turning = np.flatnonzero(_turns(kind, par, lo, hi))
    for _ in range(TERNARY_PREFIX, TERNARY_STEPS):
        if turning.shape[0] == 0:
            break
        lo[turning], hi[turning] = _ternary_step(
            kind, par, px[turning], py[turning], lo[turning], hi[turning]
        )
        turning = turning[_turns(kind, par, lo[turning], hi[turning])]
    s_at = 0.5 * (lo + hi)
    live = np.flatnonzero(np.isfinite(px) & np.isfinite(py))
    qx, qy, lo, hi, s = px[live], py[live], lo[live], hi[live], s_at[live]
    for _ in range(NEWTON_CAP):
        if live.shape[0] == 0:
            break
        x, y, dx, dy, ddx, ddy = curve_jet(kind, par, s, 2)
        ex = x - qx
        ey = y - qy
        g = ex * dx + ey * dy
        dg = dx * dx + dy * dy + ex * ddx + ey * ddy
        # |gamma - p| falls to the right of s where g < 0
        right = g < 0.0
        lo = np.where(right, s, lo)
        hi = np.where(right, hi, s)
        nxt = s - g / np.where(dg > 0.0, dg, 1.0)
        # a step onto a bracket end is a step, not an escape
        nxt = np.where((dg > 0.0) & (nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        s_at[live] = nxt
        going = np.abs(nxt - s) > NEWTON_TOL
        live, qx, qy, lo, hi, s = (a[going] for a in (live, qx, qy, lo, hi, nxt))
    gx, gy = curve_point(kind, par, s_at)
    dx = gx - px
    dy = gy - py
    # a parameter a hair below 0 wraps to 2*pi - tiny, which can round to 2*pi
    s_at = s_at % TWO_PI
    return np.sqrt(dx * dx + dy * dy), np.where(s_at < TWO_PI, s_at, 0.0)


def mean_adherence(curve, xy):
    """Mean agent-to-curve distance per tick of xy (ticks, n, 2).

    Runs over blocks of TICK_BLOCK ticks so peak memory stays flat in
    the horizon; each tick sums its agents in agent order, then / n.
    """
    ticks, n = xy.shape[:2]
    out = np.empty(ticks)
    for k in range(0, ticks, TICK_BLOCK):
        pts = xy[k : k + TICK_BLOCK].reshape(-1, 2)
        dist, _s_at = nearest_on_curve(curve, pts[:, 0], pts[:, 1])
        dist = dist.reshape(-1, n)
        acc = 0.0
        for i in range(n):
            acc = acc + dist[:, i]
        out[k : k + TICK_BLOCK] = acc / n
    return out


def min_pair_distance(px, py):
    """Smallest inter-agent separation; inf for a single agent."""
    if px.shape[0] < 2:
        return np.inf
    i, j = np.triu_indices(px.shape[0], 1)
    return np.min(np.sqrt((px[i] - px[j]) ** 2 + (py[i] - py[j]) ** 2))


def closest_pair(px, py):
    """First pair (i, j), i < j, at the smallest separation; n >= 2."""
    i, j = np.triu_indices(px.shape[0], 1)
    k = np.argmin(np.sqrt((px[i] - px[j]) ** 2 + (py[i] - py[j]) ** 2))
    return int(i[k]), int(j[k])


def march_profile(z0, z_cap, t, rate, width):
    """Lifted reference position and rate at time t.

    Marches linearly at `rate` from z0, then eases into the cap over
    the final `width` of lift: the rate scales with the remaining gap,
    so the profile is C1 and the reference never overshoots the cap.
    A hard stop here would dump the arrival speed into the transverse
    errors and leave agents stranded in a standstill tug-of-war.  Both
    outputs are Python floats for float inputs: the ease takes numpy's
    exp (math.exp differs from it in the last bit on some arguments) and
    converts its result.
    """
    linear = z0 + rate * t
    if linear <= z_cap - width:
        return linear, rate
    gap0 = z_cap - z0
    if gap0 > width:
        t_ramp = t - (gap0 - width) / rate
        gap = width * float(np.exp(-rate * t_ramp / width))
    else:
        gap = gap0 * float(np.exp(-rate * t / width))
    return z_cap - gap, rate * gap / width


def team_controls(states, z0, z_cap, t, curve, targets, cp):
    """Controls plus (sigma, alpha, duty) for every agent at one instant.

    The lifted reference for agent i marches as z0[i] + ref_rate * t,
    with ref_rate = cp.lift_gain * cp.v_ref, and eases smoothly into
    z_cap[i] (the agent's vertex address after the required
    revolutions); a sweep-only mission passes an infinite cap, so the
    march never stops, and targets = None.  states holds one (x, y,
    psi, v, z, vz) row of floats per agent, z0 and z_cap are lists of
    floats, and targets is None or one (target_x, target_y, target_psi)
    row per agent.  The curve is read for kind, par and eps_sing only.
    The reference is leashed to at most lead_width (in parameter) ahead
    of the agent's own lifted coordinate so an agent held up by
    avoidance is not punished with a catch-up sprint once it breaks
    free.  Without targets sigma is
    pinned at zero and the nominal input is pure path following;
    avoidance still applies.  A speed envelope caps acceleration once
    |v| (or |vz|) would exceed its bound, so a delayed agent catches up
    at a pace other agents' avoidance can still brake against.

    Returns (controls, min_sep): controls holds one (accel, turn,
    lift_accel, sigma, alpha, duty) tuple per agent, and min_sep is the
    smallest inter-agent separation of the snapshot (inf for a lone
    agent).
    """
    px, py, psi, v, z, vz = zip(*states)
    geo = curve_geometry(curve, [zi / cp.lift_gain for zi in z])
    goals = [(0.0, 0.0, 0.0)] * len(px) if targets is None else targets
    ref_rate = cp.lift_gain * cp.v_ref
    width = cp.lift_gain * cp.brake_width
    lead = cp.lift_gain * cp.lead_width
    vz_max = 2.0 * ref_rate
    rows = []
    min_sep = math.inf
    for i in range(len(px)):
        z_ref, rate_i = march_profile(z0[i], z_cap[i], t, ref_rate, width)
        # leash: a blocked agent's reference waits just ahead of it
        if z_ref > z[i] + lead:
            z_ref = z[i] + lead
            rate_i = 0.0
        # a sweep-only mission has done no revolutions toward a target,
        # which pins sigma at zero
        revs = 0.0
        if targets is not None:
            revs = (z[i] - z0[i]) / (TWO_PI * cp.lift_gain)
            if revs < 0.0:
                revs = 0.0
        target_x, target_y, target_psi = goals[i]
        a, om, az, sg, al, du, sep = agent_control(
            i,
            px,
            py,
            psi,
            v,
            z,
            vz,
            revs,
            geo[i],
            target_x,
            target_y,
            target_psi,
            z_ref,
            rate_i,
            cp,
        )
        if sep < min_sep:
            min_sep = sep
        # speed envelope: restrict acceleration toward high |v|, |vz|
        hi = cp.kv_limit * (cp.v_max - v[i])
        lo = cp.kv_limit * (-cp.v_max - v[i])
        if a > hi:
            a = hi
        if a < lo:
            a = lo
        hi = cp.kv_limit * (vz_max - vz[i])
        lo = cp.kv_limit * (-vz_max - vz[i])
        if az > hi:
            az = hi
        if az < lo:
            az = lo
        # turn-rate saturation: near standstill the regularized inversion
        # emits demand/v_min noise that would thrash the heading
        if om > cp.omega_max:
            om = cp.omega_max
        if om < -cp.omega_max:
            om = -cp.omega_max
        rows.append((a, om, az, sg, al, du))
    return rows, min_sep


def mission_core(curve, states0, z0, z_cap, targets, cp, dt, n_steps, on_block=None):
    """Full fixed-step closed loop.

    Records state, blending diagnostics, and controls at every tick
    t_k = k*dt for k = 0..n_steps, stepping between records.  states0
    is an (n, 6) array, z0 and z_cap are (n,) arrays and targets is
    None or an (n, 3) array; they become the Python floats that
    team_controls takes once, before the loop.  on_block, if given,
    is called with traj[k - TICK_BLOCK : k] each time k records are
    complete and k is a multiple of TICK_BLOCK; the records after the
    last such block reach no callback.  Stops early when
    agents close within 0.5 * cp.d_safe (collision) or any state goes
    non-finite.  The adherence series is computed after the loop from
    the recorded positions.  Returns (trajectory, min_distance,
    adherence, collision, nonfinite); the three series hold one entry
    per record made, a trajectory record being (n, TRAJECTORY_COLUMNS).
    """
    n = states0.shape[0]
    total = n_steps + 1
    traj = np.zeros((total, n, len(TRAJECTORY_COLUMNS)))
    min_dist = np.zeros(total)
    states = list(map(tuple, states0.tolist()))
    z0 = z0.tolist()
    z_cap = z_cap.tolist()
    if targets is not None:
        targets = targets.tolist()
    abort_dist = 0.5 * cp.d_safe
    collision = False
    nonfinite = False
    filled = 0
    for k in range(total):
        t = k * dt
        if not all(map(math.isfinite, itertools.chain.from_iterable(states))):
            nonfinite = True
            break
        ctrl, md = team_controls(states, z0, z_cap, t, curve, targets, cp)
        traj[k] = [
            (*st, sg, al, du, a, om, az) for st, (a, om, az, sg, al, du) in zip(states, ctrl)
        ]
        min_dist[k] = md
        filled = k + 1
        if on_block is not None and filled % TICK_BLOCK == 0:
            on_block(traj[filled - TICK_BLOCK : filled])
        if md < abort_dist:
            collision = True
            break
        if k < n_steps:
            states = rk4_step_team(states, ctrl, dt)
    adherence = mean_adherence(curve, traj[:filled, :, 0:2])
    return traj[:filled], min_dist[:filled], adherence, collision, nonfinite
