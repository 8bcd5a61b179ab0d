"""Mission integration kernels: team control ticks, RK4 stepping,
curve-distance queries, and the full fixed-step mission loop.

The loop holds one block of TICK_BLOCK ticks at a time.  Each block takes its
marching references from one array march_profile call (the reference
depends only on time), and once its records are made, its adherence
from one batched nearest-point pass over the block's positions.  Each
point's closest cached curve sample comes from a search that skips
every chunk of samples whose bounding circle cannot hold it (the same
index a brute-force argmin gives), and a bracketed Newton method
polishes the parameter between that sample's neighbours; only a bracket
with a cusp or a corner inside first takes ternary steps, which pick
the branch.  Placement (`sim.nearest_parameter`) uses the same query.
The finished block then goes to a callback that keeps what it needs
(sim.run_mission) or formats it while the loop runs (output.MissionWriter).

A tick runs on Python floats end to end: each agent's curve frame (one
curve_frame call: one float order-3 curve_jet call, more at a cusp), the
control laws and the RK4 step, per agent.  At a handful of agents that
is faster than array expressions over agents, whose per-call overhead
dwarfs the arithmetic.  mission_core converts its array inputs once and
holds each agent's state as a tuple of floats.  team_controls is one
flat function: it reads its gains once, runs the feedback-linearizing
path law inline, calls the pose, blend and repulsion laws of `control`,
and adds what belongs to the mission rather than to one agent's law:
the reference leash, the speed envelope and the turn-rate clamp.  Only
on a tick where some agent has a neighbor in range (or a nominal
control of zero) does it take every agent's avoidance steering angle
from one np.arctan2 call and blend in the avoidance law; on the other
ticks the blend would return the nominal controls bit for bit.  Its
neighbor loop also yields the smallest separation, so the loop needs no
separate pairwise-distance pass.

team_controls returns each agent's finished record row, laid out as
TRAJECTORY_COLUMNS: mission_core stores a tick's rows with one
assignment, and rk4_step_team steps them.  Controls are recomputed from
each snapshot before stepping and held constant across the step
(zero-order hold).
"""

import itertools
import math
from operator import attrgetter

import numpy as np

from ._curve_kernels import curve_frame, curve_jet, curve_point
from .control import (
    avoidance_control_law,
    beta_smooth,
    blend_weight,
    pose_control_law,
    repulsion_sum,
    transverse_terms,
)
from .curves import SAMPLE_CHUNK

TWO_PI = 2.0 * np.pi
# one trajectory record row, as team_controls makes it and trajectory.csv
# writes it after (t, agent): the state, the blend weight and avoidance
# authority, and the controls held over the next step
TRAJECTORY_COLUMNS = (
    "x",
    "y",
    "psi",
    "v",
    "z",
    "vz",
    "sigma",
    "alpha",
    "accel",
    "turn_rate",
    "lift_accel",
)
TERNARY_STEPS = 64  # ternary steps at most, for brackets that hold a cusp or corner
TURN_COS = 0.9  # cosine of the largest tangent turn a bracket may hold for Newton
NEWTON_TOL = 1e-12  # Newton step at which a point counts as converged
NEWTON_CAP = 64  # Newton rounds at most; a point still moving keeps its last step
POINT_BLOCK = 64  # points per pruned nearest-sample pass
PAIR_BLOCK = 256  # (point, chunk) pairs per exact pass: (256, 32) temporaries
# ticks per block of the mission loop: one march_profile call, one
# adherence pass and one on_block callback each
TICK_BLOCK = 512
# the trail keeps every agent's (x, y) at every TRAIL_STRIDE-th tick, which
# the snapshot SVG draws; TICK_BLOCK is a multiple of it
TRAIL_STRIDE = 4


def rk4_step_team(rows, dt):
    """One classical Runge-Kutta step of every agent's 6-state dynamics.

    The dynamics with frozen controls do not depend on the curve:
    (x', y', psi', v', z', vz') = (v cos psi, v sin psi, turn, accel,
    vz, lift_accel).  rows holds one TRAJECTORY_COLUMNS row of floats
    per agent, as team_controls makes it (sigma and alpha do not enter
    the step); returns the stepped states as a list of (x, y, psi, v, z,
    vz) tuples.
    """
    out = []
    for x, y, psi, v, z, vz, _sigma, _alpha, a, om, az in rows:
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
    PAIR_BLOCK x SAMPLE_CHUNK entries (2048 points peak near 0.5 MiB).
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
    curve's cached samples (Curve.sample_cache), and the bracket runs
    between its two neighbours.  A bracket that holds a cusp or a corner
    (_turns) takes ternary steps until it no longer does, at most
    TERNARY_STEPS: they settle which branch of the curve the point
    projects to.  A safeguarded Newton method then polishes the
    parameter inside the bracket, from its midpoint (rtsafe, Numerical
    Recipes 9.4; Hu and Wallner 2005).  It
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
    # Newton settles on whichever side of a cusp or corner it starts,
    # where the ternary search may pick the other side
    turning = np.flatnonzero(_turns(kind, par, lo, hi))
    for _ in range(TERNARY_STEPS):
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

    One nearest_on_curve call over every position; each tick sums its
    agents in agent order, then / n.  mission_core passes one block of
    at most TICK_BLOCK ticks, so the temporaries stay flat in the horizon.
    """
    n = xy.shape[1]
    pts = xy.reshape(-1, 2)
    dist, _s_at = nearest_on_curve(curve, pts[:, 0], pts[:, 1])
    dist = dist.reshape(-1, n)
    acc = 0.0
    for i in range(n):
        acc = acc + dist[:, i]
    return acc / n


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
    """Lifted reference positions and rates at the times t, per agent.

    z0 and z_cap are (n,) arrays and t is an (m,) array; returns (z_ref,
    rate) as (m, n) arrays.  Each reference marches linearly at `rate`
    from z0, then eases into the cap over the final `width` of lift: the
    rate scales with the remaining gap, so the profile is C1 and the
    reference never overshoots the cap.  A hard stop here would dump the
    arrival speed into the transverse errors and leave agents stranded
    in a standstill tug-of-war.  An infinite cap (a sweep-only mission)
    marches forever.  The ease evaluates np.exp on every entry, the
    linear ones too, where it can overflow; those entries are discarded.
    """
    t = t[:, None]
    linear = z0 + rate * t
    gap0 = z_cap - z0
    late = gap0 > width
    # past the linear stretch the remaining gap shrinks by a factor of e
    # every width / rate seconds, from width (a long march) or from gap0
    t_ease = np.where(late, t - (gap0 - width) / rate, t)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.where(late, width, gap0) * np.exp(-rate * t_ease / width)
        on_line = linear <= z_cap - width
        return (
            np.where(on_line, linear, z_cap - gap),
            np.where(on_line, rate, rate * gap / width),
        )


# the ControllerParams fields team_controls reads itself, once per call
_TICK_GAINS = attrgetter(
    *"""lift_gain kp_n kp_t kp_lift kd_n kd_t kd_lift v_min v_ref lead_width revs_star d_sw
    sigma_accept delta_sigma d_ao d_safe shrink_sigma shrink_factor v_max kv_limit omega_max""".split()
)


def team_controls(states, z0, z_ref, z_ref_rate, curve, targets, cp):
    """Every agent's trajectory record row at one instant.

    states holds one (x, y, psi, v, z, vz) row of floats per agent, z0
    their starting lifted coordinates, and z_ref and z_ref_rate the
    marching reference of each agent at this instant (a row of
    march_profile), all lists of floats.  targets is None (a sweep-only
    mission) or one (target_x, target_y, target_psi) row per agent.  The
    curve is read for kind, par and eps_sing only: each agent's frame is
    one curve_frame call at s = z / lift_gain.

    The reference is leashed to at most lead_width (in parameter) ahead
    of the agent's own lifted coordinate so an agent held up by
    avoidance is not punished with a catch-up sprint once it breaks
    free.  Path following and pose regulation mix through sigma, from
    the revolutions done since z0 and the distance to the target;
    without targets sigma is pinned at zero and the nominal input is
    pure path following.  The avoidance law overrides through alpha,
    gated by the duty factor beta_smooth((sigma_accept - sigma) /
    delta_sigma) so settled agents (sigma >= sigma_accept) ignore
    traffic; its steering angles come from one np.arctan2 call over the
    team, made only on ticks that need the blend.  A speed envelope caps
    acceleration once |v| (or |vz|) would exceed its bound, so a delayed
    agent catches up at a pace other agents' avoidance can still brake
    against, and the turn rate is clamped to omega_max.

    Returns (rows, min_sep): rows holds one TRAJECTORY_COLUMNS row per
    agent, its state, sigma, alpha and the controls (accel, turn,
    lift_accel), and min_sep is the smallest inter-agent separation of
    the snapshot (inf for a lone agent).
    """
    (lift_gain, kp_n, kp_t, kp_lift, kd_n, kd_t, kd_lift, v_min, v_ref, lead_width, revs_star, d_sw,
     sigma_accept, delta_sigma, d_ao, d_safe, shrink_sigma, shrink_factor, v_max, kv_limit,
     omega_max) = _TICK_GAINS(cp)
    kind, eps_sing = curve.kind, curve.eps_sing
    par = tuple(curve.par.tolist())
    px, py, psi, *_ = zip(*states)
    lead = lift_gain * lead_width
    vz_max = 2.0 * (lift_gain * v_ref)
    lap = TWO_PI * lift_gain
    nominal = []
    field_x = []
    field_y = []
    min_sep = math.inf
    engaged = False
    for i, (x, y, psi_i, v_i, z_i, vz_i) in enumerate(states):
        zr = z_ref[i]
        rate_i = z_ref_rate[i]
        # leash: a blocked agent's reference waits just ahead of it
        if zr > z_i + lead:
            zr = z_i + lead
            rate_i = 0.0
        # a sweep-only mission has done no revolutions toward a target,
        # which pins sigma at zero
        revs = 0.0
        if targets is None:
            target_x = target_y = target_psi = 0.0
        else:
            target_x, target_y, target_psi = targets[i]
            revs = (z_i - z0[i]) / lap
            if revs < 0.0:
                revs = 0.0
        dx = x - target_x
        dy = y - target_y
        sigma = blend_weight(revs, math.sqrt(dx * dx + dy * dy), revs_star, d_sw)
        # path following: a PD law on the transverse outputs (e_n, e_t,
        # h3), feedback-linearized by inverting their decoupling matrix
        # in closed form; the speed is floored at v_min inside the matrix
        # only, so the law stays defined through v = 0
        frame = curve_frame(kind, par, z_i / lift_gain, eps_sing)
        _gx, _gy, _tx, _ty, speed, turn, turn_deriv, speed_deriv, _kappa, _ok = frame
        e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot, sin_dpsi, cos_dpsi, s_rate = transverse_terms(
            frame, x, y, psi_i, v_i, z_i, vz_i, lift_gain, zr, rate_i
        )
        # the output accelerations with zero input
        drift_n = -turn_deriv * s_rate * s_rate * e_t - turn * s_rate * (
            turn * s_rate * e_n + 2.0 * v_i * cos_dpsi - speed * s_rate
        )
        drift_t = (
            turn_deriv * s_rate * s_rate * e_n
            + turn * s_rate * (-turn * s_rate * e_t + 2.0 * v_i * sin_dpsi)
            - speed_deriv * s_rate * s_rate
        )
        az_tfl = -kp_lift * h3 - kd_lift * h3_dot
        v_reg = v_i
        if abs(v_reg) < v_min:
            v_reg = v_min if v_reg >= 0.0 else -v_min
        # less what a_z contributes through the matrix's lifted column
        r1 = -kp_n * e_n - kd_n * e_n_dot - drift_n - (-turn * e_t / lift_gain) * az_tfl
        r2 = -kp_t * e_t - kd_t * e_t_dot - drift_t - ((turn * e_n - speed) / lift_gain) * az_tfl
        # closed-form inverse of the upper-left block [[sin, v cos], [cos, -v sin]]
        a_tfl = sin_dpsi * r1 + cos_dpsi * r2
        om_tfl = (cos_dpsi * r1 - sin_dpsi * r2) / v_reg
        a_pose, om_pose, az_pose = pose_control_law(
            x, y, psi_i, v_i, vz_i, target_x, target_y, target_psi, cp
        )
        duty = beta_smooth((sigma_accept - sigma) / delta_sigma)
        d_act = d_ao
        if sigma > shrink_sigma:
            d_act = shrink_factor * d_safe
        fx, fy, prox, sep = repulsion_sum(i, px, py, psi, d_act, cp)
        if sep < min_sep:
            min_sep = sep
        field_x.append(duty * fx)
        field_y.append(duty * fy)
        a = (1.0 - sigma) * a_tfl + sigma * a_pose
        om = (1.0 - sigma) * om_tfl + sigma * om_pose
        az = (1.0 - sigma) * az_tfl + sigma * az_pose
        # alpha = duty * prox is 0 unless a neighbor is in range, and then
        # the blend (1 - 0) u + 0 u_av returns u bit for bit, unless u is
        # -0.0 (the sum is +0.0); with a neighbor in range u_av may also
        # be nan (a zero duty times an overflowed field).  So the blend
        # runs on ticks with a neighbor in range or a zero nominal control
        if prox != 0.0 or a == 0.0 or om == 0.0 or az == 0.0:
            engaged = True
        nominal.append((a, om, az, sigma, duty * prox))
    if engaged:
        psi_des = np.arctan2(field_y, field_x).tolist()
    rows = []
    for i, ((x, y, psi_i, v_i, z_i, vz_i), (a, om, az, sigma, alpha)) in enumerate(
        zip(states, nominal)
    ):
        if engaged:
            a_av, om_av, az_av = avoidance_control_law(psi_des[i], psi_i, v_i, vz_i, cp)
            a = (1.0 - alpha) * a + alpha * a_av
            om = (1.0 - alpha) * om + alpha * om_av
            az = (1.0 - alpha) * az + alpha * az_av
        # speed envelope: restrict acceleration toward high |v|, |vz|
        hi = kv_limit * (v_max - v_i)
        lo = kv_limit * (-v_max - v_i)
        if a > hi:
            a = hi
        if a < lo:
            a = lo
        hi = kv_limit * (vz_max - vz_i)
        lo = kv_limit * (-vz_max - vz_i)
        if az > hi:
            az = hi
        if az < lo:
            az = lo
        # turn-rate saturation: near standstill the regularized inversion
        # emits demand/v_min noise that would thrash the heading
        if om > omega_max:
            om = omega_max
        if om < -omega_max:
            om = -omega_max
        rows.append((x, y, psi_i, v_i, z_i, vz_i, sigma, alpha, a, om, az))
    return rows, min_sep


def kept_tick_bytes(n):
    """Bytes an n-agent mission keeps per tick after its loop: 8 each for
    its time, min_distance, mean adherence and every agent's sigma, and 16
    for every agent's trail (x, y) every TRAIL_STRIDE-th tick."""
    return 8.0 * (3 + n) + 16.0 * n / TRAIL_STRIDE


def mission_core(curve, states0, z0, z_cap, targets, cp, dt, n_steps, snap_ticks=(), on_block=None):
    """Full fixed-step closed loop, one block of records at a time.

    Makes a record (state, blending diagnostics and controls) at every
    tick t_k = k*dt for k = 0..n_steps, stepping between records.  The
    array inputs (states0 (n, 6), z0 and z_cap (n,), targets None or
    (n, 3)) become the Python floats that team_controls takes.  Each
    block of TICK_BLOCK ticks gets its references from one march_profile
    call, fills one reused (TICK_BLOCK, n, TRAJECTORY_COLUMNS) buffer and
    gets its mean adherence from one mean_adherence call; on_block, if
    given, then gets (records, min_distance, adherence), in arrays valid
    only during the call.  Of the records the loop keeps sigma, the
    trail (x, y at every TRAIL_STRIDE-th tick), the pose (x, y, psi) at
    each tick of snap_ticks that it reaches and at the last record, and
    the closest pair of the first record at the run's smallest
    separation.  Stops early when agents close within 0.5 * cp.d_safe
    (collision) or any state goes non-finite.  Returns (min_distance,
    adherence, sigma, trail, poses, closest, collision, nonfinite): the
    series hold one tick per record made, trail (ticks, n, 2) one row per
    TRAIL_STRIDE records, poses maps a tick to its (n, 3) pose, and
    closest is (i, j), i < j, or None for a lone agent or no record.
    """
    n = states0.shape[0]
    total = n_steps + 1
    records = np.empty((TICK_BLOCK, n, len(TRAJECTORY_COLUMNS)))
    min_dist = np.zeros(total)
    adherence = np.zeros(total)
    sigma = np.zeros((total, n))
    trail = np.zeros((-(-total // TRAIL_STRIDE), n, 2))
    poses = {}
    closest = None
    closest_dist = math.inf
    states = list(map(tuple, states0.tolist()))
    z0_rows = z0.tolist()
    if targets is not None:
        targets = targets.tolist()
    ref_rate = cp.lift_gain * cp.v_ref
    width = cp.lift_gain * cp.brake_width
    abort_dist = 0.5 * cp.d_safe
    collision = False
    nonfinite = False
    filled = 0
    for start in range(0, total, TICK_BLOCK):
        stop = min(start + TICK_BLOCK, total)
        z_ref, z_ref_rate = march_profile(z0, z_cap, np.arange(start, stop) * dt, ref_rate, width)
        for k, zr, rr in zip(range(start, stop), z_ref.tolist(), z_ref_rate.tolist()):
            if not all(map(math.isfinite, itertools.chain.from_iterable(states))):
                nonfinite = True
                break
            rows, md = team_controls(states, z0_rows, zr, rr, curve, targets, cp)
            records[k - start] = rows
            min_dist[k] = md
            filled = k + 1
            if md < abort_dist:
                collision = True
                break
            if k < n_steps:
                states = rk4_step_team(rows, dt)
        if filled > start:
            block = records[: filled - start]
            adherence[start:filled] = mean_adherence(curve, block[:, :, 0:2])
            sigma[start:filled] = block[:, :, TRAJECTORY_COLUMNS.index("sigma")]
            # a block starts on a multiple of TRAIL_STRIDE
            xy = block[::TRAIL_STRIDE, :, 0:2]
            trail[start // TRAIL_STRIDE : start // TRAIL_STRIDE + xy.shape[0]] = xy
            for k in snap_ticks:
                if start <= k < filled:
                    poses[k] = block[k - start, :, 0:3].copy()
            last = block[-1, :, 0:3].copy()
            if n > 1:
                # the block's first record at its smallest separation takes
                # over only below the run's minimum so far
                j = int(np.argmin(min_dist[start:filled]))
                if min_dist[start + j] < closest_dist:
                    closest_dist = min_dist[start + j]
                    closest = closest_pair(block[j, :, 0], block[j, :, 1])
            if on_block is not None:
                on_block(block, min_dist[start:filled], adherence[start:filled])
        if collision or nonfinite:
            break
    if filled > 0:
        poses[filled - 1] = last
    return (
        min_dist[:filled], adherence[:filled], sigma[:filled],
        trail[: -(-filled // TRAIL_STRIDE)], poses, closest, collision, nonfinite,
    )
