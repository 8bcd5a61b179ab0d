"""Closed planar curve catalog with differential-geometric queries.

Twelve parametric families (all with parameter period 2*pi) plus named
presets, wrapped in an immutable Curve object that exposes point/derivative
evaluation, Frenet frames with a cusp fallback, arclength and its inverse,
and a characteristic scale.  Everything downstream (formation solver,
controller, simulator) consumes curves only through this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _curve_kernels as ck

TWO_PI = 2.0 * math.pi
ARC_CELLS = 128  # arclength-table cells (x 16 nodes) per derivative call
SAMPLE_COUNT = 2048  # uniform parameter samples cached for proximity queries
SAMPLE_CHUNK = 32  # consecutive cached samples under one bounding circle


class CurveError(ValueError):
    """Unknown catalog tag or invalid family parameters."""


class SingularPointError(RuntimeError):
    """No regular parameter found near a singular query point."""


# 16-point Gauss-Legendre rule on [-1, 1]: the values of numpy's
# leggauss(16), whose nodes and weights are exactly symmetric, so the
# positive half is stored and mirrored
_GL_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
GL_NODES = np.array([-x for x in _GL_HALF_NODES[::-1]] + list(_GL_HALF_NODES))
GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
GL_NODES.setflags(write=False)
GL_WEIGHTS.setflags(write=False)


def _require(cond, msg):
    if not cond:
        raise CurveError(msg)


def _near_integer(x, name):
    _require(abs(x - round(x)) < 1e-9, f"{name} must be an integer, got {x}")
    return float(round(x))


def _trig_rows(terms):
    """KIND_TRIG rows [k, k^2, k^3, a, b, c, d], by ascending k, from (k, a, b, c, d) terms.

    A term adds a cos ks + b sin ks to x and c cos ks + d sin ks to y, for
    an integer k.  Terms of one |k| merge (a negative k flips the sine
    coefficients, k = 0 keeps the constants); an all-zero row is dropped.
    """
    rows = {}
    for k, a, b, c, d in terms:
        if k < 0:
            k, b, d = -k, -b, -d
        if k == 0:
            b = d = 0.0
        rows[k] = [u + v for u, v in zip(rows.get(k, (0.0,) * 4), (a, b, c, d))]
    return np.array([[k, k * k, k**3, *row] for k, row in sorted(rows.items()) if any(row)], float)


def _pack_ellipse(p):
    _require(p["a"] > 0 and p["b"] > 0, "ellipse semi-axes must be positive")
    return _trig_rows([(1, p["a"], 0.0, 0.0, p["b"])])


def _pack_deltoid(p):
    _require(p["a"] > 0, "deltoid scale must be positive")
    a = p["a"]  # a (2 cos s + cos 2s, 2 sin s - sin 2s)
    return _trig_rows([(1, 2.0 * a, 0.0, 0.0, 2.0 * a), (2, a, 0.0, 0.0, -a)])


def _pack_rose(p):
    k = _near_integer(p["k"], "rose k")
    _require(p["a"] > 0 and k >= 1, "rose needs a > 0 and integer k >= 1")
    h = 0.5 * p["a"]
    # a cos ks (cos s, sin s) = a/2 (cos (k+1)s + cos (k-1)s, sin (k+1)s - sin (k-1)s)
    return _trig_rows([(k + 1, h, 0.0, 0.0, h), (k - 1, h, 0.0, 0.0, -h)])


def _pack_lissajous(p):
    fx = _near_integer(p["freq_x"], "lissajous freq_x")
    fy = _near_integer(p["freq_y"], "lissajous freq_y")
    _require(p["amp_x"] > 0 and p["amp_y"] > 0, "lissajous amplitudes must be positive")
    _require(fx >= 1 and fy >= 1, "lissajous frequencies must be integers >= 1")
    ax, phase = p["amp_x"], p["phase"]  # (amp_x sin(fx s + phase), amp_y sin(fy s))
    x_row = (fx, ax * math.sin(phase), ax * math.cos(phase), 0.0, 0.0)
    return _trig_rows([x_row, (fy, 0.0, 0.0, 0.0, p["amp_y"])])


def _pack_superellipse(p):
    m = _near_integer(p["m"], "superellipse m")
    _require(p["a"] > 0 and p["b"] > 0, "superellipse semi-axes must be positive")
    _require(m >= 4 and m % 2 == 0, "superellipse exponent must be even and >= 4")
    return np.array([p["a"], p["b"], m], float)


def _pack_cassini(p):
    _require(p["b"] > p["a"] > 0, "cassini needs b > a > 0 (single-loop oval)")
    return np.array([p["a"], p["b"]], float)


def _pack_lemniscate(p):
    _require(p["a"] > 0, "lemniscate scale must be positive")
    return np.array([p["a"]], float)


def _pack_fourier(p):
    coeffs = np.atleast_1d(np.asarray(p["coeffs"], float))
    _require(coeffs.size % 2 == 0, "fourier coeffs must be (A_j, B_j) pairs")
    c0 = float(p["c0"])
    phi = np.linspace(0.0, TWO_PI, 4096)
    r = np.full_like(phi, c0)
    # r (cos s, sin s) with r = c0 + sum A_j cos js + B_j sin js: harmonic j
    # moves to frequencies j + 1 and j - 1
    terms = [(1, c0, 0.0, 0.0, c0)]
    for j, (aj, bj) in enumerate(coeffs.reshape(-1, 2), 1):
        r += aj * np.cos(j * phi) + bj * np.sin(j * phi)
        a, b = 0.5 * aj, 0.5 * bj
        terms += [(j + 1, a, b, -b, a), (j - 1, a, b, b, -a)]
    _require(r.min() > 1e-3, "fourier radius must stay positive")
    return _trig_rows(terms)


def _pack_peanut(p):
    _require(p["a"] > 0 and 0.0 <= p["e"] < 1.0, "peanut needs a > 0, 0 <= e < 1")
    return np.array([p["a"], p["e"]], float)


def _pack_nephroid(p):
    _require(p["a"] > 0, "nephroid scale must be positive")
    a = p["a"]  # a (3 cos s - cos 3s, 3 sin s - sin 3s)
    return _trig_rows([(1, 3.0 * a, 0.0, 0.0, 3.0 * a), (3, -a, 0.0, 0.0, -a)])


def _pack_spirograph(p):
    _require(p["r"] != 0 and p["R"] > 0, "spirograph needs R > 0 and r != 0")
    rr = p["R"] - p["r"]
    q = _near_integer(rr / p["r"], "spirograph winding (R - r)/r")
    _require(q != 0, "spirograph winding must be a nonzero integer")
    d = p["d"]  # (rr cos s + d cos qs, rr sin s - d sin qs)
    return _trig_rows([(1, rr, 0.0, 0.0, rr), (q, d, 0.0, 0.0, -d)])


def _pack_gear(p):
    teeth = _near_integer(p["teeth"], "gear teeth")
    _require(teeth >= 2, "gear needs at least 2 teeth")
    _require(p["r_outer"] > 0 and p["r_inner"] > 0, "gear radii must be positive")
    return np.array([teeth, p["r_outer"], p["r_inner"]], float)


def chunk_circles(sample_x, sample_y):
    """Samples as (chunks, SAMPLE_CHUNK) rows plus each row's bounding circle.

    Row k holds samples k * SAMPLE_CHUNK onward; a short last row repeats
    the final sample, which can never beat its own first copy.  Returns
    (chunk_x, chunk_y, centre_x, centre_y, radius, reach), where reach =
    max |x| + max |y| sizes the nearest-sample search's rounding slack.
    """
    n = sample_x.shape[0]
    rows = -(-n // SAMPLE_CHUNK)
    idx = np.minimum(np.arange(rows * SAMPLE_CHUNK), n - 1).reshape(rows, SAMPLE_CHUNK)
    chunk_x = sample_x[idx]
    chunk_y = sample_y[idx]
    centre_x = 0.5 * (chunk_x.min(axis=1) + chunk_x.max(axis=1))
    centre_y = 0.5 * (chunk_y.min(axis=1) + chunk_y.max(axis=1))
    ex = chunk_x - centre_x[:, None]
    ey = chunk_y - centre_y[:, None]
    radius = np.sqrt(np.max(ex * ex + ey * ey, axis=1))
    reach = np.max(np.abs(sample_x)) + np.max(np.abs(sample_y))
    return chunk_x, chunk_y, centre_x, centre_y, radius, reach


# family name -> (kernel kind, ordered (param, default) pairs, packer)
FAMILIES = {
    "ellipse": (ck.KIND_TRIG, (("a", 2.0), ("b", 1.2)), _pack_ellipse),
    "deltoid": (ck.KIND_TRIG, (("a", 1.0),), _pack_deltoid),
    "rose": (ck.KIND_TRIG, (("a", 1.8), ("k", 3)), _pack_rose),
    "lissajous": (
        ck.KIND_TRIG,
        (("amp_x", 2.0), ("amp_y", 1.5), ("freq_x", 3), ("freq_y", 2), ("phase", math.pi / 2)),
        _pack_lissajous,
    ),
    "superellipse": (ck.KIND_SUPERELLIPSE, (("a", 1.8), ("b", 1.2), ("m", 4)), _pack_superellipse),
    "cassini": (ck.KIND_CASSINI, (("a", 1.0), ("b", 1.3)), _pack_cassini),
    "lemniscate": (ck.KIND_LEMNISCATE, (("a", 2.0),), _pack_lemniscate),
    "fourier-sum": (
        ck.KIND_TRIG,
        (("c0", 1.0), ("coeffs", (0.0, 0.0, 0.0, 0.0, 0.18, 0.0, 0.0, 0.0, 0.0, 0.08))),
        _pack_fourier,
    ),
    "peanut": (ck.KIND_PEANUT, (("a", 1.5), ("e", 0.8)), _pack_peanut),
    "nephroid": (ck.KIND_TRIG, (("a", 1.0),), _pack_nephroid),
    "spirograph": (ck.KIND_TRIG, (("R", 3.0), ("r", 1.0), ("d", 1.5)), _pack_spirograph),
    "gear-hermite": (
        ck.KIND_GEAR,
        (("teeth", 8), ("r_outer", 1.25), ("r_inner", 0.95)),
        _pack_gear,
    ),
}

# named presets: preset -> (family, parameter overrides); "circle" is the
# constant-speed ellipse; the remaining entries fix the 16-curve suite used
# by the inscribed-square runs (five shape classes).
PRESETS = {
    "circle": ("ellipse", {"a": 1.0, "b": 1.0}),
    "ellipse": ("ellipse", {}),
    "superellipse": ("superellipse", {}),
    "cassini-pinched": ("cassini", {"a": 1.0, "b": 1.05}),
    "cassini-oval": ("cassini", {"a": 1.0, "b": 1.3}),
    "lemniscate": ("lemniscate", {}),
    "lissajous-32": ("lissajous", {}),
    "lissajous-54": (
        "lissajous",
        {"amp_x": 2.0, "amp_y": 2.0, "freq_x": 5, "freq_y": 4, "phase": math.pi / 3},
    ),
    "rose-3": ("rose", {}),
    "rose-2": ("rose", {"a": 1.5, "k": 2}),
    "fourier-blob": ("fourier-sum", {}),
    "peanut": ("peanut", {}),
    "deltoid": ("deltoid", {}),
    "nephroid": ("nephroid", {}),
    "spirograph-3": ("spirograph", {}),
    "spirograph-4": ("spirograph", {"R": 4.0, "r": 1.0, "d": 0.7}),
    "gear-hermite": ("gear-hermite", {}),
}

# the inscribed-square evaluation suite (16 curves, 5 classes)
SQUARE_SUITE = (
    "ellipse",
    "superellipse",
    "cassini-pinched",
    "cassini-oval",
    "lemniscate",
    "lissajous-32",
    "lissajous-54",
    "rose-3",
    "rose-2",
    "fourier-blob",
    "peanut",
    "deltoid",
    "nephroid",
    "spirograph-3",
    "spirograph-4",
    "gear-hermite",
)


@dataclass(frozen=True)
class FrenetFrame:
    """Unit tangent/normal pair with angle, speed, and curvature at a point.

    The normal is the tangent rotated a quarter turn counterclockwise, the
    convention under which the controller's decoupling matrix has
    determinant -v.  curvature is the unsigned |x'y'' - y'x''| / ||gamma'||^3;
    turn_rate is the signed d(psi_t)/ds used by the feedback linearization.
    """

    tangent: np.ndarray
    normal: np.ndarray
    tangent_angle: float
    speed: float
    curvature: float
    turn_rate: float


class Curve:
    """Immutable closed planar curve from the family catalog.

    Construct through make_curve(); the constructor validates and freezes
    family parameters.  All queries are pure, so instances are safe to share
    across workers.
    """

    def __init__(self, family: str, params: dict):
        if family not in FAMILIES:
            raise CurveError(f"unknown curve family '{family}'")
        kind, spec, packer = FAMILIES[family]
        merged = {name: default for name, default in spec}
        for key, value in params.items():
            if key not in merged:
                raise CurveError(f"unknown parameter '{key}' for family '{family}'")
            if not np.all(np.isfinite(value)):
                raise CurveError(f"curve parameter '{key}' must be finite, got {value!r}")
            merged[key] = value
        self.family = family
        self.params = merged
        self.kind = kind
        self.par = packer(merged)
        self.par.setflags(write=False)
        self._cache = {}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Curve({self.family}, {ps})"

    # -- evaluation ---------------------------------------------------------

    def point(self, s):
        """gamma(s); scalar s -> shape (2,), array s -> shape (..., 2)."""
        if np.isscalar(s) or np.ndim(s) == 0:
            x, y = ck.curve_point(self.kind, self.par, float(s))
            return np.array([x, y])
        sv = np.asarray(s, dtype=np.float64)
        x, y = ck.curve_point(self.kind, self.par, sv)
        return np.stack([x, y], axis=-1)

    def deriv(self, s, order: int = 1):
        """gamma'(s) or gamma''(s) from the closed-form kernels."""
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        fn = ck.curve_d1 if order == 1 else ck.curve_d2
        if np.isscalar(s) or np.ndim(s) == 0:
            x, y = fn(self.kind, self.par, float(s))
            return np.array([x, y])
        sv = np.asarray(s, dtype=np.float64)
        x, y = fn(self.kind, self.par, sv)
        return np.stack([x, y], axis=-1)

    def frenet(self, s: float) -> FrenetFrame:
        """Frenet frame at scalar s, with the cusp fallback near singularities."""
        _gx, _gy, tx, ty, speed, turn, _turn_deriv, _rate, kappa, ok = ck.curve_frame(
            self.kind, tuple(self.par.tolist()), float(s), self.eps_sing
        )
        if not ok:
            raise SingularPointError(
                f"no regular parameter within +/-1e-3 of s={s:.6f} on {self.family}"
            )
        return FrenetFrame(
            tangent=np.array([tx, ty]),
            normal=np.array([-ty, tx]),
            tangent_angle=float(np.arctan2(ty, tx)),
            speed=speed,
            curvature=abs(kappa),
            turn_rate=turn,
        )

    # -- cached geometry ----------------------------------------------------

    @property
    def scale(self) -> float:
        """Half the bounding-box diagonal of 4096 uniform samples."""
        if "scale" not in self._cache:
            pts = self.point(np.linspace(0.0, TWO_PI, 4096, endpoint=False))
            span = pts.max(axis=0) - pts.min(axis=0)
            self._cache["scale"] = 0.5 * float(np.hypot(span[0], span[1]))
        return self._cache["scale"]

    @property
    def eps_sing(self) -> float:
        return 1e-6 * self.scale

    @property
    def speed_max(self) -> float:
        if "speed_max" not in self._cache:
            d = self.deriv(np.linspace(0.0, TWO_PI, 4096, endpoint=False))
            self._cache["speed_max"] = float(np.hypot(d[:, 0], d[:, 1]).max())
        return self._cache["speed_max"]

    @property
    def length(self) -> float:
        return self.arclength(0.0, TWO_PI)

    def _arc_table(self):
        """Cell edges and cumulative arclength over [0, 2*pi], refined until converged.

        Composite 16-point Gauss-Legendre per cell, cell count doubled until
        the total changes by under 1e-9 relative (tighter than the 1e-8
        contract); cumulative sums make arclength additive exactly.
        """
        if "arc" in self._cache:
            return self._cache["arc"]
        total_prev = None
        n_cells = 1024
        while True:
            edges = np.linspace(0.0, TWO_PI, n_cells + 1)
            h = TWO_PI / n_cells
            offsets = 0.5 * h * (GL_NODES + 1.0)
            cell = np.empty(n_cells)
            # ARC_CELLS cells per derivative call keep every temporary of
            # the kernel at 16 KiB however far the table refines; a cell's
            # sum does not depend on its block
            for b in range(0, n_cells, ARC_CELLS):
                # map GL nodes into every cell of the block: shape (cells, 16)
                sgrid = edges[b : min(b + ARC_CELLS, n_cells), None] + offsets
                d = self.deriv(sgrid.ravel())
                m = np.hypot(d[:, 0], d[:, 1]).reshape(-1, 16)
                cell[b : b + ARC_CELLS] = 0.5 * h * (m * GL_WEIGHTS).sum(axis=1)
            total = float(cell.sum())
            if total_prev is not None and abs(total - total_prev) <= 1e-9 * max(total, 1.0):
                break
            if n_cells >= 65536:
                break
            total_prev = total
            n_cells *= 2
        cum = np.concatenate(([0.0], np.cumsum(cell)))
        cum[-1] = total
        self._cache["arc"] = (edges, cum)
        return self._cache["arc"]

    def _arc_from_zero(self, s: float) -> float:
        """Arclength from parameter 0 to s >= 0 (periodic extension)."""
        edges, cum = self._arc_table()
        total = cum[-1]
        k, rem = divmod(s, TWO_PI)
        n_cells = len(edges) - 1
        j = min(int(rem / TWO_PI * n_cells), n_cells - 1)
        lo = edges[j]
        if rem <= lo:
            return k * total + cum[j]
        sn = lo + 0.5 * (rem - lo) * (GL_NODES + 1.0)
        d = self.deriv(sn)
        part = 0.5 * (rem - lo) * float((np.hypot(d[:, 0], d[:, 1]) * GL_WEIGHTS).sum())
        return k * total + cum[j] + part

    def arclength(self, s0: float, s1: float) -> float:
        """Length of the segment from s0 to s1 along increasing parameter."""
        if s1 < s0:
            raise ValueError("arclength requires s0 <= s1")
        base = min(s0, 0.0)  # shift so both arguments are nonnegative
        shift = -TWO_PI * math.floor(base / TWO_PI)
        return self._arc_from_zero(s1 + shift) - self._arc_from_zero(s0 + shift)

    def arclength_inverse(self, fraction: float) -> float:
        """Parameter s with arclength(0, s) = fraction * L, by bisection."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if fraction == 0.0:
            return 0.0
        if fraction == 1.0:
            return TWO_PI
        target = fraction * self.length
        lo, hi = 0.0, TWO_PI
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if self._arc_from_zero(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample_cache(self):
        """SAMPLE_COUNT cached uniform (parameter, x, y) samples.

        The arrays are read-only: sample_chunks is cached against them.
        """
        if "samples" not in self._cache:
            sv = np.linspace(0.0, TWO_PI, SAMPLE_COUNT, endpoint=False)
            pts = self.point(sv)
            samples = (sv, pts[:, 0], pts[:, 1])
            for a in samples:
                a.setflags(write=False)
            self._cache["samples"] = samples
        return self._cache["samples"]

    def sample_chunks(self):
        """chunk_circles of sample_cache(), built once per curve."""
        if "chunks" not in self._cache:
            chunks = chunk_circles(*self.sample_cache()[1:])
            for a in chunks[:-1]:  # the last entry, reach, is a scalar
                a.setflags(write=False)
            self._cache["chunks"] = chunks
        return self._cache["chunks"]


def make_curve(name: str, **params) -> Curve:
    """Build a curve from a preset or family name, with parameter overrides."""
    if name in PRESETS:
        family, overrides = PRESETS[name]
        merged = dict(overrides)
        merged.update(params)
        return Curve(family, merged)
    if name in FAMILIES:
        return Curve(name, params)
    raise CurveError(f"unknown curve '{name}'")


def catalog_names() -> list:
    """All constructible names: presets first, then raw families."""
    names = list(PRESETS)
    names += [f for f in FAMILIES if f not in names]
    return names
