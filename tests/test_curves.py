"""Curve catalog tests: frozen values, brute-force oracles, geometric invariants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveswarm import CurveError, SingularPointError, curves, make_curve
from curveswarm._curve_kernels import _polar_terms, curve_jet
from curveswarm.curves import FAMILIES, SQUARE_SUITE, TWO_PI, catalog_names

DELTOID_CUSPS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)


def test_deltoid_point_at_zero():
    d = make_curve("deltoid")
    assert np.allclose(d.point(0.0), [3.0, 0.0], atol=1e-12)


def test_rose_point_and_deriv_at_zero():
    r = make_curve("rose-3")
    assert np.allclose(r.point(0.0), [1.8, 0.0], atol=1e-12)
    assert np.allclose(r.deriv(0.0), [0.0, 1.8], atol=1e-12)


def test_deltoid_cusp_derivative_vanishes():
    d = make_curve("deltoid")
    for s in DELTOID_CUSPS:
        assert np.linalg.norm(d.deriv(s)) < 1e-12


def test_periodicity():
    rng = np.random.default_rng(7)
    for name in ("deltoid", "rose-3", "cassini-oval", "gear-hermite", "lemniscate"):
        c = make_curve(name)
        s = rng.uniform(0.0, TWO_PI, 50)
        assert np.allclose(c.point(s), c.point(s + TWO_PI), atol=1e-9 * c.scale)


def test_circle_deriv_magnitude():
    c = make_curve("circle", a=2.5, b=2.5)
    s = np.linspace(0.0, TWO_PI, 64)
    d = c.deriv(s)
    assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 2.5, atol=1e-12)


def test_closure_all_catalog():
    for name in SQUARE_SUITE + ("circle",):
        c = make_curve(name)
        assert np.linalg.norm(c.point(0.0) - c.point(TWO_PI)) <= 1e-9 * c.scale, name
        assert np.linalg.norm(c.deriv(0.0) - c.deriv(TWO_PI)) <= 1e-9 * max(
            c.scale, 1.0
        ), name


def test_frenet_circle_curvature():
    c = make_curve("circle", a=2.0, b=2.0)
    for s in np.linspace(0.1, TWO_PI, 17):
        f = c.frenet(s)
        assert abs(f.curvature - 0.5) < 1e-10
        assert abs(f.speed - 2.0) < 1e-12


def test_rose_curvature_closed_form():
    # oracle: polar-curve curvature of r(phi) = a cos(k phi),
    # kappa = (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^(3/2), derived independently
    # of the x'y''-y'x'' route used by the implementation
    a, k = 1.8, 3.0
    c = make_curve("rose-3")
    rng = np.random.default_rng(11)
    for s in rng.uniform(0.0, TWO_PI, 100):
        r = a * np.cos(k * s)
        rp = -a * k * np.sin(k * s)
        rpp = -a * k * k * np.cos(k * s)
        num = abs(r * r + 2.0 * rp * rp - r * rpp)
        den = (r * r + rp * rp) ** 1.5
        if den < 1e-6:  # petal tip: speed vanishes, fallback frame differs
            continue
        assert abs(c.frenet(float(s)).curvature - num / den) < 1e-8


def test_rose_curvature_at_zero_value():
    # (1 + k^2)/a with a=1.8, k=3
    assert abs(make_curve("rose-3").frenet(0.0).curvature - 10.0 / 1.8) < 1e-12


def test_frenet_orthonormal_and_convention():
    rng = np.random.default_rng(3)
    for name in SQUARE_SUITE:
        c = make_curve(name)
        for s in rng.uniform(0.0, TWO_PI, 40):
            try:
                f = c.frenet(float(s))
            except SingularPointError:
                continue
            assert abs(np.linalg.norm(f.tangent) - 1.0) < 1e-10
            assert abs(np.linalg.norm(f.normal) - 1.0) < 1e-10
            assert abs(f.tangent @ f.normal) < 1e-10
            # normal is the tangent rotated a quarter turn counterclockwise
            assert np.allclose(f.normal, [-f.tangent[1], f.tangent[0]], atol=1e-12)


def test_rose_normal_matches_worked_example():
    f = make_curve("rose-3").frenet(0.0)
    assert np.allclose(f.tangent, [0.0, 1.0], atol=1e-12)
    assert np.allclose(f.normal, [-1.0, 0.0], atol=1e-12)


def test_cusp_fallback_frame():
    d = make_curve("deltoid")
    for s in DELTOID_CUSPS:
        f = d.frenet(s)
        assert f.speed < d.eps_sing
        assert abs(np.linalg.norm(f.tangent) - 1.0) < 1e-10
        assert np.isfinite(f.curvature)
    # deltoid turn rate d(psi_t)/ds is exactly -1/2 away from cusps
    assert abs(d.frenet(0.7).turn_rate + 0.5) < 1e-10


def third_derivative(c, s):
    """gamma'''(s) from the order-3 jet, shaped like Curve.deriv's output."""
    return np.stack(curve_jet(c.kind, c.par, s, 3)[6:], axis=-1)


def gear_corner_gap(c, s):
    """Parameter distance from s to the nearest corner of a gear curve."""
    delta = TWO_PI / (2 * c.params["teeth"])
    return np.abs(s / delta - np.round(s / delta)) * delta


def test_analytic_vs_central_differences():
    h = 1e-5
    rng = np.random.default_rng(5)
    for name in catalog_names():
        c = make_curve(name)
        s = rng.uniform(0.0, TWO_PI, 1000)
        if c.family == "gear-hermite":
            # the second and third derivatives jump at segment corners;
            # test away from them
            s = s[gear_corner_gap(c, s) > 10 * h]
        fd1 = (c.point(s + h) - c.point(s - h)) / (2 * h)
        fd2 = (c.point(s + h) - 2 * c.point(s) + c.point(s - h)) / (h * h)
        fd3 = (c.deriv(s + h, 2) - c.deriv(s - h, 2)) / (2 * h)
        assert np.max(np.abs(c.deriv(s, 1) - fd1)) < 1e-5 * c.scale, name
        assert np.max(np.abs(c.deriv(s, 2) - fd2)) < 1e-3 * c.scale, name
        assert np.max(np.abs(third_derivative(c, s) - fd3)) < 1e-6 * c.scale, name


# multiples of pi/2 (the superellipse's axes), the deltoid's and the
# nephroid's cusps, and the corners of the 8-tooth gear
SPECIAL_S = (
    tuple(k * math.pi / 2.0 for k in range(4))
    + DELTOID_CUSPS
    + (0.0, math.pi)
    + tuple(k * math.pi / 8.0 for k in range(16))
)
POW_FAMILIES = ("superellipse", "cassini", "lemniscate")


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(catalog_names()),
    base=st.one_of(st.sampled_from(SPECIAL_S), st.floats(0.0, TWO_PI)),
    offset=st.sampled_from((0.0, 1e-12, -1e-12, 1e-7, -1e-7, 3e-4, -3e-4)),
)
def test_third_derivative_at_special_parameters(name, base, offset):
    c = make_curve(name)
    s = base + offset
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        ref = curve_jet(c.kind, c.par, np.array([s]), 3)
        got = curve_jet(c.kind, tuple(c.par.tolist()), s, 3)
    assert all(np.isfinite(v[0]) for v in ref) and all(math.isfinite(v) for v in got)
    ref = np.array([v[0] for v in ref])
    if c.family in POW_FAMILIES:
        bound = 16.0 * np.spacing(np.max(np.abs(ref)))
        assert np.all(np.abs(np.array(got) - ref) <= bound), (name, s)
    else:
        assert np.array_equal(np.array(got), ref), (name, s)
    h = 1e-5
    if c.family == "gear-hermite" and gear_corner_gap(c, s) <= 2 * h:
        return
    fd3 = (c.deriv(s + h, 2) - c.deriv(s - h, 2)) / (2 * h)
    assert np.max(np.abs(ref[6:] - fd3)) < 1e-6 * c.scale, (name, s)


# float.hex of (x, y, x', y', x'', y'', x''', y''') on the presets whose
# jets the trigonometric row sum keeps bit for bit, signed zeros included:
# the deltoid's cusps at 0 and 2 pi / 3, the nephroid's at 0, and regular
# points.  A kernel change that moves one of them has to say so here.
BYTE_STABLE_JETS = {
    ("deltoid", 0.0): ('0x1.8000000000000p+1', '0x0.0p+0', '-0x0.0p+0', '0x0.0p+0', '-0x1.8000000000000p+2', '0x0.0p+0', '0x0.0p+0', '0x1.8000000000000p+2'),
    ("deltoid", 2.0 * math.pi / 3.0): ('-0x1.8000000000000p+0', '0x1.4c8dc2e423980p+1', '-0x1.8000000000000p-51', '0x1.8000000000000p-50', '0x1.8000000000003p+1', '-0x1.4c8dc2e42397fp+2', '-0x1.4c8dc2e42397dp+2', '-0x1.8000000000009p+1'),
    ("nephroid", 0.0): ('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.8000000000000p+2', '0x0.0p+0', '0x0.0p+0', '0x1.8000000000000p+4'),
    ("nephroid", 1.0): ('0x1.4e31f3b693e5ep+1', '0x1.310fbe46b5c5cp+1', '-0x1.0cef4d6b481b1p+1', '0x1.25d10cd5618a4p+2', '-0x1.50fca2e1d4280p+3', '-0x1.411bf5b1fe35ep+0', '-0x1.492bf9bbb7cb0p+0', '-0x1.c59c7c239f286p+4'),
    ("circle", 0.5): ('0x1.c1528065b7d50p-1', '0x1.eaee8744b05f0p-2', '-0x1.eaee8744b05f0p-2', '0x1.c1528065b7d50p-1', '-0x1.c1528065b7d50p-1', '-0x1.eaee8744b05f0p-2', '0x1.eaee8744b05f0p-2', '-0x1.c1528065b7d50p-1'),
    ("ellipse", 1.0): ('0x1.14a280fb5068cp+0', '0x1.027ff89056e28p+0', '-0x1.aed548f090ceep+0', '0x1.4bf63460c6e41p-1', '-0x1.14a280fb5068cp+0', '-0x1.027ff89056e28p+0', '0x1.aed548f090ceep+0', '-0x1.4bf63460c6e41p-1'),
    ("ellipse", 4.0): ('-0x1.4eaa606db24c1p+0', '-0x1.d0fabd70824d0p-1', '0x1.837b9dddc1eaep+0', '-0x1.91994083a2c1bp-1', '0x1.4eaa606db24c1p+0', '0x1.d0fabd70824d0p-1', '-0x1.837b9dddc1eaep+0', '0x1.91994083a2c1bp-1'),
    ("spirograph-3", 0.3): ('0x1.9307d40b2a705p+1', '-0x1.0610c1b7a4fa6p-2', '-0x1.2479d372a9f90p+1', '-0x1.217370c7afdccp-1', '-0x1.b7364224206bep+2', '0x1.65fe03e093379p+1', '0x1.d778d562f394cp+2', '0x1.ff931e560c632p+2'),
    ("spirograph-3", 2.5): ('-0x1.2d425e55d4f6cp+0', '0x1.51528431c1eccp+1', '0x1.ae093e3011b1bp+0', '-0x1.3a04e01eb01d0p+1', '-0x1.9850391b64c90p-4', '-0x1.bcd4d3bdc6592p+2', '-0x1.49ecb96ae7990p+3', '0x1.406621031db02p+2'),
}


@pytest.mark.parametrize("name, s", list(BYTE_STABLE_JETS))
def test_byte_stable_presets_keep_their_jets(name, s):
    c = make_curve(name)
    want = BYTE_STABLE_JETS[name, s]
    for order in (0, 1, 2, 3):
        got = curve_jet(c.kind, tuple(c.par.tolist()), s, order)
        assert [v.hex() for v in got] == list(want[: 2 * order + 2]), (name, s, order)
        got = curve_jet(c.kind, c.par, np.array([s]), order)
        assert [float(v[0]).hex() for v in got] == list(want[: 2 * order + 2]), (name, s, order)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_superellipse_jet_where_sin_or_cos_vanishes(m):
    # the third derivative holds (m - 4) |sin s|^(m - 6) sin^2 s, which
    # the kernel writes as (m - 4) |sin s|^(m - 4) (and the same in cos),
    # so at m = 4 it forms neither 0 ** -2 nor 0 * inf, on floats or arrays
    c = make_curve("superellipse", m=m)
    par = tuple(c.par.tolist())
    for cs, sn in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
        s = math.atan2(sn, cs)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            radial = _polar_terms(math, c.kind, par, s, cs, sn, 3)
            radial_array = _polar_terms(np, c.kind, c.par, np.array([s]), np.array([cs]), np.array([sn]), 3)
        assert all(math.isfinite(v) for v in radial)
        assert np.allclose([v[0] for v in radial_array], radial, rtol=1e-14, atol=0.0)
    # s = 0 is the one float parameter with sin s exactly 0
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        x3 = third_derivative(c, np.array([0.0, -0.0]))
    h = 1e-5
    fd3 = (c.deriv(np.array([h]), 2) - c.deriv(np.array([-h]), 2)) / (2 * h)
    assert np.allclose(x3, fd3, rtol=0.0, atol=1e-6 * c.scale)


def test_arclength_circle():
    c = make_curve("circle", a=1.5, b=1.5)
    assert abs(c.arclength(0.0, TWO_PI) - 3.0 * math.pi) < 1e-8
    assert c.arclength(1.0, 1.0) == 0.0


def test_arclength_additive():
    c = make_curve("lissajous-32")
    total = c.arclength(0.3, 5.1)
    assert abs(c.arclength(0.3, 2.2) + c.arclength(2.2, 5.1) - total) < 1e-12
    with pytest.raises(ValueError):
        c.arclength(1.0, 0.5)


def test_deltoid_arclength_oracle():
    d = make_curve("deltoid")
    # closed form: the deltoid (2cos s + cos 2s, 2sin s - sin 2s) has length 16
    assert abs(d.length - 16.0) < 1e-6 * 16.0
    # brute-force trapezoid with 1e6 panels
    s = np.linspace(0.0, TWO_PI, 1_000_001)
    dv = d.deriv(s)
    m = np.hypot(dv[:, 0], dv[:, 1])
    oracle = np.trapezoid(m, s)
    assert abs(d.length - oracle) < 1e-6 * oracle


def test_gauss_legendre_constants():
    # the stored rule is numpy's leggauss(16), which the package no longer
    # calls: within 2 ulp of it, and exact on polynomials of degree <= 31
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for got, want in ((curves.GL_NODES, nodes), (curves.GL_WEIGHTS, weights)):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    x = curves.GL_NODES.tolist()
    w = curves.GL_WEIGHTS.tolist()
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(wi * xi**k for xi, wi in zip(x, w)) - exact) < 1e-15, k


@pytest.mark.parametrize("name", catalog_names())
def test_arc_table_blocks_match_one_block(monkeypatch, name):
    # a cell's 16-node sum does not depend on the block it is evaluated in
    edges, cum = make_curve(name)._arc_table()
    monkeypatch.setattr(curves, "ARC_CELLS", 65536)
    edges_one, cum_one = make_curve(name)._arc_table()
    assert edges.tobytes() == edges_one.tobytes()
    assert cum.tobytes() == cum_one.tobytes()
    if name == "deltoid":  # its cusps refine the table furthest
        assert len(edges) - 1 == 8192


def test_arc_table_builds_in_bounded_memory():
    c = make_curve("deltoid")
    tracemalloc.start()
    try:
        c._arc_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_arclength_inverse_endpoints_and_circle():
    c = make_curve("circle", a=1.0, b=1.0)
    assert c.arclength_inverse(0.0) == 0.0
    assert c.arclength_inverse(1.0) == TWO_PI
    assert abs(c.arclength_inverse(0.25) - math.pi / 2) < 1e-9


def test_arclength_inverse_roundtrip():
    rng = np.random.default_rng(13)
    for name in ("deltoid", "lissajous-32", "gear-hermite", "peanut"):
        c = make_curve(name)
        L = c.length
        for u in rng.uniform(0.0, 1.0, 8):
            s = c.arclength_inverse(float(u))
            assert abs(c.arclength(0.0, s) - u * L) < 1e-8 * L, name


def test_scale_circle_and_homogeneity():
    c = make_curve("circle", a=1.0, b=1.0)
    assert abs(c.scale - math.sqrt(2.0)) < 1e-12
    r1 = make_curve("rose", a=1.8, k=3)
    r2 = make_curve("rose", a=3.6, k=3)
    assert abs(r2.scale - 2.0 * r1.scale) < 1e-10


def test_validation_errors():
    with pytest.raises(CurveError):
        make_curve("noSuchCurve")
    with pytest.raises(CurveError):
        make_curve("deltoid", bogus=1.0)
    with pytest.raises(CurveError):
        make_curve("cassini", a=2.0, b=1.0)  # needs b > a
    with pytest.raises(CurveError):
        make_curve("superellipse", m=3)  # odd exponent
    with pytest.raises(CurveError):
        make_curve("rose", k=2.5)  # non-integer petals
    with pytest.raises(CurveError):
        make_curve("spirograph", R=3.0, r=0.7, d=0.5)  # non-integer winding
    with pytest.raises(ValueError):
        make_curve("deltoid").deriv(0.0, order=3)


def test_non_finite_family_parameters_are_named():
    for name, key in (("ellipse", "a"), ("circle", "b"), ("rose", "k"), ("deltoid", "a")):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(CurveError, match=f"'{key}' must be finite"):
                make_curve(name, **{key: bad})
    with pytest.raises(CurveError, match="'coeffs' must be finite"):
        make_curve("fourier-blob", coeffs=(0.1, np.inf))


def test_singular_set_is_small():
    # admissibility: vanishing-speed parameters are isolated, so only a tiny
    # fraction of a dense sample may fall below eps_sing
    s = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
    for name in SQUARE_SUITE:
        c = make_curve(name)
        d = c.deriv(s)
        n_sing = int((np.hypot(d[:, 0], d[:, 1]) < c.eps_sing).sum())
        assert n_sing <= 40, (name, n_sing)


def test_every_family_constructs():
    for fam in FAMILIES:
        c = make_curve(fam)
        assert c.scale > 0.0


def test_sample_cache_and_chunks_are_built_once_and_read_only():
    c = make_curve("deltoid")
    sv, xs, ys = c.sample_cache()
    assert c.sample_cache()[1] is xs
    chunks = c.sample_chunks()
    assert c.sample_chunks() is chunks
    for a in (sv, xs, ys) + chunks[:-1]:
        assert not a.flags.writeable
    # the chunk rows are the samples, SAMPLE_CHUNK at a time
    assert np.array_equal(chunks[0].ravel(), xs)
    assert np.array_equal(chunks[1].ravel(), ys)
