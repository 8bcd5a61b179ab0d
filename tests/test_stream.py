"""The seeded stream: numpy's default_rng(seed).uniform, bit for bit.

numpy's Generator is the oracle here and nowhere in the package, which
must not load numpy's random package at all.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveswarm
from curveswarm import finder
from curveswarm._stream import Stream
from curveswarm.control import make_params
from curveswarm.curves import make_curve
from curveswarm.sim import MissionConfig, initial_states

TWO_PI = 2.0 * np.pi


def _same_draws(seed, calls):
    """Stream and numpy give equal draws over calls of (low, high, size)."""
    ours, ref = Stream(seed), np.random.default_rng(seed)
    for low, high, size in calls:
        a, b = ours.uniform(low, high, size), ref.uniform(low, high, size)
        if size is None:
            assert type(a) is float and a == b, (seed, low, high)
        else:
            assert a.dtype == np.float64 and a.shape == (size,)
            assert np.array_equal(a, b), (seed, low, high, size)


# scalar and sized calls interleaved, over ranges of every sign and scale
CALLS = [
    (0.0, 1.0, None), (0.0, TWO_PI, 4), (-0.3, 0.3, None), (0.0, 1.0, 12),
    (-0.1, 0.1, 3), (-1e6, 3e7, None), (1e-9, 2e-9, 5), (0.0, TWO_PI, 1),
]


@pytest.mark.parametrize("first", range(0, 300, 50))
def test_stream_matches_numpy_for_seeds_0_to_299(first):
    for seed in range(first, first + 50):
        _same_draws(seed, CALLS)


@pytest.mark.parametrize("bits", [32, 33, 64, 65, 128, 129, 200])
def test_stream_matches_numpy_for_wide_seeds(bits):
    # more than four 32-bit words take SeedSequence's second mixing loop
    for seed in (2**bits - 1, 2**(bits - 1), 2**(bits - 1) + 12345, 2**bits - 2**(bits // 2)):
        _same_draws(seed, CALLS)


def test_stream_matches_numpy_for_numpy_integer_seeds():
    # an np.int64 word would overflow in the 32 x 32-bit products
    for seed in (np.int64(2**63 - 1), np.uint64(2**64 - 1), np.uint32(7), np.int32(9)):
        _same_draws(seed, CALLS)
        assert Stream(seed).uniform() == Stream(int(seed)).uniform()


def test_stream_matches_numpy_over_a_long_run():
    assert np.array_equal(Stream(9).uniform(0.0, 1.0, 50_000), np.random.default_rng(9).uniform(0.0, 1.0, 50_000))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), sizes=st.lists(st.one_of(st.none(), st.integers(1, 9)), max_size=6))
def test_stream_matches_numpy_for_any_seed(seed, sizes):
    _same_draws(seed, [(-2.5, 4.0, size) for size in sizes])


def test_stream_first_draws_are_pinned():
    # recorded values: the stream stays put if numpy's Generator changes
    pinned = {
        0: ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"],
        9: ["0x1.bd914dbcd7d50p-1", "0x1.25b36913d81c0p-2", "0x1.34cfd5963a8d4p-1", "0x1.8e18f28355c53p-1"],
    }
    for seed, hexes in pinned.items():
        stream = Stream(seed)
        assert [float.hex(stream.uniform()) for _ in range(2)] + [
            float.hex(float(x)) for x in stream.uniform(0.0, 1.0, 2)
        ] == hexes


def test_stream_rejects_bad_seeds():
    with pytest.raises(ValueError, match="nonnegative"):
        Stream(-1)
    with pytest.raises(TypeError):
        Stream(1.5)


SEEDS = [0, 1, 9, 2**64 + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [3, 4, 12])
def test_init_random_draws_the_same_starts_as_numpy(seed, n):
    curve = make_curve("deltoid")
    ours, ref = Stream(seed), np.random.default_rng(seed)
    for _ in range(8):
        assert np.array_equal(finder.init_random(curve, n, ours, 1), finder.init_random(curve, n, ref, 1))


@pytest.mark.parametrize("seed", [0, 9, 2**64 + 3])
@pytest.mark.parametrize("n", [3, 4, 12])
def test_random_starts_come_from_one_draw(monkeypatch, seed, n):
    # the stream is sequential: one draw of 31 * n values, sorted per row,
    # gives the 31 per-start draws of n values bit for bit, and multistart
    # solves them after its curvature-weighted start, drawing once
    curve = make_curve("deltoid")
    rng = Stream(seed)
    per_start = np.array([np.sort(rng.uniform(0.0, TWO_PI, n)) for _ in range(31)])
    assert np.array_equal(finder.init_random(curve, n, Stream(seed), 31), per_start)
    assert finder.init_random(curve, n, Stream(seed), 0).shape == (0, n)
    draws = []

    class Counted(Stream):
        def uniform(self, *args):
            draws.append(args)
            return super().uniform(*args)

    class Solved(Exception):
        pass

    def solve(theta0, *args):
        draws.append(theta0)
        raise Solved

    monkeypatch.setattr(finder, "Stream", Counted)
    monkeypatch.setattr(finder, "_solve_starts", solve)
    with pytest.raises(Solved):
        finder.multistart(curve, finder.FinderConfig(n=n, seed=seed, n_init=32))
    (call, theta0) = draws
    assert call == (0.0, TWO_PI, 31 * n)
    assert np.array_equal(theta0[0], finder.init_curvature_weighted(curve, n))
    assert np.array_equal(theta0[1:], per_start)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, n", [("ellipse", 3), ("deltoid", 4), ("ellipse", 12)])
def test_initial_states_place_the_same_agents_as_numpy(seed, name, n):
    curve = make_curve(name)
    cp = make_params(curve)
    config = MissionConfig(curve=curve, n=n, seed=seed)
    states, z0 = initial_states(config, cp, Stream(seed))
    states_ref, z0_ref = initial_states(config, cp, np.random.default_rng(seed))
    assert np.array_equal(states, states_ref)
    assert np.array_equal(z0, z0_ref)


def test_cli_loads_no_numpy_random_package(tmp_path):
    # the stream exists so that no run pays for numpy's random package,
    # nor for the secrets and hashlib modules it pulls in; and with the
    # arclength rule stored as constants, none imports numpy.polynomial
    script = (
        "import sys\n"
        "import curveswarm.cli as cli\n"
        f"assert cli.main(['find', '--curve', 'deltoid', '--n', '4', '--out', {str(tmp_path / 'f')!r}]) == 0\n"
        f"assert cli.main(['simulate', '--curve', 'ellipse', '--n', '3', '--horizon', '2',"
        f" '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "bad = ('numpy.random', 'secrets', 'hashlib', '_hashlib', 'numpy.polynomial')\n"
        "print(sorted(m for m in sys.modules if m in bad or m.startswith(('numpy.random.', 'numpy.polynomial.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curveswarm.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
