"""Noise path tests: sampling law, exact aggregation, grid nesting."""

from __future__ import annotations

import re
import subprocess
import sys

import numpy as np
import pytest

from switchtaylor import markov_chain as mc
from switchtaylor import noise
from switchtaylor.errors import IntervalOutOfRange, InvalidGrid, NotAGridTime


def test_grid_spec_validation():
    with pytest.raises(InvalidGrid):
        noise.GridSpec(1.0, 1.0, 4)
    with pytest.raises(InvalidGrid):
        noise.GridSpec(0.0, 1.0, 0)
    with pytest.raises(InvalidGrid):
        noise.GridSpec(0.0, 1.0, 2.5)
    with pytest.raises(InvalidGrid):
        noise.GridSpec(0.0, np.inf, 4)
    for t0, t_end, end in ((None, 1.0, "t0"), (0.0, "1", "t_end")):
        with pytest.raises(InvalidGrid, match="^%s must be a finite real number" % end):
            noise.GridSpec(t0, t_end, 4)
    # a float is no interval count, as it is no step count of ExperimentPlan
    for n in (np.nan, np.inf, None, "4", 16.0):
        with pytest.raises(InvalidGrid, match="must be an integer from 1 to 2"):
            noise.GridSpec(0.0, 1.0, n)
    g = noise.GridSpec(0.0, 1.0, 16)
    assert g.n == 16 and isinstance(g.n, int)
    assert g.finest_times().size == 17
    # built once, read-only, and outside repr and ==
    assert g.finest_times() is g.finest_times() and not g.finest_times().flags.writeable
    assert g == noise.GridSpec(0.0, 1.0, 16) and "_times" not in repr(g)
    inc = np.zeros((2, 1))
    with pytest.raises(InvalidGrid, match="finite"):
        noise.NoisePath(np.array([0.0, 0.5, np.nan]), inc, inc)
    for times in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5]):
        with pytest.raises(InvalidGrid, match="strictly increasing"):
            noise.NoisePath(times, inc, inc)
    with pytest.raises(InvalidGrid, match="Wiener dimension"):
        noise.NoisePath(np.array([0.0, 0.5, 1.0]), np.zeros((2, 0)), np.zeros((2, 0)))


def test_an_interval_count_too_large_for_memory_is_invalid_grid():
    # under a 2 GB address-space cap, 2**53 intervals (64 PiB of times) fail
    # at once; a moderate count could succeed lazily and run for hours
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))\n"
        "from switchtaylor import GridSpec, errors\n"
        "try:\n"
        "    GridSpec(0.0, 1.0, 2**53)\n"
        "except errors.InvalidGrid as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "the interval count %d does not fit in memory\n" % 2**53


def test_grid_nesting_is_bitwise():
    fine = noise.GridSpec(0.0, 1.0, 48).finest_times()
    for n in (3, 12):
        # a strided slice of the fine grid is the coarse grid itself
        coarse = noise.GridSpec(0.0, 1.0, n).finest_times()
        np.testing.assert_array_equal(fine[:: 48 // n], coarse)
    assert fine[0] == 0.0 and fine[-1] == 1.0
    base = noise.GridSpec(0.0, 2.0, 5)
    assert base.finest_times().size == 6


def test_increment_marginals():
    # seeded moment check of the per-interval law on a modest sample
    rng = np.random.default_rng(42)
    n = 200_000
    delta = 0.7
    dw, dz = noise.sample_increments(np.full(n, delta), 1, rng)
    dw, dz = dw[:, 0], dz[:, 0]
    assert abs(dw.mean()) < 4 * np.sqrt(delta / n)
    assert abs(dw.var() - delta) < 0.01 * delta
    assert abs(dz.var() - delta**3 / 3) < 0.01 * delta**3
    cov = np.mean(dw * dz)
    assert abs(cov - delta**2 / 2) < 0.01 * delta**2


def test_time_integral_law_against_riemann_composition():
    # independent oracle: approximate the excursion integral over [0, 1] by a
    # left Riemann sum of W built from the increments alone, and compare the
    # joint moments with the closed-form law the sampler uses
    rng = np.random.default_rng(7)
    n_sub, n_mc = 256, 20_000
    delta = 1.0 / n_sub
    total_w = np.empty(n_mc)
    riemann_z = np.empty(n_mc)
    exact_z = np.empty(n_mc)
    times = np.arange(n_sub + 1) * delta
    for i in range(n_mc):
        dw, dz = noise.sample_increments(np.full(n_sub, delta), 1, rng)
        w = np.concatenate(([0.0], np.cumsum(dw[:, 0])))
        total_w[i] = w[-1]
        riemann_z[i] = np.sum(w[:-1] * delta)
        p = noise.NoisePath(times, dw, dz)
        exact_z[i] = p.step_aggregates([0.0, 1.0])[1][0, 0]
    assert abs(riemann_z.var() - 1.0 / 3.0) < 0.012
    assert abs(np.mean(total_w * riemann_z) - 0.5) < 0.012
    # the path's aggregated integral matches the Riemann sum up to the
    # sub-interval excursions, whose total standard deviation is delta/sqrt(3)
    resid = exact_z - riemann_z
    assert np.sqrt(np.mean(resid**2)) < 3 * delta


def _path_with_jumps(seed=11):
    grid = noise.GridSpec(0.0, 1.0, 64)
    chain = mc.ChainPath(0.0, 1.0, 1, np.array([0.21, 0.55, 0.9]), np.array([2, 1, 2]))
    rng = np.random.default_rng(seed)
    return noise.build_noise(grid, chain, 2, rng), grid, chain


def test_build_noise_merges_jump_times():
    p, grid, chain = _path_with_jumps()
    for tau in chain.jump_times:
        assert p.times[p.grid_indices(tau)[0]] == tau
    fine = grid.finest_times()
    assert np.isin(fine, p.times).all()
    assert p.times.size == fine.size + chain.jump_times.size
    assert p.m == 2

    # same seed, same inputs: identical draw
    q = noise.build_noise(grid, chain, 2, np.random.default_rng(11))
    assert np.array_equal(p.dw, q.dw) and np.array_equal(p.dz, q.dz)

    # without a chain the grid is purely dyadic
    r = noise.build_noise(grid, None, 1, np.random.default_rng(1))
    assert r.times.size == fine.size

    short = mc.ChainPath(0.0, 0.5, 1)
    with pytest.raises(InvalidGrid):
        noise.build_noise(grid, short, 1, np.random.default_rng(1))


def test_aggregation_identities_on_random_splits():
    p, _, _ = _path_with_jumps(5)
    rng = np.random.default_rng(17)
    times = p.times
    for _ in range(300):
        i, j, k = np.sort(rng.choice(times.size, size=3, replace=False))
        s, u, t = times[i], times[j], times[k]
        (w_su, w_ut), (z_su, z_ut) = p.step_aggregates([s, u, t])
        (w_st,), (z_st,) = p.step_aggregates([s, t])
        assert np.allclose(w_su + w_ut, w_st, rtol=0.0, atol=1e-12)
        z_split = z_su + z_ut + w_su * (t - u)
        assert np.allclose(z_split, z_st, rtol=0.0, atol=1e-12)
    # degenerate span
    dw, dz = p.step_aggregates([times[3], times[3]])
    assert np.all(dw == 0.0) and np.all(dz == 0.0)


def test_aggregation_matches_direct_sum():
    p, _, _ = _path_with_jumps(23)
    s_idx, t_idx = 2, p.times.size - 3
    s, t = p.times[s_idx], p.times[t_idx]
    direct_w = p.dw[s_idx:t_idx].sum(axis=0)
    (dw,), (dz,) = p.step_aggregates([s, t])
    assert np.allclose(dw, direct_w, atol=1e-13)
    # naive per-interval composition of the excursion integral
    direct_z = np.zeros(p.m)
    w_run = np.zeros(p.m)
    for i in range(s_idx, t_idx):
        direct_z += p.dz[i] + w_run * (p.times[i + 1] - p.times[i])
        w_run += p.dw[i]
    assert np.allclose(dz, direct_z, atol=1e-12)
    # W at a grid time is the increment from the path's start
    assert np.allclose(p.w_many([t])[0], p.step_aggregates([p.times[0], t])[0][0], atol=1e-13)


def test_two_interval_identity():
    times = np.array([0.0, 0.25, 1.0])
    dw = np.array([[0.3], [-0.1]])
    dz = np.array([[0.02], [0.05]])
    p = noise.NoisePath(times, dw, dz)
    expect = 0.02 + 0.05 + 0.3 * 0.75
    assert p.step_aggregates([0.0, 1.0])[1][0, 0] == pytest.approx(expect, abs=1e-15)


def test_grid_time_lookup_errors():
    p, _, _ = _path_with_jumps()
    with pytest.raises(NotAGridTime):
        p.grid_indices(0.123456)
    # before t0, past t_end and NaN each name the first bad query
    for bad in (-0.25, 1.5, np.nan):
        with pytest.raises(NotAGridTime, match=re.escape("%r is not" % np.float64(bad))):
            p.grid_indices([0.0, bad, -1.0])
    with pytest.raises(NotAGridTime):
        p.step_aggregates([0.0, 1.00001])
    with pytest.raises(IntervalOutOfRange):
        p.step_aggregates([p.times[5], p.times[2]])


def test_grid_indices_of_the_ends_and_of_a_2d_query():
    p, _, _ = _path_with_jumps()
    last = p.times.size - 1
    assert p.grid_indices([p.times[-1]]).tolist() == [last]
    assert p.grid_indices(p.times[0]).tolist() == [0]
    # a 2-D query is read in row-major order
    query = np.array([[p.times[3], p.times[-1]], [p.times[0], p.times[7]]])
    assert p.grid_indices(query).tolist() == [3, last, 0, 7]


def test_sample_increments_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidGrid):
        noise.sample_increments(np.array([0.1, -0.2]), 1, rng)
    with pytest.raises(InvalidGrid):
        noise.sample_increments(np.array([0.1]), 0, rng)
    with pytest.raises(InvalidGrid):
        noise.sample_increments(np.array([0.1]), 2.5, rng)
