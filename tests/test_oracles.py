"""The switch corrections against an oracle that shares none of their code.

``linear2`` and ``diagonal3`` are regime-wise geometric Brownian motions
with diagonal noise, so their strong solution on a grid that holds every
switch time is known path by path (``exact`` on their coefficient sets).
The corrected euler, milstein and taylor15 maps are stepped on nested grids
under a chain four times faster than the fixtures', where a switch sits in
about two coarse windows of five, and must converge to that solution at
their orders.  Per-path sup-squared errors are heavy-tailed, so each level
is summarised by the median over batches of the batch-mean error.
"""

import numpy as np
import pytest

from switchtaylor import (
    ChainPath,
    GeneratorMatrix,
    GridSpec,
    ModelSpec,
    build_noise,
    fit_order,
    fixture,
    jump_records,
    merge_records,
    sample_path,
)
from switchtaylor.schemes import SCHEMES, march

ORDER_WINDOWS = {"euler": (0.35, 0.65), "milstein": (0.8, 1.2), "taylor15": (1.35, 1.75)}
LEVELS = (8, 16, 32, 64)
BATCHES = 16
BATCH_PATHS = 64
EXIT_RATE = 4.0
SEED = 20221121


def fast_chain(name):
    """A fixture's rates under a symmetric chain with exit rate EXIT_RATE."""
    base = fixture(name)
    m0 = base.m0
    q = np.full((m0, m0), EXIT_RATE / (m0 - 1))
    np.fill_diagonal(q, -EXIT_RATE)
    return ModelSpec(
        name=name + "-fast",
        generator=GeneratorMatrix(q),
        coefficients=base.coefficients,
        x0=base.x0,
    )


def exact_path(model, chain, noise, times):
    """Exact states at ``times`` from one ``exact`` call on the grid of
    ``times`` merged with the switch times before its end."""
    jumps = chain.jump_times[chain.jump_times < times[-1]]
    grid = np.union1d(times, jumps)
    w = noise.w_many(grid)
    ends = model.coefficients.exact(
        np.asarray(model.x0, dtype=float)[None],
        chain.states_at(grid[:-1])[None],
        np.diff(grid)[None],
        np.diff(w, axis=0)[None],
    )[0]
    states = np.vstack([model.x0, ends])
    return states[np.searchsorted(grid, times)]


def batch_errors(model, indices):
    """Sup-squared error at the grid points of every level, per scheme and
    path, and the switch counts per window of the coarsest level."""
    fine = max(LEVELS)
    grid = GridSpec(0.0, 1.0, fine)
    times = grid.finest_times()
    draws = []
    for i in indices:
        chain_seed, noise_seed = np.random.SeedSequence((SEED, i)).spawn(2)
        chain = sample_path(
            model.generator, model.initial_regime, 0.0, 1.0, np.random.default_rng(chain_seed)
        )
        noise = build_noise(grid, chain, model.m, np.random.default_rng(noise_seed))
        draws.append((chain, noise))
    truth = np.stack([exact_path(model, c, n, times) for c, n in draws])
    P = len(draws)
    errors = {}
    for L in LEVELS:
        stride = fine // L
        edges = times[::stride]
        aggregates = [noise.step_aggregates(edges) for _, noise in draws]
        dw = np.stack([a[0] for a in aggregates])
        dz = np.stack([a[1] for a in aggregates])
        regimes = np.stack([chain.states_at(edges[:-1]) for chain, _ in draws])
        table = merge_records([jump_records(c, n, edges) for c, n in draws])
        if L == LEVELS[0]:
            counts = np.zeros((P, L), dtype=np.int64)
            counts.reshape(-1)[table.rows] = table.counts
        for name in ORDER_WINDOWS:
            err = np.zeros(P)
            y0 = np.tile(model.x0, (P, 1))
            hs = np.full(L, 1.0 / L)
            for n, y in march(SCHEMES[name], model.coefficients, y0, regimes, hs, dw, dz, table):
                gap = y - truth[:, (n + 1) * stride]
                err = np.maximum(err, np.einsum("bk,bk->b", gap, gap))
            errors[(name, L)] = err
    return errors, counts


@pytest.fixture(scope="module", params=["linear2", "diagonal3"])
def oracle_study(request):
    model = fast_chain(request.param)
    means = {}
    counts = []
    for b in range(BATCHES):
        errors, switches = batch_errors(model, range(b * BATCH_PATHS, (b + 1) * BATCH_PATHS))
        counts.append(switches)
        for key, err in errors.items():
            means.setdefault(key, []).append(err.mean())
    return request.param, means, np.concatenate(counts)


def test_the_chain_exercises_the_corrections(oracle_study):
    # switch windows are common on the coarsest grid, three or more rare
    _, _, counts = oracle_study
    assert np.mean(counts >= 1) > 0.3
    assert np.mean(counts >= 2) > 0.05
    assert np.mean(counts >= 3) < 0.03


@pytest.mark.parametrize("scheme", sorted(ORDER_WINDOWS))
def test_corrected_maps_converge_to_the_exact_solution_at_their_orders(oracle_study, scheme):
    name, means, _ = oracle_study
    rows = [(1.0 / L, float(np.median(means[(scheme, L)]))) for L in LEVELS]
    gamma, _ = fit_order(rows)
    lo, hi = ORDER_WINDOWS[scheme]
    assert lo <= gamma <= hi, "%s on %s: order %.3f outside [%.2f, %.2f]" % (
        scheme, name, gamma, lo, hi
    )


@pytest.mark.parametrize("name", ["linear2", "diagonal3"])
def test_exact_is_the_geometric_solution_between_switches(name):
    # one regime: x0 exp((a - c^2/2) t + c W(t)); a zero-length interval
    # with a zero increment leaves the state as it is
    model = fixture(name)
    coeffs = model.coefficients
    d = model.d
    rng = np.random.default_rng(4)
    dt = np.array([0.1, 0.0, 0.25, 0.05])
    dw = np.sqrt(dt)[:, None] * rng.standard_normal((4, d))
    x0 = np.asarray(model.x0, dtype=float)
    for regime in range(1, model.m0 + 1):
        a = np.asarray(coeffs.a, dtype=float).reshape(model.m0, d)[regime - 1]
        c = np.asarray(coeffs.c, dtype=float).reshape(model.m0, d)[regime - 1]
        got = coeffs.exact(x0[None], np.full((1, 4), regime), dt[None], dw[None])[0]
        t = np.cumsum(dt)[:, None]
        w = np.cumsum(dw, axis=0)
        np.testing.assert_allclose(got, x0 * np.exp((a - 0.5 * c * c) * t + c * w), rtol=1e-13)
        assert np.array_equal(got[1], got[0])


def test_exact_switches_rates_at_the_switch_time():
    # regime 1 on (0, 0.3], regime 2 after: the product of the two pieces
    model = fixture("linear2")
    chain = ChainPath(0.0, 1.0, 1, [0.3], [2])
    grid = GridSpec(0.0, 1.0, 4)
    noise = build_noise(grid, chain, 1, np.random.default_rng(8))
    got = exact_path(model, chain, noise, grid.finest_times())[-1, 0]
    w3, w1 = noise.w_at(0.3, 1), noise.w_at(1.0, 1)
    want = np.exp((-1.0 - 0.045) * 0.3 + 0.3 * w3 + (0.5 - 0.32) * 0.7 + 0.8 * (w1 - w3))
    assert got == pytest.approx(want, rel=1e-13)
