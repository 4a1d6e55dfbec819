"""Property tests: switch records against a brute-force scan, batched
stepping against single-path integration, and the coefficient jet against
its lower orders, its single rows and its per-entry views."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchtaylor import (
    CallableCoefficients,
    ChainPath,
    GridSpec,
    InvalidJetOrder,
    NotAGridTime,
    build_noise,
    fixture,
    fixture_names,
)
from switchtaylor.schemes import get_scheme, integrate, jump_records, march, merge_records
from test_model import _CurvedAnalytic

PROPERTY = settings(max_examples=50, deadline=None)


@st.composite
def chains(draw, m0=3, t_end=1.0, grid_steps=16):
    """A chain on [0, t_end] with a few switches, some on grid points."""
    grid_times = [t_end * k / grid_steps for k in range(1, grid_steps + 1)]
    times = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, t_end, exclude_min=True, allow_nan=False),
                st.sampled_from(grid_times),
            ),
            max_size=8,
            unique=True,
        )
    )
    times = sorted(times)
    states, current = [], draw(st.integers(1, m0))
    initial = current
    for _ in times:
        current = draw(st.sampled_from([s for s in range(1, m0 + 1) if s != current]))
        states.append(current)
    return ChainPath(0.0, t_end, initial, np.array(times), np.array(states, dtype=np.int64))


def brute_force_records(chain, noise, edges):
    """Field-by-field scan of every window, written without the vector code."""
    out = {name: [] for name in ("rows", "counts", "dt1", "reg1", "w1", "dt2", "reg2", "w2", "w3")}
    m = noise.m
    for i in range(len(edges) - 1):
        s, t = edges[i], edges[i + 1]
        inside = [k for k, tau in enumerate(chain.jump_times) if s < tau <= t]
        if not inside:
            continue
        taus = [chain.jump_times[k] for k in inside]
        regs = [int(chain.states_after[k]) for k in inside]
        w_s = noise.w_many([s])[0]
        out["rows"].append(i)
        out["counts"].append(len(inside))
        out["dt1"].append(taus[0] - s)
        out["reg1"].append(regs[0])
        out["w1"].append(noise.w_many([taus[0]])[0] - w_s)
        two = len(inside) >= 2
        out["dt2"].append(taus[1] - s if two else 0.0)
        out["reg2"].append(regs[1] if two else regs[0])
        out["w2"].append(noise.w_many([taus[1]])[0] - w_s if two else np.zeros(m))
        out["w3"].append(noise.w_many([taus[2]])[0] - w_s if len(inside) >= 3 else np.zeros(m))
    return {
        name: np.array(values).reshape((-1, m) if name[0] == "w" else -1)
        for name, values in out.items()
    }


@PROPERTY
@given(chain=chains(), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_jump_records_match_a_brute_force_scan(chain, m, seed, data):
    noise = build_noise(GridSpec(0.0, 1.0, 16), chain, m, np.random.default_rng(seed))
    picked = data.draw(
        st.lists(st.integers(0, noise.times.size - 1), min_size=2, max_size=12, unique=True)
    )
    edges = noise.times[sorted(picked)]
    got = jump_records(chain, noise, edges)
    want = brute_force_records(chain, noise, edges)
    for name, values in want.items():
        np.testing.assert_array_equal(getattr(got, name), values, err_msg=name)


def planted_records(times, states, edges, m=1, seed=0):
    # records of a crafted chain on [0, 1], checked against the brute-force scan
    chain = ChainPath(0.0, 1.0, 1, np.array(times), np.array(states, dtype=np.int64))
    noise = build_noise(GridSpec(0.0, 1.0, 16), chain, m, np.random.default_rng(seed))
    got = jump_records(chain, noise, edges)
    want = brute_force_records(chain, noise, edges)
    for name, values in want.items():
        np.testing.assert_array_equal(getattr(got, name), values, err_msg=name)
    return got, noise


def test_a_switch_on_an_interior_edge_belongs_to_the_left_window():
    got, _ = planted_records([0.5, 0.75], [2, 1], [0.0, 0.5, 1.0])
    assert got.rows.tolist() == [0, 1]
    assert got.dt1.tolist() == [0.5, 0.25]
    assert got.reg1.tolist() == [2, 1]


def test_a_switch_at_the_end_of_the_span_is_recorded():
    got, noise = planted_records([0.25, 1.0], [2, 1], [0.0, 0.5, 1.0], m=2)
    assert got.rows.tolist() == [0, 1] and got.counts.tolist() == [1, 1]
    assert got.dt1.tolist() == [0.25, 0.5]
    assert got.reg1.tolist() == [2, 1]
    np.testing.assert_array_equal(got.w1[1], noise.w_many([1.0])[0] - noise.w_many([0.5])[0])


def test_a_fourth_switch_in_one_window_is_not_recorded():
    got, noise = planted_records([0.1, 0.2, 0.3, 0.4, 0.9], [2, 1, 2, 1, 2], [0.0, 0.5, 1.0])
    assert got.counts.tolist() == [4, 1]
    assert got.reg1.tolist() == [2, 2] and got.reg2.tolist() == [1, 2]
    assert got.dt2.tolist() == [0.2, 0.0]
    # w3 is the third switch's offset; nothing of the fourth is kept
    np.testing.assert_array_equal(got.w3[0], noise.w_many([0.3])[0])


def test_records_need_the_jump_times_on_the_noise_grid():
    chain = ChainPath(0.0, 1.0, 1, np.array([0.3]), np.array([2]))
    noise = build_noise(GridSpec(0.0, 1.0, 16), None, 1, np.random.default_rng(0))
    with pytest.raises(NotAGridTime):
        jump_records(chain, noise, [0.0, 0.5, 1.0])


@PROPERTY
@given(
    name=st.sampled_from(["linear2", "diagonal3", "additive"]),
    scheme=st.sampled_from(["euler", "milstein", "taylor15"]),
    width=st.integers(1, 4),
    data=st.data(),
)
def test_batched_march_matches_single_path_integration(name, scheme, width, data):
    model = fixture(name)
    n = 16
    grid = GridSpec(0.0, 1.0, n)
    times = grid.finest_times()
    paths = []
    for _ in range(width):
        chain = data.draw(chains(m0=model.m0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        paths.append((chain, build_noise(grid, chain, model.m, np.random.default_rng(seed))))
    aggregates = [noise.step_aggregates(times) for _, noise in paths]
    steps = march(
        get_scheme(scheme),
        model.coefficients,
        np.tile(model.x0, (width, 1)),
        np.stack([chain.states_at(times[:-1]) for chain, _ in paths]),
        np.full(n, 1.0 / n),
        np.stack([dw for dw, _ in aggregates]),
        np.stack([dz for _, dz in aggregates]),
        merge_records([jump_records(chain, noise, times) for chain, noise in paths]),
    )
    batched = np.stack([y for _, y in steps], axis=1)
    for row, (chain, noise) in enumerate(paths):
        single = integrate(model, scheme, chain, noise, times)
        np.testing.assert_allclose(batched[row], single.states[1:], rtol=1e-12, atol=0)


# (coefficient set, number of regimes)
COEFFICIENT_SETS = {
    name: (fixture(name).coefficients, fixture(name).m0) for name in fixture_names()
}
COEFFICIENT_SETS["curved"] = (_CurvedAnalytic(), 3)
COEFFICIENT_SETS["callable"] = (
    CallableCoefficients(
        drift_fn=lambda x, r: r * np.array([np.sin(x[0]), x[0] * x[1]]),
        diffusion_fn=lambda x, r: r
        * np.array([[np.cos(x[1]), x[0] ** 2], [x[1], np.exp(x[0] / 2)]]),
        d=2,
        m=2,
    ),
    2,
)
VIEWS = (
    "drift",
    "diffusion",
    "drift_gradient",
    "diffusion_gradient",
    "drift_hessian",
    "diffusion_hessian",
)


@PROPERTY
@given(name=st.sampled_from(sorted(COEFFICIENT_SETS)), rows=st.integers(1, 16), data=st.data())
def test_jet_agrees_with_its_orders_rows_and_views(name, rows, data):
    coeffs, m0 = COEFFICIENT_SETS[name]
    X = data.draw(arrays(float, (rows, coeffs.d), elements=st.floats(-2.0, 2.0)))
    R = data.draw(arrays(np.int64, rows, elements=st.integers(1, m0)))
    full = coeffs.jet(X, R, 2)
    assert len(full) == 6
    for order in (0, 1):
        part = coeffs.jet(X, R, order)
        assert len(part) == 2 * order + 2
        for got, want in zip(part, full):
            np.testing.assert_array_equal(got, want, strict=True)
    for i in range(rows):
        for got, want in zip(coeffs.jet(X[i : i + 1], R[i : i + 1], 2), full):
            np.testing.assert_array_equal(got, want[i : i + 1], strict=True)
    for view, want in zip(VIEWS, full):
        np.testing.assert_array_equal(getattr(coeffs, view)(X, R), want, strict=True)


@pytest.mark.parametrize("order", [3, -1, 1.5, True, False])
@pytest.mark.parametrize("name", sorted(COEFFICIENT_SETS))
def test_jet_refuses_an_order_outside_0_to_2(name, order):
    coeffs, _ = COEFFICIENT_SETS[name]
    X = np.ones((2, coeffs.d))
    R = np.ones(2, dtype=np.int64)
    with pytest.raises(InvalidJetOrder, match=re.escape("got %r" % (order,))):
        coeffs.jet(X, R, order)
