"""Operators built from one coefficient jet, checked against the einsum
formulation they replaced, and the number of coefficient evaluations a
kernel call makes.

The reference below is the earlier operator and kernel code: every operator
re-reads the coefficients it needs and contracts them with unoptimised
einsum.  On the built-in fixtures the jet-built operators multiply the same
factors in the same grouping, so results must agree exactly.
``_CurvedAnalytic`` is the only coefficient set with nonzero second
derivatives; there the summation order of the curvature terms differs, so it
is held to a relative gap of 1e-14.
"""

import numpy as np
import pytest

from switchtaylor import (
    CoefficientSet,
    GeneratorMatrix,
    ModelSpec,
    check_commutativity,
    fixture,
    op_noise_diffusion,
    op_noise_drift,
    op_noise_noise_diffusion,
    op_time_diffusion,
    op_time_drift,
)
from switchtaylor.model import _noise_diffusion
from switchtaylor.schemes import SCHEMES, JumpRecords
from test_model import _CurvedAnalytic

# ---------------------------------------------------------------------------
# reference: the einsum operators and kernels


def ref_op_time_drift(coeffs, X, regimes):
    b = coeffs.drift(X, regimes)
    db = coeffs.drift_gradient(X, regimes)
    hb = coeffs.drift_hessian(X, regimes)
    sig = coeffs.diffusion(X, regimes)
    a_mat = np.einsum("bpj,bqj->bpq", sig, sig)
    return np.einsum("bp,bkp->bk", b, db) + 0.5 * np.einsum("bpq,bkpq->bk", a_mat, hb)


def ref_op_noise_drift(coeffs, X, regimes):
    sig = coeffs.diffusion(X, regimes)
    db = coeffs.drift_gradient(X, regimes)
    return np.einsum("bpa,bkp->bka", sig, db)


def ref_op_time_diffusion(coeffs, X, regimes):
    b = coeffs.drift(X, regimes)
    dsig = coeffs.diffusion_gradient(X, regimes)
    hsig = coeffs.diffusion_hessian(X, regimes)
    sig = coeffs.diffusion(X, regimes)
    a_mat = np.einsum("bpj,bqj->bpq", sig, sig)
    return np.einsum("bp,bkjp->bkj", b, dsig) + 0.5 * np.einsum("bpq,bkjpq->bkj", a_mat, hsig)


def ref_op_noise_diffusion(coeffs, X, regimes, op_regimes=None):
    dsig = coeffs.diffusion_gradient(X, regimes)
    sig_op = coeffs.diffusion(X, regimes if op_regimes is None else op_regimes)
    return np.einsum("bpa,bkjp->bkja", sig_op, dsig)


def ref_op_noise_noise_diffusion(coeffs, X, regimes):
    sig = coeffs.diffusion(X, regimes)
    dsig = coeffs.diffusion_gradient(X, regimes)
    hsig = coeffs.diffusion_hessian(X, regimes)
    chain_rule = np.einsum("bqc,bpaq,bkjp->bkjac", sig, dsig, dsig)
    curvature = np.einsum("bqc,bpa,bkjpq->bkjac", sig, sig, hsig)
    return chain_rule + curvature


def ref_pair_weight(dw, h):
    quad = dw[:, :, None] * dw[:, None, :]
    idx = np.arange(dw.shape[1])
    quad[:, idx, idx] -= h
    return quad


def ref_triple_weight(dw, h):
    m = dw.shape[1]
    cubic = dw[:, :, None, None] * dw[:, None, :, None] * dw[:, None, None, :]
    j_idx, a_idx, c_idx = np.indices((m, m, m))
    pair = ((a_idx == c_idx) & (j_idx != a_idx)).astype(float)
    diag = ((j_idx == a_idx) & (a_idx == c_idx)).astype(float)
    cubic -= (h * (pair + 3.0 * diag))[None] * dw[:, :, None, None]
    return cubic


def ref_euler(coeffs, y, regimes, h, dw, dz=None, jumps=None):
    b = coeffs.drift(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    return y + b * h + np.einsum("bkj,bj->bk", sig, dw)


def ref_milstein(coeffs, y, regimes, h, dw, dz=None, jumps=None):
    b = coeffs.drift(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    lj = ref_op_noise_diffusion(coeffs, y, regimes)
    out = y + b * h + np.einsum("bkj,bj->bk", sig, dw)
    out += 0.5 * np.einsum("bkja,bja->bk", lj, ref_pair_weight(dw, h))
    if jumps is not None and jumps.rows.size:
        rows = jumps.rows
        sig_after = coeffs.diffusion(y[rows], jumps.reg1)
        w_cut = np.where((jumps.counts >= 2)[:, None], jumps.w2, dw[rows])
        out[rows] += np.einsum("bkj,bj->bk", sig_after - sig[rows], w_cut - jumps.w1)
    return out


def ref_taylor15(coeffs, y, regimes, h, dw, dz, jumps=None):
    m = dw.shape[1]
    b = coeffs.drift(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    l0b = ref_op_time_drift(coeffs, y, regimes)
    ljb = ref_op_noise_drift(coeffs, y, regimes)
    l0s = ref_op_time_diffusion(coeffs, y, regimes)
    ljs = ref_op_noise_diffusion(coeffs, y, regimes)
    ljjs = ref_op_noise_noise_diffusion(coeffs, y, regimes)

    out = y + b * h + 0.5 * l0b * (h * h)
    out += np.einsum("bka,ba->bk", ljb, dz)
    out += np.einsum("bkj,bj->bk", sig, dw)
    out += np.einsum("bkj,bj->bk", l0s, h * dw - dz)
    out += 0.5 * np.einsum("bkja,bja->bk", ljs, ref_pair_weight(dw, h))
    out += np.einsum("bkjac,bjac->bk", ljjs, ref_triple_weight(dw, h)) / 6.0

    if jumps is None or not jumps.rows.size:
        return out

    rows = jumps.rows
    yk = y[rows]
    reg0 = np.asarray(regimes)[rows]
    reg1 = jumps.reg1
    w1 = jumps.w1
    more = jumps.counts >= 2
    w_cut = np.where(more[:, None], jumps.w2, dw[rows])
    tail = w_cut - w1
    remain = np.where(more, jumps.dt2, h) - jumps.dt1
    out[rows] += (coeffs.drift(yk, reg1) - b[rows]) * remain[:, None]
    out[rows] += np.einsum("bkj,bj->bk", coeffs.diffusion(yk, reg1) - sig[rows], tail)
    lj_mixed = ref_op_noise_diffusion(coeffs, yk, reg1, op_regimes=reg0)
    out[rows] += np.einsum("bkja,ba,bj->bk", lj_mixed - ljs[rows], w1, tail)
    lj_after = ref_op_noise_diffusion(coeffs, yk, reg1)
    tail_quad = tail[:, :, None] * tail[:, None, :]
    idx = np.arange(m)
    tail_quad[:, idx, idx] -= remain[:, None]
    out[rows] += 0.5 * np.einsum("bkja,bja->bk", lj_after - ljs[rows], tail_quad)

    if more.any():
        rows2 = rows[more]
        sig_after = coeffs.diffusion(y[rows2], jumps.reg2[more])
        w_cut3 = np.where((jumps.counts[more] >= 3)[:, None], jumps.w3[more], dw[rows2])
        out[rows2] += np.einsum(
            "bkj,bj->bk", sig_after - sig[rows2], w_cut3 - jumps.w2[more]
        )
    return out


REF_KERNELS = {"euler": ref_euler, "milstein": ref_milstein, "taylor15": ref_taylor15}


def ref_commutativity_gaps(model, points):
    gap1 = gap2 = 0.0
    for regime in range(1, model.m0 + 1):
        R = np.full(points.shape[0], regime)
        t1 = ref_op_noise_diffusion(model.coefficients, points, R)
        gap1 = max(gap1, float(np.abs(t1 - t1.transpose(0, 1, 3, 2)).max()))
        t2 = ref_op_noise_noise_diffusion(model.coefficients, points, R)
        gap2 = max(gap2, float(np.abs(t2 - t2.transpose(0, 1, 2, 4, 3)).max()))
    return gap1, gap2


# ---------------------------------------------------------------------------
# inputs

CURVED = ModelSpec(
    name="curved",
    generator=GeneratorMatrix(
        np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    ),
    coefficients=_CurvedAnalytic(),
    x0=[0.7, 0.4],
)
MODELS = {name: fixture(name) for name in ("linear2", "diagonal3", "additive")}
MODELS["curved"] = CURVED
H = 1.0 / 64


def kernel_inputs(model, width, count, seed=11):
    """Kernel arguments.  With ``count`` 1, 2 or 3 every other row holds a
    switch record of that many switches; "mixed" cycles through 1, 2, 3."""
    rng = np.random.default_rng(seed)
    d, m, m0 = model.d, model.m, model.m0
    y = model.x0 * (1.0 + 0.3 * rng.standard_normal((width, d)))
    regimes = rng.integers(1, m0 + 1, size=width)
    g = rng.standard_normal((width, m, 2))
    dw = np.sqrt(H) * g[:, :, 0]
    dz = H**1.5 * (0.5 * g[:, :, 0] + (0.5 / np.sqrt(3.0)) * g[:, :, 1])
    jumps = None
    if count:
        rows = np.arange(0, width, 2, dtype=np.intp)
        K = rows.size
        counts = np.arange(K) % 3 + 1 if count == "mixed" else np.full(K, count)
        dt = np.sort(H * rng.random((K, 3)), axis=1)
        w = np.sqrt(H) * rng.standard_normal((K, 3, m))
        reg1 = regimes[rows] % m0 + 1
        has2 = counts >= 2
        jumps = JumpRecords(
            rows=rows,
            counts=counts.astype(np.int64),
            dt1=dt[:, 0],
            reg1=reg1.astype(np.int64),
            w1=w[:, 0],
            dt2=np.where(has2, dt[:, 1], 0.0),
            reg2=np.where(has2, reg1 % m0 + 1, reg1).astype(np.int64),
            w2=np.where(has2[:, None], w[:, 1], 0.0),
            w3=np.where((counts >= 3)[:, None], w[:, 2], 0.0),
        )
    return model.coefficients, y, regimes, H, dw, dz, jumps


def assert_agree(name, got, want):
    if name == "curved":
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-14 * scale
    else:
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# oracle comparisons

WIDTHS = (1, 7, 512)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_operators_match_reference(name, width):
    model = MODELS[name]
    coeffs, y, regimes, *_ = kernel_inputs(model, width, 0)
    other = regimes % model.m0 + 1
    for new, ref in (
        (op_time_drift, ref_op_time_drift),
        (op_noise_drift, ref_op_noise_drift),
        (op_time_diffusion, ref_op_time_diffusion),
        (op_noise_diffusion, ref_op_noise_diffusion),
        (op_noise_noise_diffusion, ref_op_noise_noise_diffusion),
    ):
        assert_agree(name, new(coeffs, y, regimes), ref(coeffs, y, regimes))
    # the split-regime operator of the switch corrections, built as the
    # 1.5 kernel builds it: target entry at regimes, operator at other
    assert_agree(
        name,
        _noise_diffusion(coeffs.jet(y, regimes, 1)[3], coeffs.jet(y, other, 0)[1]),
        ref_op_noise_diffusion(coeffs, y, regimes, op_regimes=other),
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_commutativity_gaps_match_reference(name):
    model = MODELS[name]
    points = model.x0 * (1.0 + 0.3 * np.random.default_rng(5).standard_normal((9, model.d)))
    report = check_commutativity(model, points)
    gap1, gap2 = ref_commutativity_gaps(model, points)
    if name == "curved":
        assert report.first_order_gap == pytest.approx(gap1, rel=1e-14)
        assert report.second_order_gap == pytest.approx(gap2, rel=1e-14)
    else:
        assert (report.first_order_gap, report.second_order_gap) == (gap1, gap2)


@pytest.mark.parametrize("count", [0, 1, 2, 3, "mixed"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_kernels_match_reference(name, width, count):
    args = kernel_inputs(MODELS[name], width, count)
    for scheme, ref in REF_KERNELS.items():
        assert_agree(name, SCHEMES[scheme].kernel(*args), ref(*args))


# ---------------------------------------------------------------------------
# evaluation counts


class CountingCoefficients(CoefficientSet):
    """Delegates to a coefficient set and records every ``jet`` call in order."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.m = inner.m
        self.calls = []

    def jet(self, X, regimes, order):
        self.calls.append((order, np.array(X), np.array(regimes)))
        return self.inner.jet(X, regimes, order)


def counted_call(scheme, count=0, width=6):
    _, y, regimes, h, dw, dz, jumps = kernel_inputs(MODELS["diagonal3"], width, count)
    counting = CountingCoefficients(MODELS["diagonal3"].coefficients)
    SCHEMES[scheme].kernel(counting, y, regimes, h, dw, dz, jumps)
    return counting.calls, y, regimes, jumps


def orders(calls):
    return [order for order, _, _ in calls]


def assert_calls(calls, expected):
    assert orders(calls) == orders(expected)
    for (_, X, R), (_, want_X, want_R) in zip(calls, expected):
        np.testing.assert_array_equal(X, want_X)
        np.testing.assert_array_equal(R, want_R)


def test_jump_free_taylor15_evaluates_the_jet_once():
    calls, y, regimes, _ = counted_call("taylor15")
    assert_calls(calls, [(2, y, regimes)])


def test_jump_free_milstein_evaluates_an_order_one_jet():
    calls, y, regimes, _ = counted_call("milstein")
    assert_calls(calls, [(1, y, regimes)])


def test_euler_evaluates_an_order_zero_jet():
    for count in (0, 1):
        calls, y, regimes, _ = counted_call("euler", count)
        assert_calls(calls, [(0, y, regimes)])


@pytest.mark.parametrize("count", [1, 2, 3, "mixed"])
def test_milstein_switch_rows_add_an_order_zero_jet(count):
    calls, y, regimes, jumps = counted_call("milstein", count)
    assert_calls(calls, [(1, y, regimes), (0, y[jumps.rows], jumps.reg1)])


@pytest.mark.parametrize("count", [1, 2, 3, "mixed"])
def test_taylor15_switch_rows_add_a_partial_jet(count):
    calls, y, regimes, jumps = counted_call("taylor15", count)
    rows, more = jumps.rows, jumps.counts >= 2
    expected = [(2, y, regimes), (1, y[rows], jumps.reg1)]
    if more.any():
        expected.append((0, y[rows[more]], jumps.reg2[more]))
    assert_calls(calls, expected)
