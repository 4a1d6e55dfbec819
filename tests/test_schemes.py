"""One-step maps: closed-form oracles, switch corrections, degeneration."""

import io
import re
from dataclasses import replace

import numpy as np
import pytest

from switchtaylor import (
    ChainPath,
    CommutativityRequired,
    DiagonalLinearCoefficients,
    DimensionMismatch,
    GeneratorMatrix,
    GridSpec,
    IntervalOutOfRange,
    InvalidGrid,
    ModelSpec,
    NonFiniteState,
    NotAGridTime,
    UnknownRegime,
    UnknownScheme,
    build_noise,
    fixture,
)
from switchtaylor.fixtures import fixture_names
from switchtaylor.schemes import (
    SCHEMES,
    WEIGHT_BLOCK_ROWS,
    JumpRecords,
    Trajectory,
    _pair_weight,
    _triple_weight,
    get_scheme,
    integrate,
    jump_records,
    march,
    write_trajectory_csv,
)

LIN = fixture("linear2")
A1, A2 = -1.0, 0.5
C1, C2 = 0.3, 0.8

THREE_STATE = GeneratorMatrix(
    np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
)
SCALAR3 = ModelSpec(
    name="scalar3",
    generator=THREE_STATE,
    coefficients=DiagonalLinearCoefficients(a=[[-1.0], [0.5], [0.2]], c=[[0.3], [0.8], [0.5]]),
    x0=[1.0],
)


def crafted_chain(jumps, states, t_end=1.0):
    return ChainPath(
        0.0,
        t_end,
        1,
        np.asarray(jumps, dtype=float),
        np.asarray(states, dtype=np.int64),
    )


def noise_for(chain, seed=7, base_steps=8, m=1):
    grid = GridSpec(chain.t0, chain.t_end, base_steps)
    return build_noise(grid, chain, m, np.random.default_rng(seed))


def one_step(model, scheme, chain, noise, s, t, y):
    # one step over [s, t] from state y: integrate on the two-point grid
    traj = integrate(replace(model, x0=[y]), scheme, chain, noise, [s, t])
    return traj.states[1, 0]


def window(chain, noise, s, t):
    # what a step over [s, t] reads: scalar dW and dZ and the switch records
    dw, dz = noise.step_aggregates([s, t])
    rec = jump_records(chain, noise, [s, t])
    return float(dw[0, 0]), float(dz[0, 0]), rec._between(0, rec.rows.size, 0)


# scalar closed forms written out independently of the kernels


def euler_scalar(y, a, c, h, dw):
    return y + a * y * h + c * y * dw


def milstein_scalar(y, a, c, h, dw):
    return euler_scalar(y, a, c, h, dw) + 0.5 * c * c * y * (dw * dw - h)


def taylor15_scalar(y, a, c, h, dw, dz):
    return (
        y
        + a * y * h
        + 0.5 * a * a * y * h * h
        + a * c * y * dz
        + c * y * dw
        + a * c * y * (h * dw - dz)
        + 0.5 * c * c * y * (dw * dw - h)
        + c**3 * y * (dw**3 - 3.0 * h * dw) / 6.0
    )


def stretch_terms_scalar(y, a0, c0, a1, c1, w1, tail, remain):
    # first-switch corrections of the 1.5 map over one covered stretch:
    # tail and remain run from the switch to the next one or the window end
    return (
        (a1 - a0) * y * remain
        + (c1 - c0) * y * tail
        + c0 * (c1 - c0) * y * w1 * tail
        + 0.5 * (c1 * c1 - c0 * c0) * y * (tail * tail - remain)
    )


class TestNoJumpClosedForms:
    def setup_method(self):
        self.chain = crafted_chain([], [])
        self.noise = noise_for(self.chain)
        self.dw, self.dz, self.jumps = window(self.chain, self.noise, 0.0, 0.125)
        self.y = 1.3

    def step(self, scheme):
        return one_step(LIN, scheme, self.chain, self.noise, 0.0, 0.125, self.y)

    def test_window_contents(self):
        traj = integrate(LIN, "euler", self.chain, self.noise, [0.0, 0.125])
        assert np.diff(traj.times)[0] == pytest.approx(0.125)
        assert traj.regimes[0] == 1
        assert self.jumps is None

    def test_euler(self):
        got = self.step("euler")
        assert got == pytest.approx(euler_scalar(self.y, A1, C1, 0.125, self.dw), rel=1e-14)

    def test_milstein(self):
        got = self.step("milstein")
        want = milstein_scalar(self.y, A1, C1, 0.125, self.dw)
        assert got == pytest.approx(want, rel=1e-14)

    def test_taylor15(self):
        got = self.step("taylor15")
        want = taylor15_scalar(self.y, A1, C1, 0.125, self.dw, self.dz)
        assert got == pytest.approx(want, rel=1e-14)


class TestSingleSwitchCorrections:
    def setup_method(self):
        self.chain = crafted_chain([0.4], [2])
        self.noise = noise_for(self.chain)
        self.dw, self.dz, self.jumps = window(self.chain, self.noise, 0.25, 0.5)
        self.h = 0.25
        self.w1 = self.noise.w_many([0.4])[0, 0] - self.noise.w_many([0.25])[0, 0]
        self.tail = self.dw - self.w1
        self.y = 0.9

    def step(self, scheme):
        return one_step(LIN, scheme, self.chain, self.noise, 0.25, 0.5, self.y)

    def test_window_records_the_switch(self):
        j = self.jumps
        assert j is not None
        assert j.counts.tolist() == [1]
        assert j.reg1.tolist() == [2]
        assert j.dt1[0] == pytest.approx(0.15)
        assert j.w1[0, 0] == pytest.approx(self.w1, rel=1e-15)

    def test_milstein_switch_term(self):
        got = self.step("milstein")
        want = milstein_scalar(self.y, A1, C1, self.h, self.dw)
        want += (C2 - C1) * self.y * self.tail
        assert got == pytest.approx(want, rel=1e-13)

    def test_taylor15_switch_terms(self):
        got = self.step("taylor15")
        y = self.y
        remain = 0.5 - 0.4
        want = taylor15_scalar(y, A1, C1, self.h, self.dw, self.dz)
        want += (A2 - A1) * y * remain
        want += (C2 - C1) * y * self.tail
        # switched target under the frozen-start operator: (c1 c2 - c1 c1) y
        want += C1 * (C2 - C1) * y * self.w1 * self.tail
        want += 0.5 * (C2 * C2 - C1 * C1) * y * (self.tail**2 - remain)
        assert got == pytest.approx(want, rel=1e-13)

    def test_euler_ignores_the_switch(self):
        got = self.step("euler")
        assert got == pytest.approx(euler_scalar(self.y, A1, C1, self.h, self.dw), rel=1e-14)


class TestDoubleAndManySwitches:
    def test_two_switches_correct_each_stretch(self):
        chain = crafted_chain([0.3, 0.45], [2, 3])
        noise = noise_for(chain, seed=11)
        dw, dz, _ = window(chain, noise, 0.25, 0.5)
        w1, w2 = noise.w_many([0.3, 0.45])[:, 0] - noise.w_many([0.25])[0, 0]
        y = 1.1
        a1, c1, a2, c2, c3 = -1.0, 0.3, 0.5, 0.8, 0.5
        got = one_step(SCALAR3, "milstein", chain, noise, 0.25, 0.5, y)
        want = milstein_scalar(y, a1, c1, 0.25, dw)
        want += (c2 - c1) * y * (w2 - w1)
        assert got == pytest.approx(want, rel=1e-13)
        got = one_step(SCALAR3, "taylor15", chain, noise, 0.25, 0.5, y)
        want = taylor15_scalar(y, a1, c1, 0.25, dw, dz)
        want += stretch_terms_scalar(y, a1, c1, a2, c2, w1, w2 - w1, 0.45 - 0.3)
        want += (c3 - c1) * y * (dw - w2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_return_to_start_cancels_second_switch_term(self):
        # two-state chain returning to its start regime: the second-switch
        # difference telescopes to zero, leaving the middle-stretch terms
        chain = crafted_chain([0.3, 0.45], [2, 1])
        noise = noise_for(chain, seed=3)
        dw, dz, _ = window(chain, noise, 0.25, 0.5)
        w1, w2 = noise.w_many([0.3, 0.45])[:, 0] - noise.w_many([0.25])[0, 0]
        y = 1.1
        got = one_step(LIN, "taylor15", chain, noise, 0.25, 0.5, y)
        want = taylor15_scalar(y, A1, C1, 0.25, dw, dz)
        want += stretch_terms_scalar(y, A1, C1, A2, C2, w1, w2 - w1, 0.45 - 0.3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_three_switches_cap_the_corrections(self):
        chain = crafted_chain([0.27, 0.33, 0.48], [2, 3, 1])
        noise = noise_for(chain, seed=5)
        dw, dz, jumps = window(chain, noise, 0.25, 0.5)
        assert jumps.counts.tolist() == [3]
        w1, w2, w3 = noise.w_many([0.27, 0.33, 0.48])[:, 0] - noise.w_many([0.25])[0, 0]
        y = 0.7
        a1, c1, a2, c2, c3 = -1.0, 0.3, 0.5, 0.8, 0.5
        got = one_step(SCALAR3, "euler", chain, noise, 0.25, 0.5, y)
        assert got == pytest.approx(euler_scalar(y, a1, c1, 0.25, dw), rel=1e-13)
        got = one_step(SCALAR3, "milstein", chain, noise, 0.25, 0.5, y)
        want = milstein_scalar(y, a1, c1, 0.25, dw)
        want += (c2 - c1) * y * (w2 - w1)
        assert got == pytest.approx(want, rel=1e-13)
        # the third switch caps the second-switch stretch; nothing runs past it
        got = one_step(SCALAR3, "taylor15", chain, noise, 0.25, 0.5, y)
        want = taylor15_scalar(y, a1, c1, 0.25, dw, dz)
        want += stretch_terms_scalar(y, a1, c1, a2, c2, w1, w2 - w1, 0.33 - 0.27)
        want += (c3 - c1) * y * (w3 - w2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_switch_on_right_edge_contributes_nothing(self):
        chain = crafted_chain([0.5], [2])
        noise = noise_for(chain, seed=9)
        dw, dz, jumps = window(chain, noise, 0.25, 0.5)
        assert jumps is not None and jumps.counts.tolist() == [1]
        y = 1.4
        got = one_step(LIN, "taylor15", chain, noise, 0.25, 0.5, y)
        want = taylor15_scalar(y, A1, C1, 0.25, dw, dz)
        assert got == pytest.approx(want, rel=1e-13)
        # and the regime for the NEXT window has already switched
        traj = integrate(LIN, "taylor15", chain, noise, [0.25, 0.5, 0.75])
        assert traj.regimes.tolist() == [1, 2, 2]


class TestJumpRecords:
    def test_binning_and_fields(self):
        chain = crafted_chain([0.25, 0.3, 0.4, 0.45, 0.9], [2, 1, 2, 1, 2])
        noise = noise_for(chain, seed=2)
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        rec = jump_records(chain, noise, edges)
        assert rec.rows.tolist() == [0, 1, 3]
        assert rec.counts.tolist() == [1, 3, 1]
        # boundary switch at 0.25 belongs to the window ending there
        assert rec.dt1[0] == pytest.approx(0.25)
        assert rec.reg1.tolist() == [2, 1, 2]
        assert rec.dt2[1] == pytest.approx(0.15)
        assert rec.reg2[1] == 2
        assert rec.w3[1, 0] == pytest.approx(
            noise.w_many([0.45])[0, 0] - noise.w_many([0.25])[0, 0], rel=1e-15
        )
        # parked fields for windows with fewer switches
        assert rec.dt2[0] == 0.0
        assert np.all(rec.w2[0] == 0.0)
        assert rec.reg2[0] == rec.reg1[0]
        assert np.all(rec.w3[0] == 0.0) and np.all(rec.w3[2] == 0.0)

    def test_empty_records(self):
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        rec = jump_records(chain, noise, np.array([0.0, 0.5, 1.0]))
        assert rec.rows.size == 0
        assert rec._between(0, rec.rows.size, 0) is None


class TestBatchedMatchesSingle:
    @pytest.mark.parametrize("name", ["euler", "milstein", "taylor15"])
    def test_rowwise_agreement(self, name):
        rng = np.random.default_rng(42)
        B, h = 7, 0.25
        coeffs = SCALAR3.coefficients
        y = rng.uniform(0.5, 1.5, (B, 1))
        regimes = rng.integers(1, 4, B)
        dw = rng.normal(0.0, np.sqrt(h), (B, 1))
        dz = rng.normal(0.0, np.sqrt(h**3 / 3), (B, 1))
        jumps = JumpRecords(
            rows=np.array([1, 3, 4]),
            counts=np.array([1, 2, 3]),
            dt1=np.array([0.1, 0.05, 0.02]),
            reg1=np.array([2, 3, 1]),
            w1=rng.normal(0.0, 0.3, (3, 1)),
            dt2=np.array([0.0, 0.2, 0.1]),
            reg2=np.array([2, 1, 2]),
            w2=rng.normal(0.0, 0.4, (3, 1)),
            w3=rng.normal(0.0, 0.5, (3, 1)),
        )
        kernel = get_scheme(name).kernel
        full = kernel(coeffs, y, regimes, h, dw, dz, jumps)
        for r in range(B):
            mask = jumps.rows == r
            sub = None
            if mask.any():
                sub = JumpRecords(
                    rows=np.zeros(mask.sum(), dtype=np.intp),
                    counts=jumps.counts[mask],
                    dt1=jumps.dt1[mask],
                    reg1=jumps.reg1[mask],
                    w1=jumps.w1[mask],
                    dt2=jumps.dt2[mask],
                    reg2=jumps.reg2[mask],
                    w2=jumps.w2[mask],
                    w3=jumps.w3[mask],
                )
            single = kernel(
                coeffs, y[r : r + 1], regimes[r : r + 1], h, dw[r : r + 1], dz[r : r + 1], sub
            )
            np.testing.assert_allclose(full[r], single[0], rtol=1e-13)


def classical_milstein(y, h, dw, a, bfun, bp):
    return y + a(y) * h + bfun(y) * dw + 0.5 * bfun(y) * bp(y) * (dw * dw - h)


def classical_taylor15(y, h, dw, dz, a, ap, app, bfun, bp, bpp):
    return (
        y
        + a(y) * h
        + bfun(y) * dw
        + 0.5 * bfun(y) * bp(y) * (dw * dw - h)
        + ap(y) * bfun(y) * dz
        + 0.5 * (a(y) * ap(y) + 0.5 * bfun(y) ** 2 * app(y)) * h * h
        + (a(y) * bp(y) + 0.5 * bfun(y) ** 2 * bpp(y)) * (h * dw - dz)
        + 0.5 * bfun(y) * (bfun(y) * bpp(y) + bp(y) ** 2) * (dw * dw / 3.0 - h) * dw
    )


class TestClassicalDegeneration:
    """With a single frozen regime the maps must match the classical scalar
    schemes, coded here straight from their textbook closed forms."""

    def setup_method(self):
        self.model = ModelSpec(
            name="singleton",
            generator=GeneratorMatrix(np.array([[0.0]])),
            coefficients=DiagonalLinearCoefficients(a=[[-0.8]], c=[[0.45]]),
            x0=[1.0],
        )
        self.chain = crafted_chain([], [])
        self.noise = noise_for(self.chain, seed=21, base_steps=8)
        self.times = GridSpec(0.0, 1.0, 8).finest_times()

    def _increments(self, n):
        dw, dz = self.noise.step_aggregates(self.times[n : n + 2])
        return float(dw[0, 0]), float(dz[0, 0])

    def test_milstein(self):
        traj = integrate(self.model, "milstein", self.chain, self.noise, self.times)
        a = lambda x: -0.8 * x
        b = lambda x: 0.45 * x
        bp = lambda x: 0.45
        y = 1.0
        for n in range(8):
            dw, _ = self._increments(n)
            y = classical_milstein(y, 0.125, dw, a, b, bp)
            assert traj.states[n + 1, 0] == pytest.approx(y, rel=1e-13)

    def test_taylor15(self):
        traj = integrate(self.model, "taylor15", self.chain, self.noise, self.times)
        a = lambda x: -0.8 * x
        ap = lambda x: -0.8
        app = lambda x: 0.0
        b = lambda x: 0.45 * x
        bp = lambda x: 0.45
        bpp = lambda x: 0.0
        y = 1.0
        for n in range(8):
            dw, dz = self._increments(n)
            y = classical_taylor15(y, 0.125, dw, dz, a, ap, app, b, bp, bpp)
            assert traj.states[n + 1, 0] == pytest.approx(y, rel=1e-13)


class TestGatesAndErrors:
    def test_commutativity_gate(self):
        bad = fixture("noncommutative")
        chain = crafted_chain([], [])
        noise = noise_for(chain, m=2)
        with pytest.raises(CommutativityRequired):
            one_step(bad, "milstein", chain, noise, 0.0, 0.125, 0.8)
        with pytest.raises(CommutativityRequired):
            one_step(bad, "taylor15", chain, noise, 0.0, 0.125, 0.8)
        with pytest.raises(CommutativityRequired):
            integrate(bad, "milstein", chain, noise, noise.times[:: 16])
        # order 0.5 needs no identity
        one_step(bad, "euler", chain, noise, 0.0, 0.125, 0.8)

    def test_diagonal_noise_passes_gate(self):
        mod = fixture("diagonal3")
        chain = ChainPath(0.0, 1.0, 1, np.array([0.6]), np.array([3]))
        noise = noise_for(chain, m=2, seed=13)
        traj = integrate(mod, "taylor15", chain, noise, GridSpec(0.0, 1.0, 8).finest_times())
        assert traj.states.shape == (9, 2)
        assert np.isfinite(traj.states).all()

    def test_chain_regime_beyond_the_model_rejected(self):
        chain = crafted_chain([0.4], [5])
        noise = noise_for(chain)
        with pytest.raises(UnknownRegime, match="regime 5, model 'linear2' has regimes 1..2"):
            integrate(LIN, "taylor15", chain, noise, GridSpec(0.0, 1.0, 8).finest_times())

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            get_scheme("heun")

    def test_nonfinite_state(self):
        mod = ModelSpec(
            name="explosive",
            generator=GeneratorMatrix(np.array([[0.0]])),
            coefficients=DiagonalLinearCoefficients(a=[[np.inf]], c=[[0.0]]),
            x0=[1.0],
        )
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        with pytest.raises(NonFiniteState):
            one_step(mod, "euler", chain, noise, 0.0, 0.125, 1.0)

    def test_integrate_grid_validation(self):
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        with pytest.raises(InvalidGrid):
            integrate(LIN, "euler", chain, noise, np.array([0.0]))
        with pytest.raises(InvalidGrid):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 0.5, 0.25]))
        with pytest.raises(InvalidGrid):
            integrate(LIN, "euler", chain, noise, np.array([0.5, 0.5]))
        with pytest.raises(IntervalOutOfRange):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 1.5]))
        with pytest.raises(NotAGridTime):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 0.1, 1.0]))


class TestIntegrateOutputs:
    def test_trajectory_contents(self):
        chain = crafted_chain([0.4], [2])
        noise = noise_for(chain)
        times = GridSpec(0.0, 1.0, 4).finest_times()
        traj = integrate(LIN, "taylor15", chain, noise, times)
        assert traj.scheme == "taylor15"
        assert traj.model_name == "linear2"
        np.testing.assert_array_equal(traj.times, times)
        assert traj.states[0, 0] == 1.0
        # regimes on the grid are right continuous
        assert traj.regimes.tolist() == [1, 1, 2, 2, 2]

    def test_zero_coefficients_give_constant_path(self):
        mod = ModelSpec(
            name="flat",
            generator=LIN.generator,
            coefficients=DiagonalLinearCoefficients(a=[[0.0], [0.0]], c=[[0.0], [0.0]]),
            x0=[2.5],
        )
        chain = crafted_chain([0.2, 0.7], [2, 1])
        noise = noise_for(chain, seed=17)
        traj = integrate(mod, "taylor15", chain, noise, GridSpec(0.0, 1.0, 8).finest_times())
        np.testing.assert_array_equal(traj.states, np.full((9, 1), 2.5))

    def test_csv_round_trip(self):
        chain = crafted_chain([0.4], [2])
        noise = noise_for(chain)
        traj = integrate(LIN, "euler", chain, noise, GridSpec(0.0, 1.0, 4).finest_times())
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,y1,regime"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            t_str, y_str, r_str = line.split(",")
            assert float(t_str) == traj.times[i]
            assert float(y_str) == traj.states[i, 0]
            assert int(r_str) == traj.regimes[i]

    def test_csv_accepts_a_path(self, tmp_path):
        chain = crafted_chain([0.4], [2])
        noise = noise_for(chain)
        traj = integrate(LIN, "euler", chain, noise, GridSpec(0.0, 1.0, 4).finest_times())
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        target = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, target)
        assert target.read_text() == buf.getvalue()

    def test_registry_metadata(self):
        assert SCHEMES["euler"].strong_order == 0.5
        assert SCHEMES["milstein"].strong_order == 1.0
        assert SCHEMES["taylor15"].strong_order == 1.5
        assert [SCHEMES[s].commutativity_order for s in ("euler", "milstein", "taylor15")] == [
            0,
            1,
            2,
        ]


# ---------------------------------------------------------------------------
# march: noise weights per block of steps, one record search, input checks


def planted_table(P, steps, m0, m, hs, rng):
    """Switch records on rows 0 and P - 1 of each given step, with one, two
    and three switches in turn."""
    keys = sorted({step * P + row for step in steps for row in (0, P - 1)})
    K = len(keys)
    step_of = np.asarray(keys) // P
    h = hs[step_of]
    counts = np.arange(K) % 3 + 1
    dt1 = h * rng.uniform(0.1, 0.4, K)
    dt2 = np.where(counts >= 2, h * rng.uniform(0.5, 0.9, K), 0.0)
    w = rng.standard_normal((3, K, m)) * np.sqrt(h)[:, None]
    return JumpRecords(
        rows=np.asarray(keys, dtype=np.intp),
        counts=counts.astype(np.int64),
        dt1=dt1,
        reg1=rng.integers(1, m0 + 1, K),
        w1=w[0],
        dt2=dt2,
        reg2=rng.integers(1, m0 + 1, K),
        w2=np.where((counts >= 2)[:, None], w[1], 0.0),
        w3=np.where((counts >= 3)[:, None], w[2], 0.0),
    )


def march_inputs(model, P, n, seed=3):
    rng = np.random.default_rng(seed)
    m = model.m
    hs = (0.5 + rng.random(n)) / n
    g = rng.standard_normal((2, P, n, m))
    dw = np.sqrt(hs)[None, :, None] * g[0]
    dz = hs[None, :, None] ** 1.5 * (0.5 * g[0] + (0.5 / np.sqrt(3.0)) * g[1])
    y0 = np.tile(model.x0, (P, 1)) * (1.0 + 0.1 * rng.standard_normal((P, model.d)))
    regimes = rng.integers(1, model.m0 + 1, (P, n))
    # a switch in the first and in the last step of a block, on both sides
    # of each block edge, and in the grid's last step
    block = max(1, WEIGHT_BLOCK_ROWS // P)
    steps = {0, n - 1} | {k for edge in range(block, n, block) for k in (edge - 1, edge)}
    table = planted_table(P, sorted(steps), model.m0, m, hs, rng)
    return y0, regimes, hs, dw, dz, table


@pytest.mark.parametrize("P, n", [(1, 150), (3, 150), (65, 7)])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", fixture_names())
def test_march_equals_direct_kernel_calls_bit_for_bit(name, scheme, P, n):
    """Block weights, the one record search and the per-step checks leave
    every state as stepping the registered kernel with its seven
    positional arguments computes it."""
    model = fixture(name)
    coeffs = model.coefficients
    info = SCHEMES[scheme]
    y0, regimes, hs, dw, dz, table = march_inputs(model, P, n)
    want = []
    y = y0
    with np.errstate(all="ignore"):
        for k in range(n):
            lo, hi = np.searchsorted(table.rows, (k * P, (k + 1) * P))
            jumps = table._between(int(lo), int(hi), k * P)
            y = info.kernel(coeffs, y, regimes[:, k], hs[k], dw[:, k], dz[:, k], jumps)
            if not np.isfinite(y).all():
                break
            want.append(y)
        got = []
        steps = march(info, coeffs, y0, regimes, hs, dw, dz, table)
        if len(want) == n:
            got = [y.copy() for _, y in steps]
        else:
            # the direct calls left the finite range: march stops there
            bad_row = int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0])
            with pytest.raises(NonFiniteState) as caught:
                got.extend(y.copy() for _, y in steps)
            assert (caught.value.step, caught.value.row) == (len(want), bad_row)
    assert len(got) == len(want) > 0
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("P", [1, 3, 65])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_march_finiteness_test_reads_entries_not_sums(scheme, P):
    """Finite entries pass however large their sum, and the first
    non-finite entry stops march at its own step and row."""
    # regime 2 drifts infinitely fast; zero noise leaves regime 1 at rest
    coeffs = DiagonalLinearCoefficients(a=[[0.0, 0.0], [np.inf, 0.0]], c=[[0.0, 0.0]] * 2)
    n = 9
    y0 = np.full((P, 2), 1.5e308)
    regimes = np.ones((P, n), dtype=np.int64)
    hs = np.full(n, 1.0 / n)
    dw = np.zeros((P, n, 2))
    info = SCHEMES[scheme]
    states = [y.copy() for _, y in march(info, coeffs, y0, regimes, hs, dw, dw, None)]
    assert len(states) == n
    assert np.stack(states).tobytes() == np.stack([y0] * n).tobytes()
    # the first bad step holds two bad rows, a later step a lower one
    regimes[P // 2 :, 5] = 2
    regimes[0, 7] = 2
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState) as caught:
        for _ in march(info, coeffs, y0, regimes, hs, dw, dw, None):
            pass
    assert (caught.value.step, caught.value.row) == (5, P // 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_weights_equal_per_step_weights(m):
    rng = np.random.default_rng(m)
    P, S = 4, 5
    dw = rng.standard_normal((P, S, m))
    dz = rng.standard_normal((P, S, m))
    h = 0.01 + rng.random(S)
    pair = _pair_weight(dw, h[None, :, None])
    triple = _triple_weight(dw, h[None, :, None])
    block = SCHEMES["taylor15"].weights(h[None, :], dw, dz)
    for s in range(S):
        assert pair[:, s].tobytes() == _pair_weight(dw[:, s], h[s]).tobytes()
        assert triple[:, s].tobytes() == _triple_weight(dw[:, s], h[s]).tobytes()
        step = SCHEMES["taylor15"].weights(h[s], dw[:, s], dz[:, s])
        for part, want in zip(block, step):
            assert part[:, s].tobytes() == want.tobytes()
    assert SCHEMES["milstein"].weights(h[None, :], dw, dz)[0].tobytes() == pair.tobytes()
    assert SCHEMES["euler"].weights(h[None, :], dw, dz) == ()


class TestMarchInputs:
    def inputs(self):
        model = fixture("diagonal3")
        y0, regimes, hs, dw, dz, table = march_inputs(model, 2, 4)
        return model.coefficients, dict(
            y0=y0, regimes=regimes, hs=hs, dw=dw, dz=dz, table=table
        )

    def call(self, coeffs, args):
        return march(SCHEMES["taylor15"], coeffs, **args)

    @pytest.mark.parametrize(
        "name, cut, want",
        [
            ("y0", lambda a: a[:1], "y0 has shape (1, 2), expected (2, 2)"),
            ("hs", lambda a: a[:-1], "hs has shape (3,), expected (4,)"),
            ("dw", lambda a: a[:, :-1], "dw has shape (2, 3, 2), expected (2, 4, 2)"),
            ("dz", lambda a: a[..., :1], "dz has shape (2, 4, 1), expected (2, 4, 2)"),
            ("regimes", lambda a: a[0], "regimes has shape (4,), expected (P, n)"),
        ],
    )
    def test_a_shape_mismatch_is_named_before_any_step(self, name, cut, want):
        coeffs, args = self.inputs()
        args[name] = cut(args[name])
        with pytest.raises(DimensionMismatch, match=re.escape(want)):
            self.call(coeffs, args)

    @pytest.mark.parametrize("where", ["regimes", "reg1", "reg2"])
    def test_a_regime_label_below_1_is_refused(self, where):
        coeffs, args = self.inputs()
        if where == "regimes":
            args["regimes"][1, 2] = 0
        else:
            labels = getattr(args["table"], where).copy()
            labels[-1] = 0
            args["table"] = replace(args["table"], **{where: labels})
        with pytest.raises(UnknownRegime, match="got 0"):
            self.call(coeffs, args)

    def test_valid_inputs_step_and_an_empty_grid_yields_nothing(self):
        coeffs, args = self.inputs()
        assert [n for n, _ in self.call(coeffs, args)] == [0, 1, 2, 3]
        args.update(
            regimes=args["regimes"][:, :0],
            hs=args["hs"][:0],
            dw=args["dw"][:, :0],
            dz=args["dz"][:, :0],
            table=None,
        )
        assert list(self.call(coeffs, args)) == []
