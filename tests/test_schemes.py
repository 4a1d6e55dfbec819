"""One-step maps: closed-form oracles, switch corrections, degeneration."""

import io

import numpy as np
import pytest

from switchtaylor import (
    ChainPath,
    CommutativityRequired,
    GeneratorMatrix,
    GridSpec,
    IntervalOutOfRange,
    InvalidGrid,
    ModelSpec,
    NonFiniteState,
    NotAGridTime,
    ScalarLinearCoefficients,
    UnknownScheme,
    build_noise,
    fixture,
)
from switchtaylor.schemes import (
    SCHEMES,
    JumpData,
    Trajectory,
    build_step_window,
    get_scheme,
    integrate,
    jump_records,
    step_euler,
    step_milstein,
    step_taylor15,
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
    coefficients=ScalarLinearCoefficients(a=[-1.0, 0.5, 0.2], c=[0.3, 0.8, 0.5]),
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
        self.win = build_step_window(self.chain, self.noise, 0.0, 0.125)
        self.dw = float(self.win.dw[0])
        self.dz = float(self.win.dz[0])
        self.y = 1.3

    def test_window_contents(self):
        assert self.win.h == pytest.approx(0.125)
        assert self.win.regime == 1
        assert self.win.jumps is None

    def test_euler(self):
        got = step_euler(LIN, [self.y], self.win)[0]
        assert got == pytest.approx(euler_scalar(self.y, A1, C1, 0.125, self.dw), rel=1e-14)

    def test_milstein(self):
        got = step_milstein(LIN, [self.y], self.win)[0]
        want = milstein_scalar(self.y, A1, C1, 0.125, self.dw)
        assert got == pytest.approx(want, rel=1e-14)

    def test_taylor15(self):
        got = step_taylor15(LIN, [self.y], self.win)[0]
        want = taylor15_scalar(self.y, A1, C1, 0.125, self.dw, self.dz)
        assert got == pytest.approx(want, rel=1e-14)


class TestSingleSwitchCorrections:
    def setup_method(self):
        self.chain = crafted_chain([0.4], [2])
        self.noise = noise_for(self.chain)
        self.win = build_step_window(self.chain, self.noise, 0.25, 0.5)
        self.h = 0.25
        self.dw = float(self.win.dw[0])
        self.dz = float(self.win.dz[0])
        self.w1 = self.noise.w_at(0.4, 1) - self.noise.w_at(0.25, 1)
        self.tail = self.dw - self.w1
        self.y = 0.9

    def test_window_records_the_switch(self):
        j = self.win.jumps
        assert j is not None
        assert j.counts.tolist() == [1]
        assert j.reg1.tolist() == [2]
        assert j.dt1[0] == pytest.approx(0.15)
        assert j.w1[0, 0] == pytest.approx(self.w1, rel=1e-15)

    def test_milstein_switch_term(self):
        got = step_milstein(LIN, [self.y], self.win)[0]
        want = milstein_scalar(self.y, A1, C1, self.h, self.dw)
        want += (C2 - C1) * self.y * self.tail
        assert got == pytest.approx(want, rel=1e-13)

    def test_taylor15_switch_terms(self):
        got = step_taylor15(LIN, [self.y], self.win)[0]
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
        got = step_euler(LIN, [self.y], self.win)[0]
        assert got == pytest.approx(euler_scalar(self.y, A1, C1, self.h, self.dw), rel=1e-14)


class TestDoubleAndManySwitches:
    def test_two_switches_correct_each_stretch(self):
        chain = crafted_chain([0.3, 0.45], [2, 3])
        noise = noise_for(chain, seed=11)
        win = build_step_window(chain, noise, 0.25, 0.5)
        dw = float(win.dw[0])
        dz = float(win.dz[0])
        w1 = noise.w_at(0.3, 1) - noise.w_at(0.25, 1)
        w2 = noise.w_at(0.45, 1) - noise.w_at(0.25, 1)
        y = 1.1
        a1, c1, a2, c2, c3 = -1.0, 0.3, 0.5, 0.8, 0.5
        got = step_milstein(SCALAR3, [y], win)[0]
        want = milstein_scalar(y, a1, c1, 0.25, dw)
        want += (c2 - c1) * y * (w2 - w1)
        assert got == pytest.approx(want, rel=1e-13)
        got = step_taylor15(SCALAR3, [y], win)[0]
        want = taylor15_scalar(y, a1, c1, 0.25, dw, dz)
        want += stretch_terms_scalar(y, a1, c1, a2, c2, w1, w2 - w1, 0.45 - 0.3)
        want += (c3 - c1) * y * (dw - w2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_return_to_start_cancels_second_switch_term(self):
        # two-state chain returning to its start regime: the second-switch
        # difference telescopes to zero, leaving the middle-stretch terms
        chain = crafted_chain([0.3, 0.45], [2, 1])
        noise = noise_for(chain, seed=3)
        win = build_step_window(chain, noise, 0.25, 0.5)
        w1 = noise.w_at(0.3, 1) - noise.w_at(0.25, 1)
        w2 = noise.w_at(0.45, 1) - noise.w_at(0.25, 1)
        y = 1.1
        got = step_taylor15(LIN, [y], win)[0]
        want = taylor15_scalar(y, A1, C1, 0.25, float(win.dw[0]), float(win.dz[0]))
        want += stretch_terms_scalar(y, A1, C1, A2, C2, w1, w2 - w1, 0.45 - 0.3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_three_switches_cap_the_corrections(self):
        chain = crafted_chain([0.27, 0.33, 0.48], [2, 3, 1])
        noise = noise_for(chain, seed=5)
        win = build_step_window(chain, noise, 0.25, 0.5)
        assert win.jumps.counts.tolist() == [3]
        w1 = noise.w_at(0.27, 1) - noise.w_at(0.25, 1)
        w2 = noise.w_at(0.33, 1) - noise.w_at(0.25, 1)
        w3 = noise.w_at(0.48, 1) - noise.w_at(0.25, 1)
        dw, dz = float(win.dw[0]), float(win.dz[0])
        y = 0.7
        a1, c1, a2, c2, c3 = -1.0, 0.3, 0.5, 0.8, 0.5
        got = step_euler(SCALAR3, [y], win)[0]
        assert got == pytest.approx(euler_scalar(y, a1, c1, 0.25, dw), rel=1e-13)
        got = step_milstein(SCALAR3, [y], win)[0]
        want = milstein_scalar(y, a1, c1, 0.25, dw)
        want += (c2 - c1) * y * (w2 - w1)
        assert got == pytest.approx(want, rel=1e-13)
        # the third switch caps the second-switch stretch; nothing runs past it
        got = step_taylor15(SCALAR3, [y], win)[0]
        want = taylor15_scalar(y, a1, c1, 0.25, dw, dz)
        want += stretch_terms_scalar(y, a1, c1, a2, c2, w1, w2 - w1, 0.33 - 0.27)
        want += (c3 - c1) * y * (w3 - w2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_switch_on_right_edge_contributes_nothing(self):
        chain = crafted_chain([0.5], [2])
        noise = noise_for(chain, seed=9)
        win = build_step_window(chain, noise, 0.25, 0.5)
        assert win.jumps is not None and win.jumps.counts.tolist() == [1]
        y = 1.4
        got = step_taylor15(LIN, [y], win)[0]
        want = taylor15_scalar(y, A1, C1, 0.25, float(win.dw[0]), float(win.dz[0]))
        assert got == pytest.approx(want, rel=1e-13)
        # and the regime for the NEXT window has already switched
        assert build_step_window(chain, noise, 0.5, 0.75).regime == 2


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
            noise.w_at(0.45, 1) - noise.w_at(0.25, 1), rel=1e-15
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
        assert rec.at_step(0) is None


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
        jumps = JumpData(
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
                sub = JumpData(
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
            coefficients=ScalarLinearCoefficients(a=[-0.8], c=[0.45]),
            x0=[1.0],
        )
        self.chain = crafted_chain([], [])
        self.noise = noise_for(self.chain, seed=21, base_steps=8)
        self.times = GridSpec(0.0, 1.0, 8).finest_times()

    def _increments(self, n):
        s, t = self.times[n], self.times[n + 1]
        return (
            self.noise.increment_w(s, t, 1),
            self.noise.time_integral_w(s, t, 1),
        )

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
        win = build_step_window(chain, noise, 0.0, 0.125)
        with pytest.raises(CommutativityRequired):
            step_milstein(bad, [0.8], win)
        with pytest.raises(CommutativityRequired):
            step_taylor15(bad, [0.8], win)
        with pytest.raises(CommutativityRequired):
            integrate(bad, "milstein", chain, noise, noise.times[:: 16])
        # order 0.5 needs no identity
        step_euler(bad, [0.8], win)

    def test_diagonal_noise_passes_gate(self):
        mod = fixture("diagonal3")
        chain = ChainPath(0.0, 1.0, 1, np.array([0.6]), np.array([3]))
        noise = noise_for(chain, m=2, seed=13)
        traj = integrate(mod, "taylor15", chain, noise, GridSpec(0.0, 1.0, 8).finest_times())
        assert traj.states.shape == (9, 2)
        assert np.isfinite(traj.states).all()

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            get_scheme("heun")

    def test_nonfinite_state(self):
        mod = ModelSpec(
            name="explosive",
            generator=GeneratorMatrix(np.array([[0.0]])),
            coefficients=ScalarLinearCoefficients(a=[np.inf], c=[0.0]),
            x0=[1.0],
        )
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        win = build_step_window(chain, noise, 0.0, 0.125)
        with pytest.raises(NonFiniteState):
            step_euler(mod, [1.0], win)

    def test_integrate_grid_validation(self):
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        with pytest.raises(InvalidGrid):
            integrate(LIN, "euler", chain, noise, np.array([0.0]))
        with pytest.raises(InvalidGrid):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 0.5, 0.25]))
        with pytest.raises(IntervalOutOfRange):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 1.5]))
        with pytest.raises(NotAGridTime):
            integrate(LIN, "euler", chain, noise, np.array([0.0, 0.1, 1.0]))

    def test_step_window_validation(self):
        chain = crafted_chain([], [])
        noise = noise_for(chain)
        with pytest.raises(IntervalOutOfRange):
            build_step_window(chain, noise, 0.5, 0.5)
        with pytest.raises(NotAGridTime):
            build_step_window(chain, noise, 0.1, 0.5)


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
            coefficients=ScalarLinearCoefficients(a=[0.0, 0.0], c=[0.0, 0.0]),
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
        assert SCHEMES["taylor15"].uses_time_integrals
        assert not SCHEMES["euler"].uses_time_integrals
        assert [SCHEMES[s].commutativity_order for s in ("euler", "milstein", "taylor15")] == [
            0,
            1,
            2,
        ]
