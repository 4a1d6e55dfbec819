"""Operator actions, operator words on single entries, and the built-in fixtures."""

import pickle

import numpy as np
import pytest

from switchtaylor import (
    CallableCoefficients,
    CoefficientSet,
    DiagonalLinearCoefficients,
    DimensionMismatch,
    GeneratorMatrix,
    ModelSpec,
    NonFiniteInput,
    UnknownFixture,
    UnknownRegime,
    check_commutativity,
    check_jet_order,
    fixture,
    fixture_names,
    op_noise_diffusion,
    op_noise_drift,
    op_noise_noise_diffusion,
    op_time_diffusion,
    op_time_drift,
)
from switchtaylor.model import _noise_diffusion


LIN = fixture("linear2")
A_RATES = (-1.0, 0.5)
C_RATES = (0.3, 0.8)


def batch(x, regime):
    return np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_1d(regime)


class TestScalarLinearOperators:
    """Every operator action has a closed form under scalar linear rates."""

    @pytest.mark.parametrize("regime", [1, 2])
    @pytest.mark.parametrize("x", [1.7, -0.4, 0.0])
    def test_closed_forms(self, x, regime):
        a = A_RATES[regime - 1]
        c = C_RATES[regime - 1]
        X, R = batch([x], regime)
        co = LIN.coefficients
        assert co.drift(X, R)[0, 0] == pytest.approx(a * x, abs=1e-15)
        assert co.diffusion(X, R)[0, 0, 0] == pytest.approx(c * x, abs=1e-15)
        assert op_time_drift(co, X, R)[0, 0] == pytest.approx(a * a * x, abs=1e-14)
        assert op_noise_drift(co, X, R)[0, 0, 0] == pytest.approx(a * c * x, abs=1e-14)
        assert op_time_diffusion(co, X, R)[0, 0, 0] == pytest.approx(a * c * x, abs=1e-14)
        assert op_noise_diffusion(co, X, R)[0, 0, 0, 0] == pytest.approx(
            c * c * x, abs=1e-14
        )
        assert op_noise_noise_diffusion(co, X, R)[0, 0, 0, 0, 0] == pytest.approx(
            c * c * c * x, abs=1e-14
        )

    def test_split_operator_regime(self):
        # operator coefficients at regime 1, target entry at regime 2
        x = 1.3
        X, R = batch([x], 2)
        dsig = LIN.coefficients.jet(X, R, 1)[3]
        sig_op = LIN.coefficients.jet(X, np.array([1]), 0)[1]
        got = _noise_diffusion(dsig, sig_op)
        assert got[0, 0, 0, 0] == pytest.approx(C_RATES[0] * C_RATES[1] * x, abs=1e-14)

    def test_batched_rows_are_independent(self):
        X = np.array([[1.7], [1.7]])
        R = np.array([1, 2])
        got = op_noise_diffusion(LIN.coefficients, X, R)
        assert got[0, 0, 0, 0] == pytest.approx(0.09 * 1.7)
        assert got[1, 0, 0, 0] == pytest.approx(0.64 * 1.7)


class TestApplyWord:
    """The operator word of an integral label applied to one coefficient
    entry, read off the operator tensors: the empty word is the entry, (0)
    and (a) are the time and noise operators, and (a1, a2), inner letter a2
    acting first, is entry [.., k, j, a2, a1] of ``op_noise_noise_diffusion``."""

    def test_empty_word_returns_value(self):
        assert LIN.coefficients.jet(*batch([2.0], 2), 0)[0][0, 0] == pytest.approx(1.0)
        assert LIN.coefficients.jet(*batch([2.0], 1), 0)[1][0, 0, 0] == pytest.approx(0.6)

    def test_time_and_noise_letters(self):
        x = 0.9
        co = LIN.coefficients
        at1, at2 = batch([x], 1), batch([x], 2)
        assert op_time_drift(co, *at2)[0, 0] == pytest.approx(0.25 * x)
        assert op_noise_drift(co, *at2)[0, 0, 0] == pytest.approx(0.4 * x)
        assert op_time_diffusion(co, *at1)[0, 0, 0] == pytest.approx(-0.3 * x)
        assert op_noise_diffusion(co, *at1)[0, 0, 0, 0] == pytest.approx(0.09 * x)
        assert op_noise_noise_diffusion(co, *at2)[0, 0, 0, 0, 0] == pytest.approx(0.512 * x)

    def test_word_order_matters_without_commutativity(self):
        # columns (x^2, x): applying column-2 then column-1 gives 4x^3,
        # the reverse order gives 6x^3
        mod = fixture("noncommutative")
        x = 0.8
        tensor = op_noise_noise_diffusion(mod.coefficients, *batch([x], 1))
        inner_second, inner_first = tensor[0, 0, 0, 1, 0], tensor[0, 0, 0, 0, 1]
        assert inner_second == pytest.approx(4.0 * x**3, rel=1e-12)
        assert inner_first == pytest.approx(6.0 * x**3, rel=1e-12)
        assert inner_second != pytest.approx(inner_first)


class _CurvedAnalytic(CoefficientSet):
    """Hand-differentiated nonlinear pair used as the finite-difference oracle.

    b = g * (sin x1, x1 x2), sigma = g * [[cos x2, x1^2], [x2, exp(x1/2)]]
    with g = regime label.
    """

    d = 2
    m = 2

    def jet(self, X, regimes, order):
        check_jet_order(order)
        g = np.asarray(regimes, dtype=float)
        B = X.shape[0]
        x1, x2 = X[:, 0], X[:, 1]
        sig = np.empty((B, 2, 2))
        sig[:, 0, 0] = np.cos(x2)
        sig[:, 0, 1] = x1**2
        sig[:, 1, 0] = x2
        sig[:, 1, 1] = np.exp(x1 / 2)
        out = [np.stack([np.sin(x1), x1 * x2], axis=1), sig]
        if order >= 1:
            db = np.zeros((B, 2, 2))
            db[:, 0, 0] = np.cos(x1)
            db[:, 1, 0] = x2
            db[:, 1, 1] = x1
            dsig = np.zeros((B, 2, 2, 2))
            dsig[:, 0, 0, 1] = -np.sin(x2)
            dsig[:, 0, 1, 0] = 2 * x1
            dsig[:, 1, 0, 1] = 1.0
            dsig[:, 1, 1, 0] = 0.5 * np.exp(x1 / 2)
            out += [db, dsig]
        if order == 2:
            hb = np.zeros((B, 2, 2, 2))
            hb[:, 0, 0, 0] = -np.sin(x1)
            hb[:, 1, 0, 1] = 1.0
            hb[:, 1, 1, 0] = 1.0
            hsig = np.zeros((B, 2, 2, 2, 2))
            hsig[:, 0, 0, 1, 1] = -np.cos(x2)
            hsig[:, 0, 1, 0, 0] = 2.0
            hsig[:, 1, 1, 0, 0] = 0.25 * np.exp(x1 / 2)
            out += [hb, hsig]
        return tuple(g.reshape((B,) + (1,) * (part.ndim - 1)) * part for part in out)


class TestFiniteDifferenceFallback:
    def setup_method(self):
        self.exact = _CurvedAnalytic()
        self.fd = CallableCoefficients(
            drift_fn=lambda x, r: r * np.array([np.sin(x[0]), x[0] * x[1]]),
            diffusion_fn=lambda x, r: r
            * np.array([[np.cos(x[1]), x[0] ** 2], [x[1], np.exp(x[0] / 2)]]),
            d=2,
            m=2,
        )
        self.X = np.array([[0.3, -0.7], [1.1, 0.4], [-0.6, 1.9]])
        self.R = np.array([1, 2, 2])

    def test_values_match_exactly(self):
        np.testing.assert_allclose(
            self.fd.drift(self.X, self.R), self.exact.drift(self.X, self.R)
        )
        np.testing.assert_allclose(
            self.fd.diffusion(self.X, self.R), self.exact.diffusion(self.X, self.R)
        )

    def test_first_derivatives(self):
        np.testing.assert_allclose(
            self.fd.drift_gradient(self.X, self.R),
            self.exact.drift_gradient(self.X, self.R),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            self.fd.diffusion_gradient(self.X, self.R),
            self.exact.diffusion_gradient(self.X, self.R),
            atol=1e-9,
        )

    def test_second_derivatives(self):
        np.testing.assert_allclose(
            self.fd.drift_hessian(self.X, self.R),
            self.exact.drift_hessian(self.X, self.R),
            atol=2e-5,
        )
        np.testing.assert_allclose(
            self.fd.diffusion_hessian(self.X, self.R),
            self.exact.diffusion_hessian(self.X, self.R),
            atol=2e-5,
        )

    def test_operator_tensors_agree(self):
        got = op_noise_noise_diffusion(self.fd, self.X, self.R)
        want = op_noise_noise_diffusion(self.exact, self.X, self.R)
        np.testing.assert_allclose(got, want, atol=5e-4)


class TestCommutativityProbe:
    def test_scalar_and_diagonal_models_pass(self):
        for name in ("linear2", "diagonal3", "additive"):
            report = check_commutativity(fixture(name))
            assert report.first_order_gap <= 1e-12, name
            assert report.second_order_gap <= 1e-12, name
            assert report.satisfied(order=2)

    def test_polynomial_columns_fail(self):
        report = check_commutativity(fixture("noncommutative"))
        assert report.first_order_gap > 0.1
        assert not report.satisfied(order=1)
        assert not report.satisfied(order=2)
        assert report.satisfied(order=0)

    def test_adversarial_gap_value(self):
        # at x the two first-order combinations are 2x^2 and x^2
        mod = fixture("noncommutative")
        report = check_commutativity(mod, points=np.array([[2.0]]))
        assert report.first_order_gap == pytest.approx(4.0)
        assert report.points_checked == 2

    def test_rejects_nonfinite_points(self):
        with pytest.raises(NonFiniteInput):
            check_commutativity(LIN, points=np.array([[np.nan]]))

    def test_rejects_wrong_sized_points(self):
        mod = fixture("diagonal3")
        for shape in [(1, 3), (2, 3), (4,), (0, 2)]:
            with pytest.raises(DimensionMismatch, match=r"expected \(n, 2\)"):
                check_commutativity(mod, points=np.ones(shape))


class TestModelValidation:
    def test_eval_helpers(self):
        b, sig = LIN.coefficients.jet(np.array([[2.0], [2.0]]), np.array([1, 2]), 0)
        assert b[0, 0] == pytest.approx(-2.0)
        assert sig[1, 0, 0] == pytest.approx(1.6)

    def test_bad_inputs(self):
        # a point and a regime label enter a model only as its start values
        gen, co = LIN.generator, LIN.coefficients
        with pytest.raises(NonFiniteInput):
            ModelSpec("bad", gen, co, x0=[np.nan])
        for regime in (0, 1.5, True):
            with pytest.raises(UnknownRegime, match="initial regime"):
                ModelSpec("bad", gen, co, x0=[1.0], initial_regime=regime)

    def test_model_spec_guards(self):
        gen = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        co = LIN.coefficients
        with pytest.raises(DimensionMismatch, match="2 entries, coefficients expect 1"):
            ModelSpec("bad", gen, co, x0=[1.0, 2.0])
        with pytest.raises(NonFiniteInput):
            ModelSpec("bad", gen, co, x0=[np.inf])
        with pytest.raises(UnknownRegime):
            ModelSpec("bad", gen, co, x0=[1.0], initial_regime=3)

    def test_rate_tables_must_cover_every_regime(self):
        three = GeneratorMatrix(np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
        with pytest.raises(DimensionMismatch, match="all 3 regimes"):
            ModelSpec("short", three, LIN.coefficients, x0=[1.0])

    def test_coefficient_shapes_checked_at_x0(self):
        class FlatDiffusion(CoefficientSet):
            d, m = 1, 1

            def jet(self, X, regimes, order):
                return -X, 0.5 * X  # diffusion (B, d), missing the Wiener axis

        with pytest.raises(DimensionMismatch, match=r"\(2, 1\) and \(2, 1\), expected"):
            ModelSpec("flat", LIN.generator, FlatDiffusion(), x0=[1.0])
        two_columns = CallableCoefficients(lambda x, r: -x, lambda x, r: [x[0], x[0]], 1, 1)
        with pytest.raises(DimensionMismatch, match="returned 2 values, expected shape"):
            ModelSpec("callable", LIN.generator, two_columns, x0=[1.0])

    def test_the_base_coefficient_set_has_no_jet(self):
        with pytest.raises(NotImplementedError):
            CoefficientSet().jet(np.ones((1, 1)), np.array([1]), 0)

    def test_diagonal_tables_must_share_shape(self):
        with pytest.raises(DimensionMismatch, match="share shape"):
            DiagonalLinearCoefficients(a=[[1.0, 2.0]], c=[[1.0, 2.0, 3.0]])

    def test_fixture_registry(self):
        assert fixture_names() == ("additive", "diagonal3", "linear2", "noncommutative")
        with pytest.raises(UnknownFixture):
            fixture("does-not-exist")
        mod = fixture("diagonal3")
        assert (mod.d, mod.m, mod.m0) == (2, 2, 3)

    def test_fixtures_pickle_round_trip(self):
        for name in fixture_names():
            mod = fixture(name)
            clone = pickle.loads(pickle.dumps(mod))
            X = np.array([[0.4] * mod.d, [1.2] * mod.d])
            R = np.array([1, mod.m0])
            np.testing.assert_array_equal(
                clone.coefficients.diffusion(X, R), mod.coefficients.diffusion(X, R)
            )
            assert clone.initial_regime == mod.initial_regime
