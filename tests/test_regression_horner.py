"""Polynomial regression + AIC selection + Horner-form evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.core.horner import (
    HornerPolynomial,
    OpCount,
    horner_mult_count,
    naive_evaluate,
    naive_mult_count,
)
from repro.core.regression import (
    PolynomialModel,
    aic_score,
    design_matrix,
    fit_best_polynomial,
    fit_polynomial,
    monomial_exponents,
)


class TestMonomials:
    def test_counts(self):
        # degree-d polynomial in k vars has C(k+d, d) terms
        assert len(monomial_exponents(1, 3)) == 4
        assert len(monomial_exponents(2, 2)) == 6
        assert len(monomial_exponents(3, 2)) == 10

    def test_constant_first(self):
        assert monomial_exponents(2, 2)[0] == (0, 0)

    def test_invalid_args(self):
        with pytest.raises(ModelError):
            monomial_exponents(0, 2)
        with pytest.raises(ModelError):
            monomial_exponents(2, -1)

    def test_design_matrix_values(self):
        exps = [(0, 0), (1, 0), (0, 1), (1, 1)]
        x = np.array([[2.0, 3.0]])
        a = design_matrix(x, exps)
        assert a.tolist() == [[1.0, 2.0, 3.0, 6.0]]


class TestFitting:
    def test_recovers_exact_polynomial(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, (60, 2))
        y = 3.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1] + 0.25 * x[:, 0] * x[:, 1]
        model = fit_polynomial(x, y, degree=2)
        assert model.rss < 1e-12
        assert model.predict_one(4.0, 6.0) == pytest.approx(
            3 + 8 - 3 + 0.25 * 24, rel=1e-9)

    def test_aic_selects_true_degree(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.01, 0.5, (120, 1))
        y = 0.5 + 13.0 * x[:, 0] + rng.normal(0, 1e-4, 120)
        model = fit_best_polynomial(x, y, max_degree=7)
        assert model.degree <= 2  # linear truth; AICc must not pick 7

    def test_degree_needs_enough_samples(self):
        x = np.arange(4, dtype=float).reshape(-1, 1)
        with pytest.raises(ModelError):
            fit_polynomial(x, np.ones(4), degree=7)

    def test_best_fit_skips_infeasible_degrees(self):
        x = np.arange(5, dtype=float).reshape(-1, 1)
        y = 2 * x[:, 0] + 1
        model = fit_best_polynomial(x, y, max_degree=7)
        assert model.n_params <= 5

    def test_no_feasible_degree_raises(self):
        x = np.ones((1, 3))
        with pytest.raises(ModelError):
            fit_best_polynomial(x, np.ones(1), min_degree=2, max_degree=3)

    def test_sample_count_mismatch(self):
        with pytest.raises(ModelError):
            fit_polynomial(np.ones((3, 1)), np.ones(4), degree=1)

    def test_predict_batch_shape(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        model = fit_polynomial(x, x[:, 0] ** 2, degree=2)
        out = model.predict(np.array([[1.0], [2.0], [3.0]]))
        assert out.shape == (3,)
        assert out == pytest.approx([1, 4, 9], abs=1e-6)

    def test_serialization_roundtrip(self):
        x = np.arange(30, dtype=float).reshape(-1, 1)
        model = fit_polynomial(x, 5 * x[:, 0] + 2, degree=1)
        clone = PolynomialModel.from_dict(model.to_dict())
        assert clone.predict_one(17.0) == pytest.approx(model.predict_one(17.0))

    def test_large_scale_inputs_stable(self):
        """Pixel-scale inputs (w, h in thousands) at degree 7 must not
        blow up numerically — the scale normalization handles it."""
        rng = np.random.default_rng(2)
        x = rng.uniform(100, 4000, (200, 2))
        y = 1e-3 * x[:, 0] * x[:, 1]
        model = fit_polynomial(x, y, degree=7)
        pred = model.predict_one(2048.0, 2048.0)
        assert pred == pytest.approx(1e-3 * 2048 * 2048, rel=1e-3)


class TestAic:
    def test_penalizes_parameters(self):
        assert aic_score(1.0, 100, 3) < aic_score(1.0, 100, 10)

    def test_rewards_fit(self):
        assert aic_score(0.1, 100, 3) < aic_score(10.0, 100, 3)

    def test_zero_rss_guarded(self):
        assert np.isfinite(aic_score(0.0, 10, 2))

    def test_invalid_n(self):
        with pytest.raises(ModelError):
            aic_score(1.0, 0, 1)


class TestHorner:
    def _random_model(self, seed, n_vars, degree):
        rng = np.random.default_rng(seed)
        exps = monomial_exponents(n_vars, degree)
        return PolynomialModel(
            n_vars=n_vars, degree=degree, exponents=exps,
            coefficients=rng.normal(0, 1, len(exps)),
            scale=np.ones(n_vars),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=5),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3))
    def test_horner_equals_naive(self, seed, n_vars, degree, point):
        model = self._random_model(seed, n_vars, degree)
        h = HornerPolynomial(model)
        args = point[:n_vars]
        assert h.evaluate(*args) == pytest.approx(
            naive_evaluate(model, *args), rel=1e-9, abs=1e-9)

    def test_horner_equals_lstsq_predict(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 5, (50, 2))
        y = 1 + x[:, 0] ** 2 + 3 * x[:, 1]
        model = fit_polynomial(x, y, degree=3)
        h = HornerPolynomial(model)
        for pt in x[:5]:
            assert h.evaluate(*pt) == pytest.approx(
                float(model.predict(pt[None])[0]), rel=1e-6)

    def test_fewer_multiplications_than_naive(self):
        model = self._random_model(4, 2, 7)
        h = HornerPolynomial(model)
        assert horner_mult_count(h) < naive_mult_count(model)

    def test_univariate_degree_n_uses_n_mults(self):
        model = self._random_model(5, 1, 7)
        assert horner_mult_count(HornerPolynomial(model)) == 7

    def test_wrong_arity_raises(self):
        model = self._random_model(6, 2, 2)
        with pytest.raises(ModelError):
            HornerPolynomial(model).evaluate(1.0)
        with pytest.raises(ModelError):
            naive_evaluate(model, 1.0)

    def test_op_counting(self):
        model = self._random_model(7, 1, 3)
        count = OpCount()
        HornerPolynomial(model).evaluate(2.0, count=count)
        assert count.mults == 3 and count.adds == 3

    def test_float_path_is_bit_identical_on_every_fitted_model(self):
        """Pricing evaluates on Python floats; the ``OpCount`` path keeps
        the recursive numpy walk.  Every fitted (platform, subsampling)
        model must read the same to the last bit on both, over the sizes
        and densities the scheduler prices."""
        from repro.core.decoder import HeterogeneousDecoder
        from repro.core.horner import _eval
        from repro.evaluation import platforms
        from repro.kernels.program import KERNEL_SUBSAMPLINGS

        rng = np.random.default_rng(11)
        widths = [1, 16, 96, 160, 320, 640, 1024, 4096, *rng.integers(
            1, 8192, 12).tolist()]
        densities = [0.0, 0.05, 0.3, 1.7, *rng.uniform(0, 3, 12).tolist()]
        fits = ("huff_rate_fit", "cpu_simd_fit", "cpu_seq_fit", "gpu_fit",
                "disp_fit")
        checked = 0
        for plat in platforms.ALL_PLATFORMS:
            decoder = HeterogeneousDecoder.for_platform(plat)
            for sub in KERNEL_SUBSAMPLINGS:
                model = decoder.model_for(sub)
                for name in fits:
                    fit = getattr(model, name)
                    poly = HornerPolynomial(fit)
                    points = ([(d,) for d in densities] if fit.n_vars == 1
                              else [(w, h) for w in widths for h in widths])
                    for point in points:
                        x = np.asarray(point, dtype=np.float64) / fit.scale
                        want = _eval(poly._root, x, None)
                        got = poly.evaluate(*point)
                        assert type(got) is float
                        assert got.hex() == want.hex(), (
                            plat.name, sub, name, point)
                        checked += 1
        assert checked > 6000
