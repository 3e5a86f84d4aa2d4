"""Posterior constructions: Gibbs identities and optimality, grid and model
selection, aggregation, single-draw certificates, the Gaussian variational
optimizer, and the online forecaster (including enumeration oracles)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacbayes import divergences, posteriors
from pacbayes.bounds import (
    BoundInput,
    bound_catoni_linear,
    bound_seeger_maurer,
    lambda_grid_geometric,
)
from pacbayes.divergences import (
    DiscreteDistribution,
    kl_discrete,
    kl_gaussian_diag,
    _gibbs_family,
    _kl_log_prior,
    _safe_log,
)
from pacbayes.posteriors import (
    ConstantSurrogate,
    GaussianQuadraticTask,
    LogisticSurrogate,
    OptimizationDiverged,
    QuadraticSurrogate,
    RiskTable,
    VariationalConfig,
    aggregate_prediction,
    ewa_eta_theorem,
    ewa_run,
    gibbs_posterior,
    minimize_bound_grid,
    model_select,
    optimize_gaussian_posterior,
    single_draw_certificate,
    _logistic_clipped,
)

from oracles import (
    TwoPassLogisticSurrogate,
    ewa_dp_max_regret,
    ewa_exhaustive_max_regret,
    ewa_run_loop,
    optimize_gaussian_posterior_loop,
    single_draw_by_hand,
)
from test_cli_golden import FIXTURES

RISKS3 = np.array([0.1, 0.2, 0.4])


def random_distribution(rng, m):
    return DiscreteDistribution.from_weights(rng.random(m) + 1e-3)


class TestRiskTable:
    def test_column_mean_consistency_enforced(self):
        losses = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        RiskTable(emp_risk=losses.mean(axis=0), n=3, C=1.0, losses=losses)
        with pytest.raises(ValueError):
            RiskTable(emp_risk=np.array([0.5, 0.5]), n=3, C=1.0, losses=losses)

    def test_entries_bounded_by_range(self):
        with pytest.raises(ValueError):
            RiskTable(emp_risk=np.array([0.5, 1.5]), n=3, C=1.0)
        with pytest.raises(ValueError):
            RiskTable(
                emp_risk=np.array([0.5]), n=2, C=1.0,
                losses=np.array([[2.0], [-1.0]]),
            )
        with pytest.raises(ValueError):
            RiskTable(emp_risk=np.array([0.5, math.nan]), n=3, C=1.0)
        with pytest.raises(ValueError):
            RiskTable(emp_risk=np.array([0.5]), n=2, C=1.0,
                      losses=np.array([[math.nan], [0.5]]))

    def test_sample_size_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            RiskTable(emp_risk=np.array([0.5, 0.4]), n=1.5, C=1.0)


class TestGibbsPosterior:
    def test_zero_temperature(self):
        pi = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
        out = gibbs_posterior(pi, RISKS3, 0.0)
        assert np.allclose(out.weights, pi.weights, atol=1e-15)

    def test_worked_weights(self):
        out = gibbs_posterior(DiscreteDistribution.uniform(3), RISKS3, 10.0)
        assert np.allclose(
            out.weights,
            [0.7053845126982411, 0.25949646034241913, 0.035119026959339716],
            atol=1e-12,
        )

    def test_constant_risks_leave_prior(self):
        pi = DiscreteDistribution(np.array([0.6, 0.1, 0.3]))
        out = gibbs_posterior(pi, np.full(3, 0.7), 25.0)
        assert np.allclose(out.weights, pi.weights, atol=1e-15)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        pi = random_distribution(rng, 8)
        r = rng.uniform(0, 1, 8)
        base = gibbs_posterior(pi, r, 7.0)
        shifted = gibbs_posterior(pi, r + 0.37, 7.0)
        assert np.max(np.abs(base.weights - shifted.weights)) <= 1e-12
        rescaled = gibbs_posterior(pi, 3.0 * r, 7.0 / 3.0)
        assert np.max(np.abs(base.weights - rescaled.weights)) <= 1e-12

    def test_weights_are_checked_once(self, monkeypatch):
        # _gibbs_weights checks the row; the distribution is built from it unchecked
        calls, pi, check = [], DiscreteDistribution.uniform(3), divergences._check_weights

        def counted(w):
            calls.append(w)
            check(w)

        monkeypatch.setattr(divergences, "_check_weights", counted)
        out = gibbs_posterior(pi, RISKS3, 10.0)
        assert len(calls) == 1
        assert not out.weights.flags.writeable
        # the public constructor still checks (see also TestDiscreteDistribution)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DiscreteDistribution(np.array([0.5, math.nan, 0.5]))
        assert len(calls) == 2

    def test_concentrates_on_erm(self):
        out = gibbs_posterior(DiscreteDistribution.uniform(3), RISKS3, 1e6)
        assert out.weights[0] >= 1 - 1e-6

    def test_minimizes_free_energy(self):
        # Gibbs is the unique minimizer of E_rho[r] + KL(rho||pi)/lam
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            pi = random_distribution(rng, m)
            r = rng.uniform(0, 1, m)
            lam = float(rng.uniform(0.5, 50))
            star = gibbs_posterior(pi, r, lam)
            obj_star = float(star.weights @ r) + kl_discrete(star, pi) / lam
            for _ in range(50):
                rho = random_distribution(rng, m)
                obj = float(rho.weights @ r) + kl_discrete(rho, pi) / lam
                assert obj >= obj_star - 1e-12


class TestMinimizeBoundGrid:
    def test_singleton_grid(self):
        pi = DiscreteDistribution.uniform(3)
        rt = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        rho, cert = minimize_bound_grid(pi, rt, [10.0], 0.05)
        direct = gibbs_posterior(pi, RISKS3, 10.0)
        assert np.allclose(rho.weights, direct.weights)
        emp = float(direct.weights @ RISKS3)
        expected = bound_catoni_linear(
            BoundInput(emp, kl_discrete(direct, pi), 100, 0.05), 10.0
        )
        assert cert.value == pytest.approx(expected.value, rel=1e-14)

    def test_matches_exhaustive_search(self):
        pi = DiscreteDistribution.uniform(3)
        rt = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        grid = lambda_grid_geometric(100)
        rho, cert = minimize_bound_grid(pi, rt, grid, 0.05)
        card = len(grid)
        values = []
        for lam in grid:
            g = gibbs_posterior(pi, RISKS3, float(lam))
            values.append(
                float(g.weights @ RISKS3)
                + lam / 800
                + (kl_discrete(g, pi) + math.log(card / 0.05)) / lam
            )
        assert cert.value == pytest.approx(min(values), rel=1e-13)
        assert cert.lam == pytest.approx(grid[int(np.argmin(values))])

    def test_returned_posterior_beats_random(self):
        rng = np.random.default_rng(3)
        pi = DiscreteDistribution.uniform(3)
        rt = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        grid = lambda_grid_geometric(100)
        rho, cert = minimize_bound_grid(pi, rt, grid, 0.05)
        lam = cert.lam
        card = len(grid)

        def objective(q):
            return (
                float(q.weights @ RISKS3)
                + lam / 800
                + (kl_discrete(q, pi) + math.log(card / 0.05)) / lam
            )

        for _ in range(100):
            assert objective(random_distribution(rng, 3)) >= objective(rho) - 1e-12

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            minimize_bound_grid(
                DiscreteDistribution.uniform(3),
                RiskTable(emp_risk=RISKS3, n=100, C=1.0),
                [],
                0.05,
            )


class TestGibbsFamily:
    """The blocked Gibbs family behind compare, the lambda grid and the oracle
    rho-infimum gives, row by row, the bits of the one-posterior path."""

    @staticmethod
    def fixture(name):
        doc = FIXTURES[name]
        return DiscreteDistribution.from_weights(doc["prior"]), np.asarray(doc["emp_risk"]), doc

    # full.json's prior has a zero mass; on noiseless.json the last lambda
    # drives every weight but the minimizer's to zero
    @pytest.mark.parametrize("name", ["full.json", "noiseless.json"])
    @pytest.mark.parametrize("block", [None, 1, 500], ids=["one_block", "row_blocks", "blocks"])
    def test_rows_match_the_one_posterior_path(self, name, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        pi, r, doc = self.fixture(name)
        lams = np.append(lambda_grid_geometric(doc["n"]), 2500.0)
        logpi = _safe_log(pi.weights)
        rows, emps, kls = (np.concatenate(c) for c in zip(*_gibbs_family(logpi, r, lams, logpi)))
        assert rows.shape == (lams.size, r.size)
        for lam, row, emp, kl in zip(lams, rows, emps, kls):
            rho = gibbs_posterior(pi, r, lam)
            assert row.tobytes() == rho.weights.tobytes()
            assert kl == _kl_log_prior(rho.weights, logpi)
            want = float(rho.weights @ r)
            assert abs(emp - want) <= 4 * math.ulp(want)
        if name == "noiseless.json":
            assert np.count_nonzero(rows[-1]) == 1

    @pytest.mark.parametrize("name", ["full.json", "noiseless.json"])
    @pytest.mark.parametrize("block", [None, 1, 50], ids=["one_block", "row_blocks", "blocks"])
    def test_matrix_rows_match_the_vector_calls(self, name, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        pi, r, doc = self.fixture(name)
        risks = np.stack([r, r[::-1], np.roll(r, 3), np.sqrt(r)])
        lams = np.append(lambda_grid_geometric(doc["n"]), 2500.0)
        logpi = _safe_log(pi.weights)
        matrix = [np.concatenate(c) for c in zip(*_gibbs_family(logpi, risks, lams, logpi))]
        for t, risk in enumerate(risks):
            vector = [np.concatenate(c) for c in zip(*_gibbs_family(logpi, risk, lams, logpi))]
            for got, want in zip(matrix, vector):
                assert got[t * lams.size:(t + 1) * lams.size].tobytes() == want.tobytes()

    @pytest.mark.parametrize("lams, r", [([1e308], [0.5, 3.0]), ([0.0, 2.0], [0.1, math.inf]),
                                         ([1.0], [0.1, math.nan])],
                             ids=["overflow", "inf_risk", "nan_risk"])
    def test_non_finite_exponent_refused_without_a_warning(self, lams, r):
        # -lam r of 1e308 * 3.0 overflowed to -inf, which normalized to a
        # silent Dirac; warnings are errors here, so no product may warn first
        logpi = _safe_log(DiscreteDistribution.uniform(2).weights)
        with pytest.raises(ValueError, match="h = -lambda r must be finite"):
            next(_gibbs_family(logpi, np.array(r), lams, logpi))

    @pytest.mark.parametrize("name", ["full.json", "noiseless.json"])
    def test_minimize_bound_grid_returns_the_posterior_at_its_lambda(self, name):
        pi, r, doc = self.fixture(name)
        grid = lambda_grid_geometric(doc["n"])
        rho, cert = minimize_bound_grid(pi, RiskTable(r, doc["n"]), grid, doc["eps"])
        assert cert.lam in grid.tolist()
        assert rho.weights.tobytes() == gibbs_posterior(pi, r, cert.lam).weights.tobytes()

    @pytest.mark.parametrize("name", ["full.json", "noiseless.json"])
    @pytest.mark.parametrize("block", [None, 1, 2], ids=["one_block", "row_blocks", "blocks"])
    def test_minimize_bound_grid_keeps_the_winner_row_of_its_pass(self, name, block,
                                                                  monkeypatch):
        pi, r, doc = self.fixture(name)
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block * r.size)
        grid = lambda_grid_geometric(doc["n"])
        want = gibbs_posterior(pi, r, minimize_bound_grid(pi, RiskTable(r, doc["n"]), grid,
                                                          doc["eps"])[1].lam)
        monkeypatch.setattr(posteriors, "gibbs_posterior", None)  # never rebuilt
        # every entry twice puts ties across the blocks: the earlier copy wins
        for lams in (grid, np.repeat(grid, 2)):
            rho, cert = minimize_bound_grid(pi, RiskTable(r, doc["n"]), lams, doc["eps"])
            assert rho.weights.tobytes() == want.weights.tobytes()


class TestModelSelect:
    def test_single_model_zero_penalty(self):
        pi = DiscreteDistribution.uniform(3)
        rt = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        j, rho, cert = model_select([(pi, rt)], DiscreteDistribution.dirac(1, 0), 10.0, 0.05)
        assert j == 0
        assert cert.details["model_penalty"] == 0.0

    def test_tie_breaks_to_lowest_index(self):
        pi = DiscreteDistribution.uniform(3)
        rt = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        models = [(pi, rt), (pi, rt)]
        j, _, cert = model_select(models, DiscreteDistribution.uniform(2), 10.0, 0.05)
        assert j == 0
        # both scores equal by symmetry
        _, _, cert_b = model_select(
            [models[1]], DiscreteDistribution.dirac(1, 0), 10.0, 0.05
        )
        rho0 = gibbs_posterior(pi, RISKS3, 10.0)
        score0 = float(rho0.weights @ RISKS3) + (
            kl_discrete(rho0, pi) + math.log(2)
        ) / 10.0
        assert cert.details["score"] == pytest.approx(score0, abs=1e-12)

    def test_prefers_model_with_good_hypothesis(self):
        lam, n, eps = 20.0, 200, 0.05
        pi = DiscreteDistribution.uniform(4)
        risks_a = np.full(4, 0.4)
        risks_b = np.array([0.1, 0.5, 0.5, 0.5])
        models = [
            (pi, RiskTable(emp_risk=risks_a, n=n, C=1.0)),
            (pi, RiskTable(emp_risk=risks_b, n=n, C=1.0)),
        ]
        j, rho, cert = model_select(models, DiscreteDistribution.uniform(2), lam, eps)
        assert j == 1
        scores = []
        for pi_j, rt_j in models:
            g = gibbs_posterior(pi_j, rt_j.emp_risk, lam)
            scores.append(
                float(g.weights @ rt_j.emp_risk)
                + (kl_discrete(g, pi_j) + math.log(2)) / lam
            )
        assert scores[1] < scores[0]
        assert cert.details["score"] == pytest.approx(scores[1], abs=1e-12)

    def test_zero_mass_model_is_skipped(self):
        # model 0 fits perfectly but p gives it no mass: its penalty log(1/0),
        # which would raise ZeroDivisionError, is never formed; model 1 is selected
        pi = DiscreteDistribution.uniform(3)
        perfect = RiskTable(emp_risk=np.zeros(3), n=100, C=1.0)
        models = [(pi, perfect), (pi, RiskTable(emp_risk=RISKS3, n=100, C=1.0))]
        j, _, cert = model_select(models, DiscreteDistribution.dirac(2, 1), 10.0, 0.05)
        assert j == 1 and cert.details["model_penalty"] == 0.0

    def test_shape_mismatch(self):
        pi = DiscreteDistribution.uniform(3)
        rt_a = RiskTable(emp_risk=RISKS3, n=100, C=1.0)
        rt_b = RiskTable(emp_risk=RISKS3, n=200, C=1.0)
        with pytest.raises(ValueError):
            model_select([(pi, rt_a), (pi, rt_b)], DiscreteDistribution.uniform(2), 10.0, 0.05)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("construct", [
    lambda lam: model_select([(DiscreteDistribution.uniform(3), RiskTable(RISKS3, 100))],
                             DiscreteDistribution.dirac(1, 0), lam, 0.05),
    lambda lam: single_draw_certificate(DiscreteDistribution.uniform(3),
                                        DiscreteDistribution.uniform(3), 2, 0.3, 100, 0.05, 1.0,
                                        lam),
    lambda lam: optimize_gaussian_posterior(ConstantSurrogate(0.25, 100), 1.0,
                                            VariationalConfig(max_iters=1), lam, 0.05),
], ids=["model_select", "single_draw_certificate", "optimize_gaussian_posterior"])
def test_lambda_is_checked(construct, lam):
    # every KL here is finite, so lambda = +inf is refused with the rest
    with pytest.raises(ValueError, match="lambda"):
        construct(lam)


class TestAggregatePrediction:
    def test_dirac_returns_member(self):
        rho = DiscreteDistribution.dirac(4, 2)
        assert aggregate_prediction(rho, [1.0, 2.0, 3.0, 4.0]) == 3.0

    def test_uniform_mean(self):
        rho = DiscreteDistribution.uniform(2)
        assert aggregate_prediction(rho, [0.0, 1.0]) == 0.5

    def test_jensen_quadratic_and_hinge(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = int(rng.integers(2, 10))
            rho = random_distribution(rng, m)
            preds = rng.normal(size=m)
            y = float(rng.normal())
            agg = aggregate_prediction(rho, preds)
            # quadratic loss
            assert (agg - y) ** 2 <= float(rho.weights @ (preds - y) ** 2) + 1e-12
            # hinge loss with label sign(y)+
            label = 1.0 if y >= 0 else -1.0
            hinge = np.maximum(0.0, 1.0 - label * preds)
            assert max(0.0, 1.0 - label * agg) <= float(rho.weights @ hinge) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_prediction(DiscreteDistribution.uniform(3), [1.0, 2.0])


class TestSingleDraw:
    def test_rho_equals_pi(self):
        pi = DiscreteDistribution.uniform(5)
        cert = single_draw_certificate(pi, pi, 2, 0.3, 100, 0.05, 1.0, 10.0)
        assert cert.details["log_density_ratio"] == 0.0
        expected = 0.3 + 10.0 / 800 + math.log(20) / 10.0
        assert cert.value == pytest.approx(expected, rel=1e-14)

    def test_gibbs_instance_log_ratio(self):
        pi = DiscreteDistribution.uniform(3)
        rho = gibbs_posterior(pi, RISKS3, 10.0)
        cert = single_draw_certificate(pi, rho, 0, 0.1, 100, 0.05, 1.0, 10.0)
        assert cert.details["log_density_ratio"] == pytest.approx(
            0.7496000718999234, abs=1e-12
        )

    def test_thin_posterior_gives_smaller_certificate(self):
        pi = DiscreteDistribution.uniform(3)
        rho = gibbs_posterior(pi, RISKS3, 10.0)
        base = single_draw_certificate(pi, pi, 2, 0.4, 100, 0.05, 1.0, 10.0)
        thin = single_draw_certificate(pi, rho, 2, 0.4, 100, 0.05, 1.0, 10.0)
        assert rho.weights[2] < pi.weights[2]
        assert thin.value < base.value

    def test_outside_support(self):
        pi = DiscreteDistribution.uniform(3)
        rho = DiscreteDistribution.dirac(3, 0)
        with pytest.raises(ValueError):
            single_draw_certificate(pi, rho, 1, 0.2, 100, 0.05, 1.0, 10.0)

    @pytest.mark.parametrize("emp, n, C", [
        (0.2, 0, 1.0), (0.2, -10, 1.0), (0.2, 100, -1.0), (-3.0, 100, 1.0), (math.nan, 100, 1.0)])
    def test_bad_input_is_rejected(self, emp, n, C):
        # r(theta) = -3 once certified a negative value flagged non-vacuous
        pi = DiscreteDistribution.uniform(3)
        with pytest.raises(ValueError):
            single_draw_certificate(pi, pi, 1, emp, n, 0.05, C, 10.0)

    def test_subnormal_prior_mass_keeps_its_log_ratio(self):
        # rho/pi = 1/5e-324 overflows; the certificate read +inf with a RuntimeWarning
        pi = DiscreteDistribution(np.array([5e-324, 1.0 - 5e-324]))
        cert = single_draw_certificate(pi, DiscreteDistribution.dirac(2, 0), 0, 0.1, 100, 0.05,
                                       1.0, 10.0)
        assert cert.details["log_density_ratio"] == math.log(1.0) - math.log(5e-324)
        assert math.isfinite(cert.value)

    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6), st.data(),
           st.floats(0.0, 1.0), st.integers(1, 10**6), st.floats(1e-9, 0.999),
           st.floats(0.1, 10.0), st.floats(1e-3, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_hand_formula(self, raw, data, u, n, eps, C, lam):
        emp = C * u  # r(theta) in [0, C]
        pi = DiscreteDistribution(np.full(len(raw), 1.0 / len(raw)))
        w = np.asarray(raw)
        rho = DiscreteDistribution(w / w.sum())
        idx = data.draw(st.integers(0, len(raw) - 1))
        cert = single_draw_certificate(pi, rho, idx, emp, n, eps, C, lam)
        value, terms, lam_, vacuous, log_ratio = single_draw_by_hand(
            pi.weights, rho.weights, idx, emp, n, eps, C, lam)
        assert (cert.value, cert.terms, cert.lam, cert.vacuous) == (value, terms, lam_, vacuous)
        assert cert.details == {"log_density_ratio": log_ratio, "theta_idx": idx}
        assert cert.bound_id == "single_draw"


class TestGaussianOptimizer:
    def _run(self, seed=0, **over):
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        x = task.sample(500, np.random.default_rng(42))
        cfg = VariationalConfig(
            mc_samples=32, step_size=0.05, max_iters=300, seed=seed, **over
        )
        surrogate = QuadraticSurrogate(x)
        return optimize_gaussian_posterior(surrogate, 1.0, cfg, 50.0, 0.05)

    def test_objective_improves(self):
        gauss, cert = self._run()
        # objective at the initialization m=0, s=sigma, evaluated exactly
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        x = task.sample(500, np.random.default_rng(42))
        init_risk = float(
            QuadraticSurrogate(x).loss(np.zeros((1, 1)) + 0.0)[0]
        )  # deterministic at s -> MC approx below
        assert cert.value < init_risk + 50.0 / (8 * 500) + math.log(20) / 50.0 + 0.05
        assert gauss.std < 1.0  # shrinks from the prior scale

    def test_bit_reproducible(self):
        g1, c1 = self._run(seed=7)
        g2, c2 = self._run(seed=7)
        assert np.array_equal(g1.mean, g2.mean)
        assert g1.std == g2.std
        assert c1.value == c2.value

    def test_kl_matches_closed_form(self):
        from pacbayes.divergences import DiagonalGaussian

        gauss, cert = self._run()
        kl = kl_gaussian_diag(DiagonalGaussian(mean=gauss.mean, std=gauss.std), 1.0)
        assert cert.details["kl"] == pytest.approx(kl, abs=1e-12)

    def test_fresh_mc_close_to_training_estimate(self):
        gauss, cert = self._run(seed=3)
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        x = task.sample(500, np.random.default_rng(42))
        exact = np.mean([
            task._clipped_square_mean(float(gauss.mean[0]) - xi, gauss.std**2)
            for xi in x
        ])
        # MC estimate over 10x mc_samples should sit within 3 standard errors
        se = 0.5 / math.sqrt(10 * 32)
        assert abs(cert.details["mc_risk"] - exact) <= 3 * se
        # and within 3 combined standard errors of the training-time estimate
        se_both = 0.5 * math.sqrt(1 / 32 + 1 / 320)
        assert abs(cert.details["mc_risk"] - cert.details["train_mc_risk"]) <= 3 * se_both

    def test_zero_dimensional_degenerate(self):
        cfg = VariationalConfig(mc_samples=8, max_iters=10, seed=0)
        gauss, cert = optimize_gaussian_posterior(
            ConstantSurrogate(0.25, 100), 1.0, cfg, 20.0, 0.05
        )
        assert gauss.dim == 0
        expected = 0.25 + 20.0 / 800 + math.log(20) / 20.0
        assert cert.value == pytest.approx(expected, rel=1e-12)
        _, seeger = optimize_gaussian_posterior(
            ConstantSurrogate(0.25, 100), 1.0, cfg, 20.0, 0.05, certificate="seeger")
        assert seeger.bound_id == "seeger"
        assert seeger.value == bound_seeger_maurer(BoundInput(0.25, 0.0, 100, 0.05)).value

    @pytest.mark.parametrize("certificate", ["linear", "seeger"])
    def test_range_c_certificate_errs_upward(self, certificate):
        # the seeger certificate once clamped a risk of 1.5 on [0, 2] to 1.0 and read 1.0
        cfg = VariationalConfig(mc_samples=8, max_iters=5, seed=0)
        _, cert = optimize_gaussian_posterior(ConstantSurrogate(1.5, 100), 1.0, cfg, 20.0, 0.05,
                                              C=2.0, certificate=certificate)
        assert cert.value >= cert.details["mc_risk"] == 1.5
        if certificate == "seeger":
            assert cert.details["rescaled_by"] == 2.0
            assert cert.value == 2.0 * bound_seeger_maurer(BoundInput(0.75, 0.0, 100, 0.05)).value
            assert cert.vacuous == (cert.value >= 2.0)

    @pytest.mark.parametrize("certificate", ["linear", "seeger"])
    def test_unit_range_certificate_is_the_direct_call(self, certificate):
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        cfg = VariationalConfig(mc_samples=8, max_iters=20, seed=4)
        _, cert = optimize_gaussian_posterior(
            QuadraticSurrogate(task.sample(300, np.random.default_rng(5))), 1.0, cfg, 50.0, 0.05,
            certificate=certificate)
        inp = BoundInput(cert.details["mc_risk"], cert.details["kl"], 300, 0.05)
        direct = (bound_catoni_linear(inp, 50.0) if certificate == "linear"
                  else bound_seeger_maurer(inp))
        assert cert.details["kl"] > 0.0
        assert (cert.bound_id, cert.value, cert.terms, cert.lam, cert.vacuous) == (
            direct.bound_id, direct.value, direct.terms, direct.lam, direct.vacuous)
        assert direct.details.items() <= cert.details.items()

    def test_divergence_detected(self):
        task = GaussianQuadraticTask()
        x = task.sample(50, np.random.default_rng(1))
        cfg = VariationalConfig(
            mc_samples=4, step_size=1e7, max_iters=2000, seed=0, patience=5
        )
        with pytest.raises(OptimizationDiverged):
            optimize_gaussian_posterior(QuadraticSurrogate(x), 1.0, cfg, 50.0, 0.05)

    class _FixedGradient:
        """One parameter; every draw loses 0.5 and the data gradient in m is fixed."""

        dim, n = 1, 100

        def __init__(self, grad_m):
            self.grad_m = np.array([grad_m])

        def reparam_pass(self, m, s, z):
            return np.full(len(z), 0.5), self.grad_m, 0.0

    def test_non_finite_gradient_is_detected(self):
        cfg = VariationalConfig(mc_samples=4, max_iters=10)
        with pytest.raises(OptimizationDiverged, match="non-finite objective or gradient at "
                                                       "iteration 0"):
            optimize_gaussian_posterior(self._FixedGradient(math.nan), 1.0, cfg, 50.0, 0.05)

    def test_objective_stuck_high_exhausts_patience(self):
        # one step of 100 puts the mean at 100, where the data gradient and the
        # KL's cancel: the objective stays near KL/lam = 5000, far above its
        # initial 3.5, for iterations 1, 2, ...; the fourth such one exceeds patience 3
        cfg = VariationalConfig(mc_samples=4, step_size=1.0, max_iters=50, patience=3)
        with pytest.raises(OptimizationDiverged, match="stuck above its initial value for 3 "):
            optimize_gaussian_posterior(self._FixedGradient(-100.0), 1.0, cfg, 1.0, 0.05)

    def test_split_mode_uses_heldout_prior_mean(self):
        # optimum far from the zero-mean prior: the data-built prior mean
        # must shrink the KL mean term relative to the no-split run
        task = GaussianQuadraticTask(center=2.0, spread=0.5)
        x = task.sample(400, np.random.default_rng(11))
        base_cfg = dict(mc_samples=16, max_iters=200, seed=5)
        cfg_split = VariationalConfig(split_fraction=0.5, **base_cfg)
        cfg_plain = VariationalConfig(**base_cfg)
        g_split, c_split = optimize_gaussian_posterior(
            QuadraticSurrogate(x), 1.0, cfg_split, 50.0, 0.05, certificate="seeger"
        )
        g_plain, c_plain = optimize_gaussian_posterior(
            QuadraticSurrogate(x), 1.0, cfg_plain, 50.0, 0.05, certificate="seeger"
        )
        assert c_split.bound_id == "seeger"
        assert c_split.details["n_cert"] == 200
        assert c_plain.details["n_cert"] == 400
        assert c_split.details["kl"] < c_plain.details["kl"]
        # the mean sits near the data optimum, far from zero
        assert abs(float(g_split.mean[0]) - 2.0) < 0.3

    def test_seeger_certificate_holds_against_exact_risk(self):
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        x = task.sample(400, np.random.default_rng(23))
        cfg = VariationalConfig(mc_samples=32, max_iters=200, seed=9, split_fraction=0.5)
        gauss, cert = optimize_gaussian_posterior(
            QuadraticSurrogate(x), 1.0, cfg, 50.0, 0.05, certificate="seeger"
        )
        exact = task.exact_posterior_risk(float(gauss.mean[0]), gauss.std)
        assert exact <= cert.value


def _logistic_problem(seed, n=300, d=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.where(x @ rng.normal(size=d) + rng.normal(size=n) > 0, 1.0, -1.0)
    return x, y


def _ulps(a: float, b: float) -> int:
    """Distance in units in the last place between two nonnegative doubles."""
    ia, ib = np.array([a, b]).view(np.int64)
    return abs(int(ia) - int(ib))


class TestLogisticSurrogate:
    @settings(max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(1e-300)
    @example(-1e-300)
    @example(36.7)
    @example(-36.7)
    @example(700.0)
    @example(-700.0)
    def test_raw_loss_within_2_ulp_of_mpmath(self, m):
        # the loss in nats, clipped at log 2 (log2(1 + e^{-m}) >= 1 at m <= 0)
        import mpmath as mp

        got = float(_logistic_clipped(np.array([-m]))[0])
        with mp.workdps(50):
            # log1p, not log(1 + .): 1 + e^{-m} rounds to 1 at 50 digits once m > 115
            want = float(min(mp.log1p(mp.exp(-mp.mpf(m))), mp.log(2)))
        assert _ulps(got, want) <= 2, (m, got, want)

    @pytest.mark.parametrize("make", [
        lambda: LogisticSurrogate(*_logistic_problem(0)),
        lambda: QuadraticSurrogate(np.random.default_rng(1).normal(0.3, 0.5, 300)),
        lambda: ConstantSurrogate(0.25, 100),
    ], ids=["logistic", "quadratic", "constant"])
    def test_reparam_pass_losses_are_loss_bit_for_bit(self, make):
        surrogate = make()
        # scale 3 puts many margins in the clipped region; at m = 0, s = 1 the
        # draws theta = m + s z are z itself
        theta = 3.0 * np.random.default_rng(2).normal(size=(40, surrogate.dim))
        losses, grad_m, grad_log_s = surrogate.reparam_pass(np.zeros(surrogate.dim), 1.0, theta)
        assert losses.shape == (40,) and grad_m.shape == (surrogate.dim,)
        assert isinstance(grad_log_s, float)
        assert losses.tobytes() == surrogate.loss(theta).tobytes()

    def test_subset_keeps_a_c_contiguous_layout(self):
        # a column gather of (y X)^T is F-ordered; the subset copies it to C order
        surrogate = LogisticSurrogate(*_logistic_problem(0))
        idx = np.random.default_rng(3).permutation(surrogate.n)[:150]
        part = surrogate.subset(idx)
        assert part.yx_t.flags.c_contiguous and part.n == 150
        assert part.yx_t.tobytes() == np.ascontiguousarray(surrogate.yx_t[:, idx]).tobytes()
        theta = 3.0 * np.random.default_rng(2).normal(size=(40, part.dim))
        losses, _, _ = part.reparam_pass(np.zeros(part.dim), 1.0, theta)
        assert losses.tobytes() == part.loss(theta).tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_row_blocks(self, rows, monkeypatch):
        # a GEMM row's bits depend on its place in the kernel's tiles, so the
        # blocks move the losses by ulps, and loss and reparam_pass share them
        x, y = _logistic_problem(0)
        rng = np.random.default_rng(5)
        theta = 3.0 * rng.normal(size=(40, x.shape[1]))
        m, z = rng.normal(size=x.shape[1]), theta / 3.0
        whole, whole_pass = (LogisticSurrogate(x, y).loss(theta),
                             LogisticSurrogate(x, y).reparam_pass(m, 0.7, z))
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", rows * x.shape[0])
        surrogate = LogisticSurrogate(x, y)
        blocked = surrogate.loss(theta)
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0)
        losses, _, _ = surrogate.reparam_pass(np.zeros(x.shape[1]), 1.0, theta)
        assert losses.tobytes() == blocked.tobytes()
        for got, want in zip(surrogate.reparam_pass(m, 0.7, z), whole_pass):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert surrogate._work[1].shape[0] == rows

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), draws=st.sampled_from([1, 32]),
           s=st.sampled_from([0.0, 1e-3, 1.0, 3.0]), scale=st.sampled_from([0.3, 3.0]))
    def test_reparam_pass_matches_the_per_draw_gradients(self, seed, draws, s, scale):
        # scale 3 makes the margins clip-heavy; each result is held to 1e-12
        # of the sum of the absolute values of the terms it adds up
        rng = np.random.default_rng(seed)
        x, y = _logistic_problem(seed % 1000, n=200, d=4)
        m, z = scale * rng.normal(size=4), rng.standard_normal((draws, 4))
        got = LogisticSurrogate(x, y).reparam_pass(m, s, z)
        oracle = TwoPassLogisticSurrogate(x, y)
        want = oracle.reparam_pass(m, s, z)
        coef = np.abs(oracle.coef(m[None, :] + s * z))  # draws x n, 0 where clipped
        scale_m = (coef @ np.abs(x)).sum(axis=0) / (draws * x.shape[0])
        scale_s = s * float(np.sum((coef @ np.abs(x)) * np.abs(z))) / (draws * x.shape[0])
        assert np.all(np.abs(got[0] - want[0]) <= 1e-12 * want[0])
        assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * scale_m)
        assert abs(got[2] - want[2]) <= 1e-12 * scale_s

    def test_gradient_matches_central_differences(self):
        x, y = _logistic_problem(3)
        theta = np.random.default_rng(4).normal(size=(6, x.shape[1]))
        margins = y[None, :] * (theta @ x.T)
        # keep the examples whose margins stay away from the clip point m = 0
        # for every row, so the loss is smooth within the difference step
        keep = np.all(np.abs(margins) > 0.05, axis=0)
        assert keep.sum() > 100
        surrogate = LogisticSurrogate(x[keep], y[keep])
        # at s = 0 every draw is m, so the mean gradient is the gradient at m
        grad = np.array([surrogate.reparam_pass(row, 0.0, np.zeros((1, row.size)))[1]
                         for row in theta])
        h = 1e-6
        for j in range(x.shape[1]):
            step = np.zeros_like(theta)
            step[:, j] = h
            fd = (surrogate.loss(theta + step) - surrogate.loss(theta - step)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, rtol=1e-6, atol=1e-9)
        assert np.any(grad != 0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("split", [0.0, 0.5])
    @pytest.mark.parametrize("certificate", ["linear", "seeger"])
    def test_optimizer_matches_two_pass_oracle(self, seed, split, certificate):
        x, y = _logistic_problem(10 + seed)
        cfg = VariationalConfig(mc_samples=16, max_iters=100, seed=seed, split_fraction=split)
        runs = [optimize_gaussian_posterior(surrogate, 1.0, cfg, 100.0, 0.05,
                                            certificate=certificate)
                for surrogate in (LogisticSurrogate(x, y), TwoPassLogisticSurrogate(x, y))]
        (g_new, c_new), (g_old, c_old) = runs
        np.testing.assert_allclose(g_new.mean, g_old.mean, rtol=1e-12, atol=0)
        assert g_new.std == pytest.approx(g_old.std, rel=1e-12)
        assert c_new.value == pytest.approx(c_old.value, rel=1e-12)
        assert c_new.bound_id == c_old.bound_id
        # a mean far from zero, so the relative comparison says something
        assert np.max(np.abs(g_new.mean)) > 0.1

    @pytest.mark.parametrize("make, split, C", [
        (lambda: QuadraticSurrogate(np.random.default_rng(1).normal(0.3, 0.5, 300)), 0.0, 1.0),
        (lambda: QuadraticSurrogate(np.random.default_rng(1).normal(2.0, 0.5, 300)), 0.5, 1.0),
        (lambda: ConstantSurrogate(0.25, 100), 0.0, 1.0),
        (lambda: ConstantSurrogate(0.25, 100), 0.5, 1.0),
        (lambda: ConstantSurrogate(1.5, 100), 0.0, 2.0),
    ], ids=["quadratic", "quadratic-split", "constant", "constant-split", "constant-C2"])
    @pytest.mark.parametrize("certificate", ["linear", "seeger"])
    def test_per_draw_surrogates_keep_the_old_loops_bytes(self, make, split, C, certificate):
        cfg = VariationalConfig(mc_samples=16, max_iters=150, seed=4, split_fraction=split)
        runs = [run(make(), 1.0, cfg, 50.0, 0.05, C, certificate=certificate)
                for run in (optimize_gaussian_posterior, optimize_gaussian_posterior_loop)]
        (g_new, c_new), (g_old, c_old) = runs
        assert g_new.mean.tobytes() == g_old.mean.tobytes()
        assert g_new.std.hex() == g_old.std.hex()
        assert repr(c_new) == repr(c_old)


class TestGaussianQuadraticTask:
    def test_closed_form_matches_quadrature(self):
        from scipy import integrate, stats

        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        for m, s in [(0.0, 1.0), (0.4, 0.2), (1.5, 0.7)]:
            mu, var = m - 0.3, s * s + 0.25
            sd = math.sqrt(var)
            val, _ = integrate.quad(
                lambda w: min(w * w, 1.0) * stats.norm.pdf(w, mu, sd),
                mu - 12 * sd,
                mu + 12 * sd,
                limit=400,
                points=[-1.0, 1.0],
            )
            assert task.exact_posterior_risk(m, s) == pytest.approx(val, abs=1e-10)

    def test_true_risk_is_posterior_risk_at_zero_std(self):
        task = GaussianQuadraticTask(center=0.3, spread=0.5)
        assert task.true_risk(0.7) == pytest.approx(
            task.exact_posterior_risk(0.7, 1e-9), abs=1e-6
        )


class TestEwa:
    def test_single_expert_zero_regret(self):
        losses = np.random.default_rng(0).uniform(0, 1, size=(20, 1))
        state, regret = ewa_run(losses, 0.5, DiscreteDistribution.uniform(1))
        assert regret == pytest.approx(0.0, abs=1e-12)

    def test_identical_experts(self):
        col = np.random.default_rng(1).uniform(0, 1, size=20)
        losses = np.stack([col, col, col], axis=1)
        state, regret = ewa_run(losses, 0.7, DiscreteDistribution.uniform(3))
        assert np.allclose(state.weights.weights, 1 / 3)
        assert regret == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf])
    def test_eta_theorem_refuses_a_bad_loss_range(self, C):
        # C = 0 raised ZeroDivisionError, C = -1 gave a negative eta, NaN gave NaN
        with pytest.raises(ValueError, match=r"^C must lie in \(0, inf\)"):
            ewa_eta_theorem(4, 10, C)

    def test_eta_theorem_scales_as_one_over_C(self):
        assert ewa_eta_theorem(4, 10, 2.0) == ewa_eta_theorem(4, 10) / 2

    def test_exhaustive_enumeration_m2_t8(self):
        eta = ewa_eta_theorem(2, 8)
        max_regret = ewa_exhaustive_max_regret(2, 8, eta)
        assert max_regret <= math.sqrt(8 * math.log(2) / 2) + 1e-12
        assert max_regret <= 1.6651092223153954 + 1e-12

    def test_dp_agrees_with_enumeration(self):
        for m, horizon in [(2, 3), (2, 6), (2, 8), (3, 3), (3, 5)]:
            eta = ewa_eta_theorem(m, horizon)
            assert ewa_dp_max_regret(m, horizon, eta) == pytest.approx(
                ewa_exhaustive_max_regret(m, horizon, eta), abs=1e-9
            )

    def test_batch_online_consistency(self):
        rng = np.random.default_rng(6)
        losses = rng.uniform(0, 1, size=(15, 4))
        pi = DiscreteDistribution.from_weights(rng.random(4) + 0.1)
        eta = 0.9
        state, _ = ewa_run(losses, eta, pi, record_weights=True)
        for t in range(15):
            if t == 0:
                expected = pi.weights
            else:
                mean_losses = losses[:t].mean(axis=0)
                expected = gibbs_posterior(pi, mean_losses, eta * t).weights
            assert np.max(np.abs(state.weight_history[t].weights - expected)) <= 1e-12

    def test_forecaster_loss_accumulates(self):
        losses = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        pi = DiscreteDistribution.uniform(2)
        state, regret = ewa_run(losses, 1.0, pi)
        assert state.cum_best.tolist() == [1.0, 2.0]
        assert regret == pytest.approx(state.cum_loss - 1.0, rel=1e-14)

    def test_eta_domain(self):
        # eta = +inf made inf * 0 warn, then failed the weight check
        for eta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"eta must lie in \(0, inf\)"):
                ewa_run(np.zeros((3, 2)), eta, DiscreteDistribution.uniform(2))

    @pytest.mark.parametrize("horizon", [1, 7, 5000])
    @pytest.mark.parametrize("m", [1, 3, 1000])
    def test_blocked_passes_match_the_loop(self, horizon, m, monkeypatch):
        # the blocked passes keep the round loop's bits: cum_loss and regret
        # by repr, the final weights, cum_best and the weight history exactly,
        # for a uniform, a random and a zero-mass prior, in default blocks,
        # one round per block and 3-round blocks (which divide neither 7 nor
        # 5000).  The history is held at T = 1 and 7 only: 5000 rounds of
        # DiscreteDistribution checks per run would double the test's time.
        rng = np.random.default_rng(horizon * m)
        losses = rng.uniform(0, 1, (horizon, m))
        record = horizon < 5000
        for w in (np.ones(m), rng.random(m) + 0.05,
                  np.where(np.arange(m) % 3 == 1, 0.0, rng.random(m) + 0.05)):
            pi = DiscreteDistribution.from_weights(w)
            want, want_regret = ewa_run_loop(losses, 0.3, pi, record_weights=record)
            for block in (divergences._FAMILY_BLOCK, m, 3 * m):
                monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
                state, regret = ewa_run(losses, 0.3, pi, record_weights=record)
                assert (repr(state.cum_loss), repr(regret)) == (repr(want.cum_loss),
                                                                repr(want_regret)), block
                assert np.array_equal(state.weights.weights, want.weights.weights)
                assert np.array_equal(state.cum_best, want.cum_best)
                if record:
                    assert len(state.weight_history) == horizon
                    assert all(np.array_equal(a.weights, b.weights)
                               for a, b in zip(state.weight_history, want.weight_history))
                else:
                    assert state.weight_history is None
