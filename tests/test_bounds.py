"""Bound catalog: every operation against its worked examples (recomputed by
independent oracles), the cross-bound identities, and the shared structural
invariants (monotonicity, term decomposition, vacuous flag)."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacbayes import bounds, divergences
from pacbayes.bounds import (
    BOUND_IDS,
    BOUND_TABLE,
    BoundData,
    BoundInput,
    bernstein_g,
    bound_catoni_linear,
    bound_catoni_phi,
    bound_chi_square,
    bound_germain_generic,
    bound_lambda_grid,
    bound_localized_empirical,
    bound_mcallester_maurer,
    bound_seeger_maurer,
    bound_subgaussian,
    bound_thiemann,
    bound_tolstikhin_seldin,
    bound_truncated,
    bound_union_finite,
    lambda_grid_arithmetic,
    lambda_grid_geometric,
    psi_inverse,
    resolve_lambda,
    select_lambda_closed_form,
    truncated_empirical_risk,
)
from pacbayes.divergences import (
    DiscreteDistribution,
    kl_bernoulli,
    kl_discrete,
    kl_inverse_upper,
)

from oracles import (
    golden_section_min,
    grid_kl_inverse,
    mp_union_bound_value,
    subgaussian_by_hand,
    truncated_risks_loop,
)

LOG100 = math.log(100)


def make_input(emp=0.26, kl=LOG100, n=1000, eps=0.05, C=1.0, **kw):
    return BoundInput(emp_risk=emp, kl=kl, n=n, eps=eps, C=C, **kw)


class TestBoundInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInput(emp_risk=-0.1, kl=0.0, n=10, eps=0.05)
        with pytest.raises(ValueError):
            BoundInput(emp_risk=0.5, kl=-1.0, n=10, eps=0.05)
        with pytest.raises(ValueError):
            BoundInput(emp_risk=0.5, kl=0.0, n=10, eps=1.5)
        with pytest.raises(ValueError):
            BoundInput(emp_risk=0.5, kl=0.0, n=0, eps=0.05)
        with pytest.raises(ValueError):
            BoundInput(emp_risk=0.5, kl=math.nan, n=10, eps=0.05)
        with pytest.raises(ValueError):
            BoundInput(emp_risk=0.5, kl=0.0, n=10, eps=0.05, chi2=math.nan)
        with pytest.raises(ValueError, match="integer"):
            BoundInput(emp_risk=0.5, kl=0.0, n=1.5, eps=0.05)

    def test_infinite_kl_allowed(self):
        inp = BoundInput(emp_risk=0.5, kl=math.inf, n=10, eps=0.05)
        assert bound_catoni_linear(inp, 5.0).value == math.inf
        assert bound_seeger_maurer(inp).value == 1.0


class TestUnionFinite:
    def test_reference_instance(self):
        # the small-class classification example: slack just over 0.0616
        cert = bound_union_finite(0.26, 1000, 0.05, 1.0, M=100)
        assert cert.value == pytest.approx(0.3216, abs=5e-4)
        assert cert.value < 0.322
        assert cert.terms["complexity"] == pytest.approx(0.06164779987778186, abs=1e-10)
        assert not cert.vacuous

    def test_unit_slack_identity(self):
        n = 37
        cert = bound_union_finite(0.0, n, math.exp(-2 * n), 1.0, M=1)
        assert cert.value == pytest.approx(1.0, rel=1e-12)

    def test_huge_class_log_domain(self):
        log_M = 1000100 * math.log(2)
        cert = bound_union_finite(0.0, 10000, 0.05, 1.0, log_M=log_M)
        assert math.isfinite(cert.value)
        assert cert.value > 1
        assert cert.vacuous
        oracle = mp_union_bound_value(log_M, 10000, 0.05)
        assert cert.value == pytest.approx(oracle, rel=1e-12)

    def test_requires_exactly_one_size(self):
        with pytest.raises(ValueError):
            bound_union_finite(0.0, 10, 0.05, 1.0)
        with pytest.raises(ValueError):
            bound_union_finite(0.0, 10, 0.05, 1.0, M=3, log_M=1.0)

    @pytest.mark.parametrize("r_min, C, size", [
        (0.1, 1.0, {"log_M": math.nan}), (0.1, 1.0, {"M": math.nan}),
        (math.nan, 1.0, {"M": 10}), (0.1, -1.0, {"M": 10})])
    def test_bad_input_is_rejected(self, r_min, C, size):
        # each of these once gave a NaN or negative certificate flagged non-vacuous
        with pytest.raises(ValueError):
            bound_union_finite(r_min, 100, 0.05, C, **size)


class TestCatoniLinear:
    def test_matches_union_bound_at_optimal_lambda(self):
        lam = select_lambda_closed_form(LOG100, 1000, 0.05, 1.0)
        cert = bound_catoni_linear(make_input(), lam)
        union = bound_union_finite(0.26, 1000, 0.05, 1.0, M=100)
        assert cert.value == pytest.approx(union.value, rel=1e-12)
        assert cert.value == pytest.approx(0.3216, abs=5e-4)

    def test_amgm_identity(self):
        n, eps, C = 500, 0.2, 2.0
        lam = math.sqrt(8 * n * math.log(1 / eps)) / C
        cert = bound_catoni_linear(BoundInput(0.0, 0.0, n, eps, C), lam)
        # a*lam + b/lam at lam* = sqrt(b/a) equals 2*sqrt(ab) = C sqrt(log(1/eps)/(2n))
        assert cert.value == pytest.approx(
            2 * math.sqrt(C**2 * math.log(1 / eps) / (8 * n)), rel=1e-12
        )
        assert cert.value == pytest.approx(
            C * math.sqrt(math.log(1 / eps) / (2 * n)), rel=1e-12
        )

    def test_worked_value(self):
        cert = bound_catoni_linear(BoundInput(0.1, 2.0, 500, 0.1, 1.0), 50.0)
        expected = 0.1 + 50.0 / (8 * 500) + (2.0 + math.log(10)) / 50.0
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.1985517018598809, abs=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            bound_catoni_linear(make_input(), 0.0)


class TestSelectLambda:
    def test_golden_section_confirms_stationary_point(self):
        kl, n, eps, C = LOG100, 1000, 0.05, 1.0
        lam = select_lambda_closed_form(kl, n, eps, C)

        def objective(l):
            return l * C**2 / (8 * n) + (kl + math.log(1 / eps)) / l

        oracle = golden_section_min(objective, 1.0, 1e5)
        assert lam == pytest.approx(oracle, rel=1e-6)
        assert lam == pytest.approx(246.59119951112746, rel=1e-12)

    def test_simple_values(self):
        assert select_lambda_closed_form(0.0, 8, math.exp(-1), 1.0) == pytest.approx(8.0)
        assert select_lambda_closed_form(1.0, 100, math.exp(-1), 2.0) == pytest.approx(
            math.sqrt(800 * 2) / 2
        )
        assert select_lambda_closed_form(1.0, 100, math.exp(-1), 2.0) == pytest.approx(20.0)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            select_lambda_closed_form(-2.0, 100, math.exp(2.0 - 1e-9), 1.0)

    def test_subnormal_eps_keeps_a_finite_lambda(self):
        # 1/eps overflows at eps = 5e-324, but log(1/eps) = 744.4 does not
        lam = select_lambda_closed_form(0.0, 100, 5e-324, 1.0)
        assert lam == pytest.approx(math.sqrt(800 * 1074 * math.log(2)), rel=1e-12)


class TestLogInv:
    def test_bits_of_log_of_the_reciprocal_where_it_is_finite(self):
        # -log(x) would move the last bit at 0.1, 0.01 and many other x
        xs = [0.1, 0.01, 0.05, 1.0, 1 - 1e-16, 1e-300, 2.0**-1022,
              *np.random.default_rng(4).random(200).tolist()]
        for x in xs:
            assert repr(bounds._log_inv(x)) == repr(math.log(1.0 / x)), x
            assert repr(bounds._log_inv(np.float64(x))) == repr(math.log(1.0 / x)), x
        assert math.log(1.0 / 0.1) != -math.log(0.1)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 2.0**-1024])
    def test_minus_log_where_the_reciprocal_overflows(self, x):
        assert math.isinf(1.0 / x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bounds._log_inv(x) == -math.log(x)
            assert bounds._log_inv(np.float64(x)) == -math.log(x)
        assert bounds._log_inv(5e-324) == pytest.approx(1074 * math.log(2), rel=1e-15)


class TestLambdaGrid:
    def test_singleton_equals_catoni(self):
        lam = 30.0
        entries = [(lam, 0.2, 1.5)]
        cert = bound_lambda_grid(entries, 400, 0.1, 1.0)
        single = bound_catoni_linear(BoundInput(0.2, 1.5, 400, 0.1, 1.0), lam)
        assert cert.value == pytest.approx(single.value, rel=1e-14)

    def test_matches_exhaustive_minimum(self):
        n, eps, C = 1000, 0.05, 1.0
        grid = lambda_grid_geometric(n)
        entries = [(float(g), 0.3, 3.0) for g in grid]
        cert = bound_lambda_grid(entries, n, eps, C)
        log_card = math.log(len(grid))
        exhaustive = min(
            0.3 + g * C**2 / (8 * n) + (3.0 + log_card + math.log(1 / eps)) / g for g in grid
        )
        assert cert.value == pytest.approx(exhaustive, rel=1e-14)

    def test_geometric_card_penalty_smaller(self):
        for n in (8, 20, 100, 1000, 12800):
            geo = lambda_grid_geometric(n)
            arith = lambda_grid_arithmetic(n)
            assert math.log(len(geo)) < math.log(len(arith))
            assert len(geo) == math.floor(math.log(n)) + 1
            assert geo.min() >= 1.0 and geo.max() <= n

    def test_grid_bound_below_any_member_with_penalized_eps(self):
        n, eps = 500, 0.05
        entries = [(float(g), 0.25, 2.0) for g in lambda_grid_geometric(n)]
        cert = bound_lambda_grid(entries, n, eps, 1.0)
        card = len(entries)
        for lam, emp, kl in entries:
            member = bound_catoni_linear(BoundInput(emp, kl, n, eps / card, 1.0), lam)
            assert cert.value <= member.value + 1e-12

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            bound_lambda_grid([], 100, 0.05, 1.0)


class TestMcAllesterMaurer:
    def test_worked_values(self):
        cert = bound_mcallester_maurer(BoundInput(0.0, 0.0, 1000, 0.05))
        expected = math.sqrt((math.log(20) + 2.5 * math.log(1000) + 8) / 1999)
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.11891017639600882, abs=1e-12)

        cert = bound_mcallester_maurer(make_input())
        expected = 0.26 + math.sqrt(
            (LOG100 + math.log(20) + 2.5 * math.log(1000) + 8) / 1999
        )
        assert cert.value == pytest.approx(expected, rel=1e-14)

    def test_limit_behavior(self):
        cert = bound_mcallester_maurer(BoundInput(0.37, 0.0, 10**9, 0.05))
        assert cert.value - 0.37 < 3e-4


class TestSeegerMaurer:
    def test_zero_risk_analytic(self):
        cert = bound_seeger_maurer(BoundInput(0.0, 0.0, 100, 0.05))
        b = math.log(2 * math.sqrt(100) / 0.05) / 100
        assert cert.value == pytest.approx(1 - math.exp(-b), abs=1e-8)
        assert cert.value == pytest.approx(grid_kl_inverse(0.0, b), abs=1e-6)
        assert b == pytest.approx(0.05991464547107982, abs=1e-15)

    def test_zero_budget(self):
        # n enormous drives the budget to ~0 and the bound back to emp_risk
        assert kl_inverse_upper(0.26, 0.0) == 0.26

    def test_reference_instance_against_grid(self):
        inp = make_input()
        cert = bound_seeger_maurer(inp)
        b = (LOG100 + math.log(2 * math.sqrt(1000) / 0.05)) / 1000
        assert b == pytest.approx(0.011747927279593095, abs=1e-15)
        assert cert.value == pytest.approx(grid_kl_inverse(0.26, b), abs=1e-6)

    def test_rejects_out_of_scale(self):
        with pytest.raises(ValueError):
            bound_seeger_maurer(BoundInput(1.3, 0.0, 100, 0.05, C=2.0))


@pytest.mark.parametrize("bound", [
    bound_seeger_maurer, bound_tolstikhin_seldin,
    lambda inp: bound_thiemann(inp, 1.0), lambda inp: bound_catoni_phi(inp, 10.0),
], ids=["seeger", "tolstikhin_seldin", "thiemann", "catoni_phi"])
def test_kl_form_refuses_a_range_above_one(bound):
    # a risk of 0.9 on [0, 2] was read on the 0-1 scale: seeger gave 0.974, where
    # the catalog row, at risk/C rescaled by C, gives 1.256
    with pytest.raises(ValueError, match="emp_risk and C must lie in"):
        bound(BoundInput(0.9, 0.5, 100, 0.05, C=2.0))
    assert bound(BoundInput(0.45, 0.5, 100, 0.05, C=0.5)).value >= 0.45


class TestTolstikhinSeldin:
    def test_zero_risk_fast_regime(self):
        cert = bound_tolstikhin_seldin(BoundInput(0.0, 0.0, 100, 0.05))
        expected = 2 * math.log(2 * math.sqrt(100) / 0.05) / 200
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.05991464547107982, abs=1e-12)
        assert cert.terms["complexity"] == 0.0  # no sqrt term at zero risk

    def test_reference_instance(self):
        cert = bound_tolstikhin_seldin(make_input())
        hb = (LOG100 + math.log(2 * math.sqrt(1000) / 0.05)) / 2000
        expected = 0.26 + math.sqrt(2 * 0.26 * hb) + 2 * hb
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.3270151064431275, abs=1e-12)

    def test_majorization_of_kl_inverse(self):
        # the relaxation kl^{-1}(q|b) <= q + sqrt(2qb) + 2b holds at the full
        # Seeger budget b; the theorem display halves the budget (its
        # denominators read 2n), so the displayed certificate is *not*
        # guaranteed to dominate the Seeger value and occasionally dips
        # below it -- see the decisions note.  We verify the inequality
        # that is actually true, and the half-budget relation of the
        # displayed form.
        rng = np.random.default_rng(2)
        for _ in range(200):
            inp = BoundInput(
                emp_risk=float(rng.uniform(0, 1)),
                kl=float(rng.uniform(0, 5)),
                n=int(rng.integers(10, 10000)),
                eps=float(rng.uniform(0.01, 0.5)),
            )
            seeger = bound_seeger_maurer(inp)
            b = seeger.details["budget"]
            majorized = inp.emp_risk + math.sqrt(2 * inp.emp_risk * b) + 2 * b
            assert seeger.value <= majorized + 1e-9
            ts = bound_tolstikhin_seldin(inp)
            assert ts.details["half_budget"] == pytest.approx(b / 2, rel=1e-12)


class TestThiemann:
    def test_worked_value(self):
        cert = bound_thiemann(BoundInput(0.0, 0.0, 100, 0.05), 1.0)
        expected = math.log(2 * math.sqrt(100) / 0.05) / (100 * 1.0 * 0.5)
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.11982929094215964, abs=1e-12)

    def test_reference_instance(self):
        cert = bound_thiemann(make_input(), 0.3)
        expected = 0.26 / 0.85 + (LOG100 + math.log(2 * math.sqrt(1000) / 0.05)) / (
            1000 * 0.3 * 0.85
        )
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.3519526559984043, abs=1e-12)

    def test_blow_up_as_lambda_vanishes(self):
        vals = [bound_thiemann(make_input(), lam).value for lam in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 10

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_thiemann(make_input(), 2.0)
        with pytest.raises(ValueError):
            bound_thiemann(make_input(), 0.0)


class TestCatoniPhi:
    def test_small_a_limit(self):
        inp = BoundInput(0.22, 1.0, 10**8, 0.1)
        cert = bound_catoni_phi(inp, 1.0)  # a = 1e-8
        q = 0.22 + (1.0 + math.log(10)) / 1.0
        assert cert.value == pytest.approx(q, abs=1e-6)

    def test_phi_inverse_worked_value(self):
        # q = 0.3, a = 1: (1 - e^{-0.3})/(1 - e^{-1})
        cert = bound_catoni_phi(BoundInput(0.3, 0.0, 100, 1 - 1e-12), 100.0)
        assert cert.value == pytest.approx(
            (1 - math.exp(-0.3)) / (1 - math.exp(-1)), rel=1e-10
        )
        assert cert.value == pytest.approx(0.4100195377, abs=1e-6)

    def test_reference_instance(self):
        lam = 246.63
        cert = bound_catoni_phi(make_input(), lam)
        a = lam / 1000
        q = 0.26 + (LOG100 + math.log(20)) / lam
        expected = (1 - math.exp(-a * q)) / (1 - math.exp(-a))
        assert cert.value == pytest.approx(expected, rel=1e-12)

    def test_saturates_above_one(self):
        cert = bound_catoni_phi(BoundInput(0.9, 5.0, 50, 0.05), 10.0)
        assert cert.value == pytest.approx(
            (1 - math.exp(-(10 / 50) * cert.details["phi_arg"])) / (1 - math.exp(-10 / 50)),
            rel=1e-12,
        )
        assert cert.details["phi_arg"] > 1


class TestGermainGeneric:
    def test_kl_choice_reproduces_seeger(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            emp = float(rng.uniform(0, 0.9))
            kl = float(rng.uniform(0, 4))
            n = int(rng.integers(20, 5000))
            eps = float(rng.uniform(0.01, 0.3))
            seeger = bound_seeger_maurer(BoundInput(emp, kl, n, eps))
            generic = bound_germain_generic(
                emp, kl, n, eps, math.log(2 * math.sqrt(n)), kl_bernoulli, tol=1e-9
            )
            assert generic.value == pytest.approx(seeger.value, abs=1e-9)

    def test_zero_budget(self):
        cert = bound_germain_generic(0.3, 0.0, 10**9, 1 - 1e-9, 0.0, kl_bernoulli)
        assert cert.value == pytest.approx(0.3, abs=1e-6)

    def test_catoni_phi_choice(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            emp = float(rng.uniform(0, 0.4))
            kl = float(rng.uniform(0, 2))
            n = int(rng.integers(100, 5000))
            eps = float(rng.uniform(0.02, 0.3))
            lam = float(rng.uniform(0.2, 2.0)) * math.sqrt(n)
            a = lam / n

            def catoni_D(p, q, a=a):
                return -math.log1p(-q * (1 - math.exp(-a))) - a * p

            phi = bound_catoni_phi(BoundInput(emp, kl, n, eps), lam)
            if phi.value >= 0.99:
                continue
            generic = bound_germain_generic(emp, kl, n, eps, 0.0, catoni_D, tol=1e-12)
            assert generic.value == pytest.approx(phi.value, abs=1e-9)

    def test_bracketing_failure(self):
        with pytest.raises(ValueError):
            bound_germain_generic(0.5, 0.0, 100, 0.5, 0.0, lambda p, q: 10.0 - q)

    @pytest.mark.parametrize("kl, log_moment", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_budget_is_rejected(self, kl, log_moment):
        # a NaN budget fails every comparison, so bisection would return p itself
        with pytest.raises(ValueError):
            bound_germain_generic(0.1, kl, 100, 0.05, log_moment, kl_bernoulli)

    def test_negative_kl_is_rejected(self):
        # a negative KL would shrink the budget and lower the certificate
        with pytest.raises(ValueError):
            bound_germain_generic(0.1, -0.3, 100, 0.05, 0.0, kl_bernoulli)


class TestSubGaussian:
    def test_optimal_lambda_identity(self):
        n, eps, C = 400, 0.1, 0.5
        lam = math.sqrt(n * math.log(1 / eps)) / C
        cert = bound_subgaussian(BoundInput(0.0, 0.0, n, eps, C), lam)
        assert cert.value == pytest.approx(2 * C * math.sqrt(math.log(1 / eps) / n), rel=1e-12)

    def test_worked_value(self):
        cert = bound_subgaussian(BoundInput(0.5, 1.0, 400, 0.1, 0.5), 40.0)
        expected = 0.5 + 40 * 0.25 / 400 + (1 + math.log(10)) / 40
        assert cert.value == pytest.approx(expected, rel=1e-14)
        assert cert.value == pytest.approx(0.6075646273249344, abs=1e-12)

    def test_penalty_is_eight_times_bounded_case(self):
        inp = make_input()
        lam = 100.0
        sub = bound_subgaussian(inp, lam)
        lin = bound_catoni_linear(inp, lam)
        assert sub.terms["slack"] == pytest.approx(8 * lin.terms["slack"], rel=1e-14)


class TestLinearEvaluator:
    @given(st.floats(0.0, 1.0), st.one_of(st.floats(0.0, 1e6), st.just(math.inf)),
           st.integers(1, 10**7), st.floats(1e-12, 0.999), st.floats(0.01, 100.0),
           st.floats(1e-6, 1e8))
    @settings(max_examples=300, deadline=None)
    def test_subgaussian_matches_the_hand_formula(self, emp, kl, n, eps, C, lam):
        emp = emp * C
        cert = bound_subgaussian(BoundInput(emp, kl, n, eps, C), lam)
        assert (cert.value, cert.terms, cert.lam, cert.vacuous) == \
            subgaussian_by_hand(emp, kl, n, eps, C, lam)

    @pytest.mark.parametrize("spec", [None, "closed_form"])
    @pytest.mark.parametrize("kl", [0.0, LOG100, 1e5, math.inf])
    def test_resolver_picks_the_closed_form(self, spec, kl):
        assert resolve_lambda(spec, kl, 1000, 0.05, 2.0) == \
            select_lambda_closed_form(kl, 1000, 0.05, 2.0)

    def test_resolver_passes_a_number_through(self):
        assert resolve_lambda(7.5, LOG100, 1000, 0.05) == 7.5
        assert resolve_lambda("2.5", LOG100, 1000, 0.05) == 2.5

    @pytest.mark.parametrize("spec", [0, 0.0, -1, -1.0, math.nan, "nan"])
    def test_resolver_rejects_a_nonpositive_lambda(self, spec):
        with pytest.raises(ValueError):
            resolve_lambda(spec, LOG100, 1000, 0.05)


class TestChiSquare:
    def test_rho_equals_pi(self):
        inp = BoundInput(0.2, 0.0, 1000, 0.05, chi2=0.0, kappa=1.0)
        cert = bound_chi_square(inp)
        assert cert.value == pytest.approx(0.2 + math.sqrt(1 / 50), rel=1e-14)
        assert cert.value == pytest.approx(0.3414213562373095, abs=1e-12)

    def test_worked_value(self):
        inp = BoundInput(0.0, 0.0, 500, 0.1, chi2=3.0, kappa=2.0)
        assert bound_chi_square(inp).value == pytest.approx(0.4, rel=1e-12)

    def test_eps_dependence_is_square_root(self):
        a = bound_chi_square(BoundInput(0.0, 0.0, 500, 0.1, chi2=1.0, kappa=1.0)).value
        b = bound_chi_square(BoundInput(0.0, 0.0, 500, 0.05, chi2=1.0, kappa=1.0)).value
        assert b == pytest.approx(a * math.sqrt(2), rel=1e-12)

    def test_missing_inputs(self):
        with pytest.raises(ValueError):
            bound_chi_square(BoundInput(0.0, 0.0, 500, 0.1, chi2=None, kappa=1.0))
        with pytest.raises(ValueError):
            bound_chi_square(BoundInput(0.0, 0.0, 500, 0.1, chi2=1.0, kappa=None))


class TestTruncated:
    def test_bounded_loss_truncation_inactive(self):
        rng = np.random.default_rng(6)
        losses = rng.uniform(0, 1, size=200)
        n, lam = 200, 50.0  # n/lam = 4 >= C = 1
        trunc = truncated_empirical_risk(losses, n, lam)
        # Psi is a strictly increasing transform, but no clipping occurs
        assert np.all(losses < n / lam)
        inp = BoundInput(float(losses.mean()), 0.5, n, 0.05)
        cert = bound_truncated(inp, lam, trunc, 0.0)
        assert cert.terms["slack"] == 0.0
        assert math.isfinite(cert.value)

    @pytest.mark.parametrize("trunc, tail", [(math.nan, 0.0), (0.1, math.nan), (0.1, -0.1)])
    def test_nan_or_negative_terms_are_rejected(self, trunc, tail):
        with pytest.raises(ValueError):
            bound_truncated(BoundInput(0.1, 0.5, 100, 0.05), 10.0, trunc, tail)

    @pytest.mark.parametrize("n, m", [(60, 8), (40, 8), (1000, 300), (7, 5)])
    def test_one_pass_matches_the_column_loop(self, n, m):
        losses = np.random.default_rng(n + m).uniform(0.0, 1.0, size=(n, m))
        data = BoundData(losses.mean(axis=0), n, 0.05, losses=losses)
        for lam in (1.0, n / 2.0, 3.0 * n):  # 3n clips losses above 1/3, where Psi is +inf
            assert np.array_equal(data.truncated_risks(lam), truncated_risks_loop(losses, n, lam))
            assert data.truncated_risks(lam) is data.truncated_risks(lam)

    def test_small_alpha_identity(self):
        assert psi_inverse(1e-8, 0.3) == pytest.approx(0.3, abs=1e-6)
        assert psi_inverse(0.0, 0.3) == 0.3

    def test_psi_inverse_worked_value(self):
        assert psi_inverse(1.0, 0.3) == pytest.approx(1 - math.exp(-0.3), rel=1e-12)
        assert psi_inverse(1.0, 0.3) == pytest.approx(0.2591817793182821, abs=1e-12)

    def test_psi_pair_inverts(self):
        from pacbayes.bounds import psi_transform

        for u in (0.0, 0.2, 0.7):
            assert psi_inverse(0.5, psi_transform(0.5, u)) == pytest.approx(u, rel=1e-12)


class TestLocalizedEmpirical:
    def setup_method(self):
        self.r = np.array([0.1, 0.2, 0.4])
        self.pi = DiscreteDistribution.uniform(3)
        self.rho = DiscreteDistribution.dirac(3, 0)

    def test_xi_zero_reduces_to_plain_prior(self):
        cert = bound_localized_empirical(self.r, self.rho, self.pi, 100, 0.05, 10.0, 0.0)
        kl = kl_discrete(self.rho, self.pi)
        expected = (0.1 + kl + math.log(2 / 0.05)) / (
            10.0 + bernstein_g(0.1) * 100.0 / 100
        )
        assert cert.value == pytest.approx(expected, rel=1e-12)

    def test_step_by_step_oracle(self):
        lam, xi, n, eps = 10.0, 0.5, 100, 0.05
        # independent recomputation of every displayed piece
        w = np.exp(-xi * self.r) / np.sum(np.exp(-xi * self.r) * (1 / 3)) / 3
        kl_local = -math.log(w[0])
        g = (math.exp(lam / n) - 1 - lam / n) / (lam / n) ** 2
        numer = (1 - xi) * 0.1 + kl_local + (1 + xi) * math.log(2 / eps)
        denom = (1 - xi) * lam + (1 + xi) * g * lam**2 / n
        cert = bound_localized_empirical(self.r, self.rho, self.pi, n, eps, lam, xi)
        assert cert.value == pytest.approx(numer / denom, rel=1e-12)

    def test_localization_shrinks_kl_for_good_posteriors(self):
        cert = bound_localized_empirical(self.r, self.rho, self.pi, 100, 0.05, 10.0, 0.5)
        assert cert.details["kl_localized"] < kl_discrete(self.rho, self.pi)

    def test_xi_domain(self):
        with pytest.raises(ValueError):
            bound_localized_empirical(self.r, self.rho, self.pi, 100, 0.05, 10.0, 1.0)

    def test_lambda_beyond_the_range_of_expm1_is_refused(self):
        # g(lambda/n) overflowed (an OverflowError) past 709.78; a +inf
        # denominator would certify 0
        assert bernstein_g(709.0) < math.inf and bernstein_g(710.0) == math.inf
        data = BoundData(self.r, 100, 0.05, prior=self.pi, xi=0.5)
        with pytest.raises(ValueError, match="lambda = 100000.0"):
            bound_localized_empirical(self.r, self.rho, self.pi, 100, 0.05, 1e5, 0.5)
        with pytest.raises(ValueError, match="lambda = 100000.0"):
            BOUND_TABLE["localized_empirical"].values(data, self.rho.weights[None, :],
                                                      np.array([0.1]), np.array([0.0]), 1e5)

    @pytest.mark.parametrize("n", [0, -5, 1.5])
    def test_sample_size_domain(self, n):
        # n = 0 once divided by zero and n = -5 certified a negative value
        with pytest.raises(ValueError):
            bound_localized_empirical(self.r, self.rho, self.pi, n, 0.05, 10.0, 0.5)


class TestSharedInvariants:
    def _certificates(self, emp, kl, n, eps, C):
        inp = BoundInput(emp, kl, n, eps, C)
        inp01 = BoundInput(min(emp, 1.0), kl, n, eps, 1.0, chi2=1.0, kappa=1.0)
        return [
            bound_union_finite(emp, n, eps, C, log_M=kl),
            bound_catoni_linear(inp, 25.0),
            bound_mcallester_maurer(inp01),
            bound_seeger_maurer(inp01),
            bound_tolstikhin_seldin(inp01),
            bound_thiemann(inp01, 1.0),
            bound_catoni_phi(inp01, 25.0),
            bound_subgaussian(inp, 25.0),
            bound_chi_square(inp01),
            bound_truncated(inp, 25.0, emp, 0.0),
        ]

    def test_nondecreasing_in_kl_and_confidence(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            emp = float(rng.uniform(0, 0.8))
            kl = float(rng.uniform(0, 4))
            n = int(rng.integers(50, 5000))
            eps = float(rng.uniform(0.02, 0.4))
            base = self._certificates(emp, kl, n, eps, 1.0)
            more_kl = self._certificates(emp, kl + 0.7, n, eps, 1.0)
            smaller_eps = self._certificates(emp, kl, n, eps / 3, 1.0)
            for b, mk, se in zip(base, more_kl, smaller_eps):
                assert mk.value >= b.value - 1e-12, b.bound_id
                assert se.value >= b.value - 1e-12, b.bound_id

    def test_terms_sum_to_value(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            certs = self._certificates(
                float(rng.uniform(0, 0.8)),
                float(rng.uniform(0, 4)),
                int(rng.integers(50, 5000)),
                float(rng.uniform(0.02, 0.4)),
                1.0,
            )
            for cert in certs:
                assert sum(cert.terms.values()) == pytest.approx(
                    cert.value, abs=1e-12
                ), cert.bound_id

    def test_vacuous_flag(self):
        assert bound_union_finite(0.9, 10, 0.05, 1.0, M=1000).vacuous
        assert not bound_union_finite(0.1, 100000, 0.05, 1.0, M=2).vacuous


class TestCatalogTable:
    @pytest.mark.parametrize("C", [1.0, 2.0])
    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    def test_no_nan_at_infinite_kl(self, bound_id, C):
        # each rho charges an index where the prior vanishes: KL(rho || pi) = inf,
        # and the closed-form lambda sqrt(8 n (KL + log(1/eps)))/C is inf too;
        # the second sits on hypothesis 3, which never errs, so E_rho[r] = 0
        n, eps = 40, 0.05
        losses = C * (np.arange(n)[:, None] % np.array([5, 3, 4, n + 1]) == 0)
        losses[0, 3] = 0.0
        emp_risk = losses.mean(axis=0)
        prior = DiscreteDistribution(np.array([0.5, 0.5, 0.0, 0.0]))
        rhos = [DiscreteDistribution(np.array([0.5, 0.0, 0.5, 0.0])),
                DiscreteDistribution.dirac(4, 3)]
        data = BoundData(emp_risk, n, eps, C, prior=prior, kappa=0.25, losses=losses)
        emps = np.array([rho.weights for rho in rhos]) @ emp_risk
        assert emps[1] == 0.0
        entry = BOUND_TABLE[bound_id]
        lams = {"free": [select_lambda_closed_form(math.inf, n, eps, C), 5.0],
                "fixed": [None, 1.5]}.get(entry.lam_kind, [None])
        W = np.array([rho.weights for rho in rhos])
        kls = np.full(len(rhos), math.inf)
        for lam in lams:
            if entry.tail_free and n / lam < C:
                for rho, emp in zip(rhos, emps.tolist()):
                    with pytest.raises(ValueError):  # refused, never a NaN certificate
                        entry.certify(data, rho, emp, math.inf, lam)
                with pytest.raises(ValueError):
                    entry.values(data, W, emps, kls, lam)
                continue
            certs = [entry.certify(data, rho, emp, math.inf, lam)
                     for rho, emp in zip(rhos, emps.tolist())]
            for cert in certs:
                assert not math.isnan(cert.value), (bound_id, lam)
                assert not any(math.isnan(v) for v in cert.terms.values()), (bound_id, lam)
                if "posterior" in entry.requires:
                    assert cert.vacuous, (bound_id, lam)
            if "posterior" in entry.requires and entry.columns is not None:
                # the values column keeps certify's bits here too (at lam = inf
                # the free-lambda formulas would read inf/inf = NaN)
                values = entry.values(data, W, emps, kls, lam)
                assert values.tolist() == [cert.value for cert in certs], (bound_id, lam)

    @pytest.mark.parametrize("bound_id, lam_rule", [
        ("union_finite", "closed_form"), ("mcallester", "closed_form"),
        ("catoni_linear", "closed_form"), ("subgaussian", "closed_form"),
        ("seeger", "shared"), ("tolstikhin_seldin", "shared"), ("thiemann", "shared"),
        ("catoni_phi", "shared")])
    def test_certificate_scales_with_C(self, bound_id, lam_rule):
        # risks times C give C times the C = 1 certificate; a free lambda is
        # the closed form at each C, any other lambda is shared by both runs
        entry = BOUND_TABLE[bound_id]
        rng = np.random.default_rng(19)
        for _ in range(20):
            m, n = int(rng.integers(2, 8)), int(rng.integers(5, 2001))
            eps = float(rng.uniform(0.01, 0.5))
            r, rho = rng.uniform(0, 1, m), DiscreteDistribution(rng.dirichlet(np.ones(m)))
            prior = DiscreteDistribution.uniform(m)
            kl = kl_discrete(rho, prior)
            shared = {"thiemann": None, "catoni_phi": float(rng.uniform(1, n))}.get(bound_id)

            def value(C):
                lam = (select_lambda_closed_form(kl, n, eps, C) if entry.lam_kind == "free"
                       and lam_rule == "closed_form" else shared)
                data = BoundData(r * C, n, eps, C, prior=prior)
                return entry.certify(data, rho, float(rho.weights @ (r * C)), kl, lam).value

            base = value(1.0)
            for C in (0.5, 2.0, 10.0, 1e3):
                assert value(C) == pytest.approx(C * base, rel=1e-12, abs=0), (bound_id, C)

    @pytest.mark.parametrize("bound_id", [b for b in BOUND_IDS if "posterior" in
                                          BOUND_TABLE[b].requires and BOUND_TABLE[b].scale != "unit"])
    def test_nan_kl_is_rejected(self, bound_id):
        # a NaN KL fails every comparison a certificate makes; none may come out
        # (localized_empirical, on the "unit" scale, computes its own KL)
        n, eps = 40, 0.05
        losses = (np.arange(n)[:, None] % np.array([5, 3, 4]) == 0).astype(float)
        prior = DiscreteDistribution.uniform(3)
        data = BoundData(losses.mean(axis=0), n, eps, 1.0, prior=prior, kappa=0.25,
                         losses=losses)
        with pytest.raises(ValueError):
            BOUND_TABLE[bound_id].certify(data, prior, 0.2, math.nan, 1.5)

    def test_readme_table_matches_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = cells[1:]
        assert list(rows) == list(BOUND_IDS)
        for bound_id, (requires, policy, scale) in rows.items():
            entry = BOUND_TABLE[bound_id]
            assert requires == ", ".join(entry.requires), bound_id
            # the lambda-policy and loss-scale cells open with the table's keyword
            assert re.match(r"\w+", policy).group() == entry.lam_kind, bound_id
            assert re.match(r"\w+", scale).group() == entry.scale, bound_id


class TestLambdaGate:
    """Every bound is a theorem for a fixed lambda > 0: at a finite KL each
    lambda-taking entry point refuses lambda in {0, -1, NaN, +inf}, and
    lambda = +inf, the closed form at KL = +inf, gives the vacuous certificate."""

    BAD = [0.0, -1.0, math.nan, math.inf]
    CALLS = {
        "catoni_linear": lambda lam: bound_catoni_linear(make_input(), lam),
        "subgaussian": lambda lam: bound_subgaussian(make_input(), lam),
        "thiemann": lambda lam: bound_thiemann(make_input(), lam),
        # at E_rho[r] = 0 and lambda = +inf this once certified NaN
        "catoni_phi": lambda lam: bound_catoni_phi(make_input(emp=0.0), lam),
        # at lambda = +inf this once certified 0.0, below its empirical risk
        "truncated": lambda lam: bound_truncated(make_input(0.1, 1.0, 100), lam, 0.1, 0.0),
        "localized_empirical": lambda lam: bound_localized_empirical(
            [0.0, 0.2, 0.4], DiscreteDistribution.dirac(3, 0), DiscreteDistribution.uniform(3),
            100, 0.05, lam, 0.5),
        "resolve_lambda": lambda lam: resolve_lambda(lam, LOG100, 1000, 0.05),
        "lambda_grid": lambda lam: bound_lambda_grid([(5.0, 0.2, 1.5), (lam, 0.2, 1.5)], 400,
                                                     0.1),
    }

    @pytest.mark.parametrize("lam", BAD)
    @pytest.mark.parametrize("name", CALLS)
    def test_refused_at_a_finite_kl(self, name, lam):
        with pytest.raises(ValueError, match="lambda"):
            self.CALLS[name](lam)

    @pytest.mark.parametrize("lam", BAD)
    @pytest.mark.parametrize("bound_id", [b for b in BOUND_IDS
                                          if BOUND_TABLE[b].lam_kind in ("free", "fixed")])
    def test_rows_refuse_it_at_a_finite_kl(self, bound_id, lam):
        n = 40
        losses = (np.arange(n)[:, None] % np.array([5, 3, 4]) == 0).astype(float)
        prior = DiscreteDistribution.uniform(3)
        data = BoundData(losses.mean(axis=0), n, 0.05, prior=prior, kappa=0.25, losses=losses)
        entry = BOUND_TABLE[bound_id]
        with pytest.raises(ValueError, match="lambda"):
            entry.certify(data, prior, 0.2, 0.5, lam)
        # one finite KL in a column is enough to refuse lambda = +inf
        W = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(ValueError, match="lambda"):
            entry.values(data, W, W @ data.emp_risk, np.array([math.inf, 0.5]), lam)

    def test_infinite_lambda_at_infinite_kl_is_vacuous(self):
        inp = make_input(emp=0.0, kl=math.inf)
        for bound in (bound_catoni_linear, bound_subgaussian, bound_catoni_phi):
            cert = bound(inp, math.inf)
            assert cert.value == math.inf and cert.vacuous, cert.bound_id
        pi = DiscreteDistribution(np.array([0.5, 0.5, 0.0]))
        cert = bound_localized_empirical([0.1, 0.3, 0.0], DiscreteDistribution.dirac(3, 2), pi,
                                         100, 0.05, math.inf, 0.5)
        assert cert.value == math.inf and cert.vacuous
        assert resolve_lambda(math.inf, math.inf, 1000, 0.05) == math.inf


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestColumns:
    """Row i of every row's array formula is the certify value of posterior i,
    to the bit, on every scale, at C = 1 and 2, with infinite KLs among the rows."""

    @staticmethod
    def instance(seed, C, inf_kl):
        rng = np.random.default_rng(seed)
        m, n, T = int(rng.integers(2, 7)), int(rng.integers(5, 300)), int(rng.integers(1, 6))
        losses = C * rng.random((n, m))
        prior = rng.random(m) + 0.05
        if inf_kl:
            prior[0] = 0.0
        prior = DiscreteDistribution(prior / prior.sum())
        W = rng.dirichlet(np.ones(m), size=T)
        W[0] = np.eye(m)[int(rng.integers(m))]  # a Dirac row
        if not inf_kl:
            W[:, prior.weights == 0] = 0.0
            W /= W.sum(axis=1, keepdims=True)
        fields = {"emp_risk": losses.mean(axis=0), "n": n, "eps": float(rng.uniform(0.01, 0.5)),
                  "C": C, "prior": prior, "kappa": float(rng.uniform(0.05, 2.0)),
                  "losses": losses, "xi": float(rng.uniform(0.0, 0.95))}
        lams = {"free": float(rng.uniform(0.5, n / C)), "fixed": float(rng.uniform(0.05, 1.95))}
        return W, fields, lams

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), C=st.sampled_from([1.0, 2.0]), inf_kl=st.booleans())
    def test_row_i_is_certify_of_posterior_i(self, seed, C, inf_kl):
        W, fields, lams = self.instance(seed, C, inf_kl)
        emp = W @ fields["emp_risk"]
        kl = np.array([kl_discrete(DiscreteDistribution(w), fields["prior"]) for w in W])
        data = BoundData(**fields)
        for bound_id, entry in BOUND_TABLE.items():
            if "posterior" not in entry.requires:
                continue
            lam = lams.get(entry.lam_kind)
            values = entry.values(data, W, emp, kl, lam)
            assert values.shape == (len(W),), bound_id
            for i, w in enumerate(W):
                cert = entry.certify(data, DiscreteDistribution(w), float(emp[i]), float(kl[i]),
                                     lam)
                assert _same(values[i], cert.value), (bound_id, i, values[i], cert.value)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), C=st.sampled_from([1.0, 2.0]), inf_kl=st.booleans())
    def test_a_lambda_column_is_the_one_lambda_calls(self, seed, C, inf_kl):
        # row j of the values at a column of lambdas is the call at lam[j], by
        # repr, for every row with a lambda policy: at lambdas every such row
        # takes, then at its own search list
        W, fields, _ = self.instance(seed, C, inf_kl)
        emp = W @ fields["emp_risk"]
        kl = np.array([kl_discrete(DiscreteDistribution(w), fields["prior"]) for w in W])
        data = BoundData(**fields)
        for bound_id, entry in BOUND_TABLE.items():
            if entry.lam_kind not in ("free", "fixed"):
                continue
            lams = [0.05, 0.5, 1.0, 1.5, 1.95, *entry.search(fields["n"], W.shape[1],
                                                                  fields["eps"], C)]
            column = entry.values(data, W, emp, kl, lams)
            assert column.shape == (len(lams), len(W)), bound_id
            for j, lam in enumerate(lams):
                one = entry.values(data, W, emp, kl, lam)
                assert repr(column[j].tolist()) == repr(one.tolist()), (bound_id, lam)

    @pytest.mark.parametrize("C", [1.0, 2.0])
    @pytest.mark.parametrize("size, loop_calls, column_calls", [
        (divergences._KL_INVERSE_COLUMN_MIN - 1, divergences._KL_INVERSE_COLUMN_MIN - 1, 0),
        (divergences._KL_INVERSE_COLUMN_MIN, 0, 1),
    ], ids=["below_the_switch", "at_the_switch"])
    def test_seeger_column_on_both_sides_of_the_switch(self, size, loop_calls, column_calls, C,
                                                       monkeypatch):
        # one kl_inverse_upper call per column, which bisects element by element
        # below the switch and in one array pass at it; either way value i is
        # C times bound_seeger_maurer's
        rng = np.random.default_rng(size)
        m, n, eps = 6, 200, 0.05
        prior = DiscreteDistribution.uniform(m)
        W = rng.dirichlet(np.ones(m), size=size)
        W[:3] = np.eye(m)[:3]
        risks = C * rng.random(m)
        risks[0] = 0.0
        emp, kl = W @ risks, np.array([kl_discrete(DiscreteDistribution(w), prior) for w in W])
        kl[3] = math.inf
        calls = dict.fromkeys(["kl_inverse_upper", "_bisect_upper", "_kl_inverse_upper_columns"], 0)

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(divergences, name, counted(name, getattr(divergences, name)))
        monkeypatch.setattr(bounds, "kl_inverse_upper", divergences.kl_inverse_upper)
        values = BOUND_TABLE["seeger"].values(BoundData(risks, n, eps, C, prior=prior), W, emp, kl)
        assert calls == {"kl_inverse_upper": 1, "_bisect_upper": loop_calls,
                         "_kl_inverse_upper_columns": column_calls}
        for i in range(size):
            want = C * bound_seeger_maurer(BoundInput(emp[i] / C, kl[i], n, eps)).value
            assert values[i].tobytes() == np.float64(want).tobytes(), i

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), C=st.sampled_from([1.0, 2.0]))
    def test_union_row_per_risk_row(self, seed, C):
        rng = np.random.default_rng(seed)
        R = C * rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 9))))
        fields = {"n": int(rng.integers(1, 500)), "eps": float(rng.uniform(0.01, 0.5)), "C": C}
        entry = BOUND_TABLE["union_finite"]
        values = entry.values(BoundData(R, **fields))
        for r, value in zip(R, values):
            assert value == entry.certify(BoundData(r, **fields)).value

    @pytest.mark.parametrize("emp, kl, match", [
        ([0.2, 1.5], [0.1, 0.2], "emp_risk must lie in"),
        ([0.2, 0.3], [0.1, math.nan], "kl must be nonnegative"),
        ([0.2, 0.3], [0.1, -0.2], "kl must be nonnegative"),
    ])
    def test_the_block_check_refuses_what_certify_refuses(self, emp, kl, match):
        W = np.full((2, 2), 0.5)
        fields = {"emp_risk": np.array([0.2, 0.3]), "n": 50, "eps": 0.1, "C": 1.0,
                  "prior": DiscreteDistribution.uniform(2)}
        for bound_id in ("mcallester", "seeger"):
            with pytest.raises(ValueError, match=match):
                BOUND_TABLE[bound_id].values(BoundData(**fields), W, np.array(emp), np.array(kl))

    def test_the_block_check_refuses_a_lambda_out_of_range(self):
        fields = {"emp_risk": np.array([0.2, 0.3]), "n": 50, "eps": 0.1}
        with pytest.raises(ValueError, match="must lie in"):
            BOUND_TABLE["thiemann"].values(BoundData(**fields), np.full((1, 2), 0.5),
                                           np.array([0.2]), np.array([0.1]), 2.5)
        with pytest.raises(ValueError, match="needs posterior"):
            BOUND_TABLE["mcallester"].values(BoundData(**fields), None, np.array([0.2]),
                                             np.array([0.1]))
