"""Divergence layer: worked examples against independent oracles, plus the
structural properties (Pinsker as stated, convexity, inverse consistency,
nonnegativity with its equality case, and the variational gap contract)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacbayes import divergences
from pacbayes.divergences import (
    DiagonalGaussian,
    DiscreteDistribution,
    chi2_discrete,
    dv_gap,
    gibbs_reweight,
    kl_bernoulli,
    kl_discrete,
    kl_gaussian_diag,
    kl_inverse_upper,
    kl_uniform_ball,
    _kl_inverse_upper_columns,
    _kl_log_prior,
    _log_gibbs,
    _logsumexp,
)
from scipy.special import logsumexp

from oracles import (
    grid_kl_inverse,
    kl_gaussian_quadrature,
    kl_inverse_upper_masked_loop,
    kl_log_prior_loop,
    mp_kl_inverse_upper,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
inner_probs = st.floats(min_value=1e-6, max_value=1 - 1e-6)


def random_distribution(rng, m):
    return DiscreteDistribution.from_weights(rng.random(m) + 1e-3)


class TestDiscreteDistribution:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    def test_validates_sign(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.5, -0.5]))

    def test_uniform_and_dirac(self):
        u = DiscreteDistribution.uniform(4)
        assert np.allclose(u.weights, 0.25)
        d = DiscreteDistribution.dirac(4, 2)
        assert d.weights[2] == 1.0 and d.weights.sum() == 1.0

    @pytest.mark.parametrize("index", [-1, -4, 4, 5])
    def test_dirac_index_out_of_range(self, index):
        # -1 once named the last hypothesis and 4 raised IndexError
        with pytest.raises(ValueError, match=r"index must be an integer in \[0, 4\)"):
            DiscreteDistribution.dirac(4, index)


class TestKlBernoulli:
    def test_equal_arguments(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_worked_values(self):
        # frozen from direct high-precision evaluation of the closed form
        assert kl_bernoulli(0.1, 0.5) == pytest.approx(0.3680642071684971, abs=1e-12)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_boundary_conventions(self):
        assert kl_bernoulli(0.0, 0.3) == pytest.approx(-math.log(0.7))
        assert kl_bernoulli(1.0, 0.3) == pytest.approx(-math.log(0.3))
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.2)

    @given(probs, probs)
    def test_pinsker_as_stated(self, p, q):
        # tested in the form kl(p|q) >= (p-q)^2; the classical constant is 2,
        # which implies this weaker statement
        assert kl_bernoulli(p, q) >= (p - q) ** 2 - 1e-15

    @given(inner_probs, inner_probs, inner_probs, inner_probs,
           st.floats(min_value=0.0, max_value=1.0))
    @example(0.5, 0.99999, 0.5, 0.99999, 0.359375)
    @example(0.5, 0.9999989999999999, 0.5, 0.999999, 0.09588063161419805)
    @settings(max_examples=200)
    def test_joint_convexity(self, p1, q1, p2, q2, a):
        p, q = a * p1 + (1 - a) * p2, a * q1 + (1 - a) * q2

        def mix_error(x, x1, x2):
            w = Fraction(a)
            return float(abs(Fraction(x) - w * Fraction(x1) - (1 - w) * Fraction(x2)))

        # the float mixture lands up to about 2 ulp off the exact one, where
        # kl(p|q) can be steep (slope 5e4 at q = 0.99999): allow kl's
        # first-order change over the rounding of each mixed coordinate
        rounding = (abs(math.log(p * (1 - q) / (q * (1 - p)))) * mix_error(p, p1, p2)
                    + abs(q - p) / (q * (1 - q)) * mix_error(q, q1, q2))
        mix = kl_bernoulli(p, q)
        bound = a * kl_bernoulli(p1, q1) + (1 - a) * kl_bernoulli(p2, q2)
        assert mix <= bound + 1e-12 + rounding


class TestKlInverseUpper:
    def test_zero_budget(self):
        assert kl_inverse_upper(0.4, 0.0) == 0.4

    def test_analytic_q_zero(self):
        # kl(0|p) = -log(1-p), so the inverse at budget b is 1 - e^{-b}
        b = 0.6931471805599453
        assert kl_inverse_upper(0.0, b) == pytest.approx(1 - math.exp(-b), abs=1e-8)
        assert kl_inverse_upper(0.0, b) == pytest.approx(0.5, abs=1e-8)

    def test_against_grid_oracle(self):
        assert kl_inverse_upper(0.26, 0.0046) == pytest.approx(
            grid_kl_inverse(0.26, 0.0046), abs=1e-6
        )

    def test_q_one(self):
        assert kl_inverse_upper(1.0, 0.5) == 1.0

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            kl_inverse_upper(0.3, -1e-9)
        with pytest.raises(ValueError):
            kl_inverse_upper(0.3, math.nan)

    @given(inner_probs, st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=200)
    def test_monotone_in_budget(self, q, b1, b2):
        lo, hi = sorted((b1, b2))
        assert kl_inverse_upper(q, lo) <= kl_inverse_upper(q, hi) + 1e-12

    @given(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1 - 1e-6),
                     st.floats(min_value=1e-7, max_value=1e-5),
                     st.floats(min_value=1 - 1e-5, max_value=1 - 1e-6)),
           st.floats(min_value=1e-12, max_value=30.0))
    @settings(max_examples=300, deadline=None)
    @example(0.8846413441419358, 2.9057198971906876e-12)  # kl(q|p) loses to cancellation here
    def test_never_below_the_mpmath_inverse(self, q, b):
        # a certificate must not fall short of the true inverse: p* <= p <= p* + tol
        p = kl_inverse_upper(q, b)
        exact = mp_kl_inverse_upper(q, b)
        assert exact <= p <= exact + 1e-9

    @given(inner_probs, st.floats(min_value=1e-6, max_value=3.0))
    @settings(max_examples=200)
    def test_inverse_consistency(self, q, b):
        # the result is rounded up, so it sits at or past the budget
        p = kl_inverse_upper(q, b)
        assert kl_bernoulli(q, p) >= b or p == 1.0


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def scalar_inverses(q, b) -> np.ndarray:
    return np.array([kl_inverse_upper(x, y) for x, y in zip(np.ravel(q), np.ravel(b))])


edge_qs = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1 - 1e-10, 1 - 2**-53]),
                    st.floats(min_value=0.0, max_value=1.0),
                    st.floats(min_value=0.0, max_value=1e-12),
                    st.floats(min_value=1 - 1e-10, max_value=1.0))
edge_budgets = st.one_of(st.sampled_from([0.0, math.inf, 5e-324, 1e-300]),
                         st.floats(min_value=0.0, max_value=1e-12),
                         st.floats(min_value=0.0, max_value=40.0))


class TestKlInverseColumns:
    """The array kl inverse has the bits of kl_inverse_upper element by element."""

    EDGE_Q = [0.0, 1.0, 5e-324, 1e-13, 0.3, 0.999, 1 - 1e-10, 1 - 5e-11, 1 - 2**-53]
    EDGE_B = [0.0, math.inf, 5e-324, 1e-13, 1e-3, 0.7, 30.0]

    def test_edges_cross_product(self):
        q, b = (a.ravel() for a in np.meshgrid(self.EDGE_Q, self.EDGE_B))
        assert same_bits(_kl_inverse_upper_columns(q, b), scalar_inverses(q, b))

    @given(st.lists(st.tuples(edge_qs, edge_budgets), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    @example([(0.0, 0.0), (1.0, 0.0), (0.0, math.inf), (1.0, math.inf)])
    @example([(1e-13, 1e-13), (1 - 1e-11, 1e-13), (0.8846413441419358, 2.9057198971906876e-12)])
    def test_same_bits_as_the_scalar_path(self, pairs):
        q, b = np.array(pairs, dtype=float).T
        assert same_bits(_kl_inverse_upper_columns(q, b), scalar_inverses(q, b))

    def test_budgets_on_the_bisection_path(self):
        # b = kl(q|mid) at a midpoint the scalar bisection visits makes its test
        # kl <= b an exact tie, where numpy's and libm's logs may round apart
        rng = np.random.default_rng(2)
        q, b = [], []
        for x in np.concatenate([rng.random(150), 10.0 ** rng.uniform(-12, -1, 50)]):
            lo, hi = float(x), 1.0
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                q.append(float(x))
                b.append(kl_bernoulli(float(x), mid))
                lo, hi = (mid, hi) if rng.random() < 0.5 else (lo, mid)
        q, b = np.array(q), np.array(b)
        assert same_bits(_kl_inverse_upper_columns(q, b), scalar_inverses(q, b))

    def test_broadcasts_and_keeps_the_shape(self):
        q, b = np.array([[0.1, 0.5], [0.9, 0.0]]), np.full((2, 2), 0.2)
        got = _kl_inverse_upper_columns(q, b)
        assert got.shape == (2, 2)
        assert same_bits(got, scalar_inverses(q, b).reshape(2, 2))

    @pytest.mark.parametrize("q, b, match", [
        ([0.2, -0.1], [0.1, 0.1], r"q must lie in \[0, 1\], got -0.1"),
        ([0.2, math.nan], [0.1, 0.1], r"q must lie in \[0, 1\], got nan"),
        ([0.2, 1.5], [0.1, -1.0], r"q must lie in \[0, 1\], got 1.5"),
        ([0.2, 0.3], [0.1, -1e-9], "budget b must be nonnegative, got -1e-09"),
        ([0.2, 0.3], [math.nan, 0.1], "budget b must be nonnegative, got nan"),
    ])
    def test_refuses_what_the_scalar_path_refuses(self, q, b, match):
        # the first bad q, else the first bad b, on both sides of the switch
        pad = divergences._KL_INVERSE_COLUMN_MIN
        for size in (len(q), len(q) + pad):
            with pytest.raises(ValueError, match=match):
                kl_inverse_upper(np.resize(q, size), np.resize(b, size))
        with pytest.raises(ValueError, match=match):
            scalar_inverses(q, b)

    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1 - 1e-6),
                                        st.floats(1e-7, 1e-5)),
                              st.floats(min_value=1e-12, max_value=30.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_never_below_the_mpmath_inverse(self, pairs):
        q, b = np.array(pairs, dtype=float).T
        for p, x, y in zip(_kl_inverse_upper_columns(q, b), q, b):
            exact = mp_kl_inverse_upper(float(x), float(y))
            assert exact <= p <= exact + 1e-9


replay_qs = st.one_of(st.sampled_from([0.0, 5e-324, 1 - 2**-53, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0))
replay_budgets = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e3]),
                           st.floats(min_value=0.0, max_value=1e-12),
                           st.floats(min_value=0.0, max_value=10.0))


class TestKlInverseReplay:
    """The column inverse replays the masked bisection it replaced, bit for
    bit, deciding a midpoint from its checked bracket wherever it can."""

    @given(st.lists(st.tuples(replay_qs, replay_budgets), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    @example([(q, b) for q in (0.0, 5e-324, 1 - 2**-53, 1.0) for b in (0.0, 5e-324, 1e-300, 1e3)])
    def test_same_bits_as_the_masked_bisection(self, pairs):
        q, b = np.array(pairs, dtype=float).T
        assert same_bits(_kl_inverse_upper_columns(q, b), kl_inverse_upper_masked_loop(q, b))

    @given(st.lists(st.tuples(st.floats(0.0, 1 - 1e-6), st.floats(1e-9, 10.0)), min_size=1,
                    max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bracket_ends_pass_and_fail_the_exact_test(self, pairs):
        # every x in [q, a] passes kl_bernoulli(q, x) <= b and every x in [c, 1)
        # fails it; probe each end and its neighbouring floats
        q, b = np.array(pairs, dtype=float).T
        a, c = divergences._kl_root_bracket(q, 1.0 - q, b)
        for x, y, lo, hi in zip(q, b, a, c):
            assert x <= lo < hi <= 1.0
            if lo > x:
                for z in (lo, np.nextafter(lo, 0.0), 0.5 * (x + lo)):
                    assert kl_bernoulli(x, max(z, x)) <= y, (x, y, z)
            if hi < 1.0:
                for z in (hi, np.nextafter(hi, 1.0), 0.5 * (hi + 1.0)):
                    assert kl_bernoulli(x, min(z, np.nextafter(1.0, 0.0))) > y, (x, y, z)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_typical_column_brackets_every_root_tightly(self, seed):
        # columns like mc_lab's seeger ones: the masked bisection tested about
        # 30 midpoints an element, the replay only those between the ends
        q, b = np.random.default_rng(seed).uniform([[0.05], [0.005]], [[0.6], [0.1]], (2, 100))
        a, c = divergences._kl_root_bracket(q, 1.0 - q, b)
        assert (q < a).all() and (c < 1.0).all() and (c - a < 1e-11).all()
        assert same_bits(_kl_inverse_upper_columns(q, b), kl_inverse_upper_masked_loop(q, b))


class TestKlInverseEntry:
    """kl_inverse_upper takes floats or arrays and picks its bisection by size;
    every element has the bits of its one-element call."""

    def test_a_float_pair_gives_a_float(self):
        assert type(kl_inverse_upper(0.3, 0.1)) is float
        assert type(kl_inverse_upper(np.float64(1.0), 0)) is float

    def test_a_float_pair_has_the_bits_of_its_one_element_array(self):
        # two numbers skip the arrays, and keep the bits of the array call
        for q in TestKlInverseColumns.EDGE_Q:
            for b in TestKlInverseColumns.EDGE_B:
                got = kl_inverse_upper(q, b)
                assert type(got) is float
                assert same_bits(got, kl_inverse_upper(np.array([q]), np.array([b]))), (q, b)

    @pytest.mark.parametrize("q, b", [(-0.1, 0.1), (math.nan, 0.1), (1.5, -1.0), (math.nan, math.nan),
                                      (0.3, -1e-9), (0.3, math.nan), (0.3, -math.inf)])
    def test_a_float_pair_refuses_with_the_array_message(self, q, b):
        # a bad q is named before a bad b on both paths
        with pytest.raises(ValueError) as one:
            kl_inverse_upper(q, b)
        with pytest.raises(ValueError) as arr:
            kl_inverse_upper(np.array([q]), np.array([b]))
        assert str(one.value) == str(arr.value)

    @pytest.mark.parametrize("q, b, shape", [
        (np.array(0.3), 0.1, ()),
        (0.3, np.array(0.0), ()),
        (np.linspace(0.0, 1.0, 5), 0.1, (5,)),
        (0.2, np.linspace(0.0, 3.0, 40), (40,)),
        (np.linspace(0.0, 1.0, 6).reshape(2, 3), np.array([0.1, 0.0, 2.0]), (2, 3)),
        (np.linspace(0.0, 1.0, 8)[:, None], np.linspace(0.0, 2.0, 5), (8, 5)),
    ])
    def test_arrays_broadcast_and_keep_their_shape(self, q, b, shape):
        got = kl_inverse_upper(q, b)
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert same_bits(got, scalar_inverses(*np.broadcast_arrays(q, b)).reshape(shape))

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 100, 2000])
    def test_every_element_has_the_bits_of_its_one_element_call(self, size):
        # the edge pairs and size random ones, shuffled into calls of size
        # elements each, so every edge pair meets every size
        rng = np.random.default_rng(size)
        q, b = (a.ravel() for a in np.meshgrid(TestKlInverseColumns.EDGE_Q,
                                               TestKlInverseColumns.EDGE_B))
        q = np.concatenate([q, rng.random(size)])
        b = np.concatenate([b, 10.0 ** rng.uniform(-12.0, 1.4, size)])
        order, calls = rng.permutation(q.size), -(-q.size // size)
        for qc, bc in zip(*(np.resize(x[order], (calls, size)) for x in (q, b))):
            assert same_bits(kl_inverse_upper(qc, bc), scalar_inverses(qc, bc))


class TestKlDiscrete:
    def test_identical(self):
        u = DiscreteDistribution.uniform(7)
        assert kl_discrete(u, u) == 0.0

    def test_dirac_against_uniform(self):
        d = DiscreteDistribution.dirac(100, 3)
        u = DiscreteDistribution.uniform(100)
        assert kl_discrete(d, u) == pytest.approx(math.log(100), rel=1e-12)

    def test_worked_value(self):
        rho = DiscreteDistribution(np.array([0.7, 0.3]))
        pi = DiscreteDistribution(np.array([0.5, 0.5]))
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        assert kl_discrete(rho, pi) == pytest.approx(expected, abs=1e-13)
        assert kl_discrete(rho, pi) == pytest.approx(0.08228287850505178, abs=1e-12)

    def test_infinite_when_prior_misses_support(self):
        rho = DiscreteDistribution(np.array([0.5, 0.5]))
        pi = DiscreteDistribution(np.array([1.0, 0.0]))
        assert kl_discrete(rho, pi) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_discrete(DiscreteDistribution.uniform(3), DiscreteDistribution.uniform(4))

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            rho = random_distribution(rng, m)
            pi = random_distribution(rng, m)
            val = kl_discrete(rho, pi)
            assert val >= 0
            if not np.allclose(rho.weights, pi.weights):
                assert val > 0
            assert kl_discrete(rho, rho) == 0.0


    # a prior with zero masses (log -inf), one whose log masses round above 0,
    # and a finite one; weight rows with zeros on and off the prior's support
    @pytest.mark.parametrize("logp", [
        np.array([math.log(0.5), -math.inf, math.log(0.25), math.log(0.25), -math.inf]),
        np.array([2.0**-52, 4.0 * 2.0**-52, -0.5, -1.5, 2.0**-51]),
        np.log([0.1, 0.2, 0.3, 0.25, 0.15]),
    ], ids=["minus_inf", "above_zero", "finite"])
    def test_zero_weights_keep_the_masked_copys_bytes(self, logp):
        rows = np.array([
            [0.5, 0.0, 0.5, 0.0, 0.0],  # zeros where logp may be -inf
            [0.2, 0.3, 0.1, 0.4, 0.0],  # weight where logp may be -inf
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.0, 0.0, 0.5, 0.5, 0.0],
        ])
        got = _kl_log_prior(rows, logp)
        assert got.tobytes() == kl_log_prior_loop(rows, logp).tobytes()
        work, mask = np.empty(rows.shape), np.empty(rows.shape, dtype=bool)
        assert _kl_log_prior(rows, logp, work, mask).tobytes() == got.tobytes()
        for row, want in zip(rows, got):
            one = _kl_log_prior(row, logp)
            assert np.float64(one).tobytes() == np.float64(kl_log_prior_loop(row, logp)).tobytes()
            assert np.float64(one).tobytes() == want.tobytes()


class TestChi2Discrete:
    def test_identical(self):
        u = DiscreteDistribution.uniform(5)
        assert chi2_discrete(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_closed_form(self):
        for m in (2, 4, 9):
            d = DiscreteDistribution.dirac(m, 0)
            u = DiscreteDistribution.uniform(m)
            assert chi2_discrete(d, u) == pytest.approx(m - 1, rel=1e-12)

    def test_worked_value(self):
        rho = DiscreteDistribution(np.array([0.7, 0.3]))
        pi = DiscreteDistribution(np.array([0.5, 0.5]))
        assert chi2_discrete(rho, pi) == pytest.approx(0.16, abs=1e-12)

    def test_infinite_on_null_support(self):
        rho = DiscreteDistribution(np.array([0.5, 0.5]))
        pi = DiscreteDistribution(np.array([1.0, 0.0]))
        assert chi2_discrete(rho, pi) == math.inf


class TestKlGaussianDiag:
    def test_identical(self):
        g = DiagonalGaussian(mean=np.zeros(3), std=0.7)
        assert kl_gaussian_diag(g, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift(self):
        g = DiagonalGaussian(mean=np.array([1.0]), std=1.0)
        assert kl_gaussian_diag(g, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_2d_scale(self):
        g = DiagonalGaussian(mean=np.zeros(2), std=0.5)
        expected = 1.0 * (0.25 + math.log(4.0) / 2.0 * 2.0 - 1.0)
        assert kl_gaussian_diag(g, 1.0) == pytest.approx(expected, abs=1e-12)
        # cross-check against numerical integration (d=2 = 2 independent 1-D terms)
        assert kl_gaussian_diag(g, 1.0) == pytest.approx(
            2 * kl_gaussian_quadrature(0.0, 0.5, 1.0), abs=1e-6
        )

    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = float(rng.normal())
            s = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0.3, 2.0))
            g = DiagonalGaussian(mean=np.array([m]), std=s)
            assert kl_gaussian_diag(g, sigma) == pytest.approx(
                kl_gaussian_quadrature(m, s, sigma), abs=1e-6
            )

    def test_rejects_bad_std(self):
        with pytest.raises(ValueError):
            DiagonalGaussian(mean=np.zeros(2), std=0.0)
        g = DiagonalGaussian(mean=np.zeros(2), std=1.0)
        with pytest.raises(ValueError):
            kl_gaussian_diag(g, -1.0)


class TestKlUniformBall:
    def test_same_ball(self):
        assert kl_uniform_ball(3, 1.0, 1.0) == 0.0

    def test_log_volume_ratio(self):
        assert kl_uniform_ball(2, 1.0, 0.1) == pytest.approx(2 * math.log(10), rel=1e-12)
        assert kl_uniform_ball(2, 1.0, 0.1) == pytest.approx(4.605170185988092, abs=1e-12)
        assert kl_uniform_ball(1, 2.0, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            kl_uniform_ball(2, 1.0, 1.5)
        with pytest.raises(ValueError):
            kl_uniform_ball(2, 1.0, 0.0)


class TestDvGap:
    def test_constant_function(self):
        u = DiscreteDistribution.uniform(4)
        assert dv_gap(np.full(4, 3.7), u, u) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_gibbs(self):
        h = np.array([-1.0, -2.0, -4.0])
        pi = DiscreteDistribution.uniform(3)
        rho = gibbs_reweight(pi, h)
        assert abs(dv_gap(h, rho, pi)) <= 1e-12

    def test_positive_away_from_gibbs(self):
        h = np.array([-1.0, -2.0, -4.0])
        pi = DiscreteDistribution.uniform(3)
        rho = DiscreteDistribution.dirac(3, 0)
        # both sides evaluated directly
        lhs = math.log(np.mean(np.exp(h)))
        rhs = h[0] - math.log(1 / pi.weights[0])
        assert dv_gap(h, rho, pi) == pytest.approx(lhs - rhs, abs=1e-12)
        assert dv_gap(h, rho, pi) > 0

    def test_gap_equals_kl_to_gibbs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 50))
            h = rng.normal(size=m) * 3
            pi = random_distribution(rng, m)
            rho = random_distribution(rng, m)
            gap = dv_gap(h, rho, pi)
            assert gap >= -1e-12
            assert gap == pytest.approx(kl_discrete(rho, gibbs_reweight(pi, h)), abs=1e-9)

    def test_gibbs_attains_smallest_gap(self):
        rng = np.random.default_rng(5)
        m = 20
        h = rng.normal(size=m)
        pi = random_distribution(rng, m)
        gibbs = gibbs_reweight(pi, h)
        gap_star = dv_gap(h, gibbs, pi)
        for _ in range(1000):
            rho = random_distribution(rng, m)
            assert dv_gap(h, rho, pi) >= gap_star - 1e-12

    def test_infinite_kl_propagates(self):
        pi = DiscreteDistribution(np.array([1.0, 0.0]))
        rho = DiscreteDistribution(np.array([0.5, 0.5]))
        assert dv_gap(np.zeros(2), rho, pi) == math.inf

    def test_large_h_stable(self):
        pi = DiscreteDistribution.uniform(3)
        h = np.array([1e6, -1e6, 0.0])
        rho = gibbs_reweight(pi, h)
        assert abs(dv_gap(h, rho, pi)) <= 1e-9


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@st.composite
def lse_vectors(draw, minus_inf=False, ties=False):
    """Gaussian vectors of any scale, optionally with -inf entries or a tied maximum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 300))
    a = rng.normal(size=m) * 10.0 ** draw(st.floats(-3.0, 5.0))
    if minus_inf:
        a[rng.random(m) < draw(st.floats(0.0, 1.0))] = -math.inf
    if ties:
        a[rng.integers(0, m, size=draw(st.integers(1, m)))] = a.max()
    return a


class TestLogSumExp:
    """The in-house log-sum-exp reproduces scipy.special.logsumexp to the bit."""

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_edge_floats(self, a):
        assert same_bits(_logsumexp(a), logsumexp(a))

    @given(lse_vectors())
    @settings(max_examples=500)
    def test_finite_vectors(self, a):
        assert same_bits(_logsumexp(a), logsumexp(a))

    @given(lse_vectors(minus_inf=True))
    @settings(max_examples=500)
    def test_minus_inf_entries(self, a):
        assert same_bits(_logsumexp(a), logsumexp(a))

    @given(lse_vectors(ties=True))
    @settings(max_examples=500)
    def test_ties_at_the_maximum(self, a):
        assert same_bits(_logsumexp(a), logsumexp(a))

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_all_minus_inf(self, m):
        a = np.full(m, -math.inf)
        assert _logsumexp(a) == -math.inf
        assert same_bits(_logsumexp(a), logsumexp(a))

    def test_large_vector(self):
        a = np.random.default_rng(8).normal(size=100_000) * 40.0
        assert same_bits(_logsumexp(a), logsumexp(a))


@st.composite
def lse_matrices(draw):
    """(B, M) matrices whose rows mix finite, -inf-laden, tied and all -inf vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, m = draw(st.integers(1, 40)), draw(st.integers(1, 200))
    a = rng.normal(size=(b, m)) * 10.0 ** rng.uniform(-3.0, 5.0, size=(b, 1))
    a[rng.random((b, m)) < rng.uniform(0.0, 0.5, size=(b, 1))] = -math.inf
    tied = rng.random(b) < 0.3
    a[tied, : max(1, m // 3)] = np.max(a[tied], axis=1, initial=-math.inf)[:, None]
    a[rng.random(b) < 0.1] = -math.inf
    return a


class TestLogSumExpRows:
    """A (B, M) matrix gives, row by row, the bits of the 1-D call."""

    @given(lse_matrices())
    @settings(max_examples=300)
    def test_rows_match_the_vector_call(self, a):
        rows = _logsumexp(a)
        assert rows.shape == (a.shape[0],)
        for row, value in zip(a, rows):
            assert same_bits(value, _logsumexp(row))

    @given(lse_matrices())
    @settings(max_examples=100)
    def test_gibbs_rows_match_the_vector_call(self, a):
        logpi = np.log(np.full(a.shape[1], 1.0 / a.shape[1]))
        finite = a[np.isfinite(a).all(axis=1)]
        rows = _log_gibbs(logpi, finite)
        for row, h in zip(rows, finite):
            assert row.tobytes() == _log_gibbs(logpi, h).tobytes()

    @given(lse_matrices())
    @settings(max_examples=100)
    def test_rows_of_any_memory_layout_match_the_vector_call(self, a):
        # a Fortran-ordered matrix, and a fancy-indexed one plus a row vector
        # as rate_experiment forms it, reduce row by row like a C-ordered one
        others = np.arange(a.shape[1])[::-1]
        for m in (np.asfortranarray(a), a[:, others] + np.linspace(0.0, 1.0, a.shape[1])):
            rows = _logsumexp(m)
            for row, value in zip(m, rows):
                assert same_bits(value, _logsumexp(np.array(row)))

    def test_fortran_ordered_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = np.asfortranarray(rng.normal(size=(30, 40)) * 10.0)
            assert all(same_bits(v, _logsumexp(np.array(row))) for v, row in zip(_logsumexp(a), a))

    def test_batch_of_one_and_wide_rows(self):
        a = np.random.default_rng(9).normal(size=(3, 100_000)) * 40.0
        assert [same_bits(v, logsumexp(row)) for v, row in zip(_logsumexp(a), a)] == [True] * 3
        assert same_bits(_logsumexp(a[:1])[0], logsumexp(a[0]))
