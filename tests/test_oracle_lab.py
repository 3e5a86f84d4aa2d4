"""Laboratory layer: task constructors against enumeration oracles, exact
Bernstein constants, oracle right-hand sides versus exhaustive family scans,
pi-dimension against a fine grid, localization payoff, and the seeded
violation / rate / exponential-moment harnesses."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacbayes import bounds, divergences, oracle_lab
from pacbayes.bounds import BOUND_IDS
from pacbayes._util import child_rng, child_rngs
from pacbayes.divergences import DiscreteDistribution, gibbs_reweight, kl_discrete
from pacbayes.oracle_lab import (
    HeavyTailTask,
    RiskTableTask,
    SyntheticTask,
    ThresholdMarginTask,
    estimate_bernstein_constant,
    localized_oracle_rhs,
    make_synthetic_task,
    oracle_bound_rhs,
    pi_dimension,
    rate_experiment,
    validate_geometric_grid,
    verify_exponential_moment,
    violation_experiment,
    _dv_inf,
)

from oracles import (
    bernstein_ratios_loop,
    mp_oracle_rhs,
    pi_dimension_loop,
    rate_experiment_loop,
    rho_family_inf_loop,
    stacked_draws_loop,
    violation_experiment_loop,
)

N_GRID = [100, 200, 400, 800, 1600]


class TestMakeSyntheticTask:
    def test_risk_table_noiseless(self):
        task = make_synthetic_task("risk_table", {"p": [0.0, 0.3, 0.5]}, 0)
        assert task.theta_star == 0
        assert task.risk_star == 0.0
        assert np.allclose(task.true_risk, [0.0, 0.3, 0.5])
        assert estimate_bernstein_constant(task).K == 1.0

    def test_threshold_margin_closed_form(self):
        task = make_synthetic_task("threshold_margin", {"tau": 0.25, "grid_size": 11}, 0)
        assert task.m == 11
        assert task.risk_star == pytest.approx(0.25)
        dist = np.abs(task.thresholds - 0.5)
        assert np.allclose(task.gaps, 2 * 0.25 * dist, atol=1e-12)

    def test_threshold_margin_enumeration_oracle(self):
        # exhaustive enumeration over a discretized input space: X on a fine
        # grid of cell midpoints, both flip outcomes weighted by probability
        tau = 0.25
        task = make_synthetic_task("threshold_margin", {"tau": tau, "grid_size": 11}, 0)
        n_cells = 200_000
        x = (np.arange(n_cells) + 0.5) / n_cells
        star = task.thresholds[task.star_index]
        risks = np.empty(task.m)
        second = np.empty(task.m)
        for j, thr in enumerate(task.thresholds):
            pred = x >= thr
            ystar = x >= star
            # flip with prob 1/2 - tau: loss = 1{pred != y}
            loss_noflip = pred != ystar
            loss_flip = pred == ystar
            risks[j] = np.mean((0.5 + tau) * loss_noflip + (0.5 - tau) * loss_flip)
            lstar_noflip = np.zeros(n_cells, dtype=bool)
            lstar_flip = np.ones(n_cells, dtype=bool)
            second[j] = np.mean(
                (0.5 + tau) * (loss_noflip ^ lstar_noflip)
                + (0.5 - tau) * (loss_flip ^ lstar_flip)
            )
        assert np.max(np.abs(risks - task.true_risk)) < 1e-5
        assert np.max(np.abs(second - task.second_moments_vs_star())) < 1e-5

    def test_degenerate_ties_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_task("risk_table", {"p": [0.3, 0.3, 0.3]}, 0)
        with pytest.raises(ValueError):
            make_synthetic_task("risk_table", {"p": [0.1, 0.1, 0.5]}, 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_synthetic_task("threshold_margin", {"tau": 0.6, "grid_size": 5}, 0)
        with pytest.raises(ValueError):
            make_synthetic_task("risk_table", {"p": [0.1, 1.2]}, 0)
        with pytest.raises(ValueError):
            make_synthetic_task("heavy_tail", {"means": [0.1, 0.2], "sds": 1.0,
                                               "tail_shape": 1.5}, 0)
        with pytest.raises(ValueError):
            make_synthetic_task("nope", {}, 0)

    def test_empirical_risk_converges_to_true(self):
        rng = np.random.default_rng(0)
        for task in (
            make_synthetic_task("risk_table", {"p": [0.1, 0.4, 0.7]}, 0),
            make_synthetic_task("risk_table", {"p": [0.1, 0.4, 0.7], "shared_noise": True}, 0),
            make_synthetic_task("threshold_margin", {"tau": 0.3, "grid_size": 7}, 0),
            make_synthetic_task("heavy_tail", {"means": [0.5, 0.8], "sds": 0.4}, 0),
        ):
            trials, n = 200, 400
            acc = np.zeros(task.m)
            for _ in range(trials):
                acc += task.sample_emp_risk(n, rng)
            mean = acc / trials
            sd = 1.0 if not np.isfinite(task.C) else task.C
            assert np.max(np.abs(mean - task.true_risk)) <= 4 * sd / math.sqrt(trials * n)

    def test_matrix_and_sufficient_statistic_agree_in_mean(self):
        task = make_synthetic_task("risk_table", {"p": [0.2, 0.5, 0.8]}, 0)
        rng = np.random.default_rng(1)
        full = np.mean([task.sample_losses(200, rng).mean(axis=0) for _ in range(300)], axis=0)
        rng = np.random.default_rng(1)
        fast = np.mean([task.sample_emp_risk(200, rng) for _ in range(300)], axis=0)
        assert np.max(np.abs(full - task.true_risk)) < 0.02
        assert np.max(np.abs(fast - task.true_risk)) < 0.02

    def test_heavy_tail_moments(self):
        task = make_synthetic_task(
            "heavy_tail", {"means": [0.5, 0.7, 0.9], "sds": [0.3, 0.4, 0.5]}, 0
        )
        assert task.kappa == pytest.approx(0.25)
        rng = np.random.default_rng(2)
        losses = task.sample_losses(400_000, rng)
        assert np.max(np.abs(losses.mean(axis=0) - task.true_risk)) < 0.02
        assert np.max(np.abs(losses.std(axis=0) - task.sds)) < 0.05
        diff2 = ((losses - losses[:, [0]]) ** 2).mean(axis=0)
        assert np.max(np.abs(diff2 - task.second_moments_vs_star())) < 0.05

    @pytest.mark.parametrize("kind, params", [
        ("risk_table", {"p": [0.2, 0.4], "shared_noise": True}),
        ("threshold_margin", {"tau": 0.2, "grid_size": 11, "star_index": 3}),
        ("threshold_margin", {"tau": 0.2, "thresholds": [0.1, 0.5, 0.9]}),
        ("heavy_tail", {"means": [0.5, 0.6], "sds": 0.5, "tail_shape": 3.0}),
    ])
    def test_every_parameter_of_a_kind_is_taken(self, kind, params):
        assert make_synthetic_task(kind, params).kind == kind
        with pytest.raises(ValueError, match=f"unknown {kind} task parameter 'typo'"):
            make_synthetic_task(kind, {**params, "typo": 1})

    @pytest.mark.parametrize("params", [
        {"tau": 0.2},
        {"tau": 0.2, "grid_size": 11, "thresholds": [0.1, 0.9]},
    ], ids=["neither", "both"])
    def test_exactly_one_threshold_spec(self, params):
        with pytest.raises(ValueError, match="exactly one of grid_size and thresholds"):
            make_synthetic_task("threshold_margin", params)

    @pytest.mark.parametrize("star", [-1, 11, 2.5])
    def test_star_index_in_range(self, star):
        with pytest.raises(ValueError, match=r"star_index must be an integer in \[0, 11\)"):
            make_synthetic_task("threshold_margin", {"tau": 0.2, "grid_size": 11,
                                                     "star_index": star})


def same_bits_as_column_means(task, n, key) -> bool:
    fast = task.sample_emp_risk(n, child_rng(*key))
    full = task.sample_losses(n, child_rng(*key)).mean(axis=0)
    return fast.tobytes() == full.tobytes()


class TestThresholdSampler:
    """Error counts from sorted searches give the bits of the loss-matrix column means."""

    GRID = np.linspace(0.0, 1.0, 41)
    PERMUTED = np.random.default_rng(3).permutation(GRID)

    @pytest.mark.parametrize("thresholds,star", [
        (GRID, None),
        (PERMUTED, 7),
        (np.array([0.0, 0.25, 0.6, 1.0]), 1),
        (GRID, 0),
        (GRID, 40),
        (PERMUTED, int(np.argmax(PERMUTED))),
    ], ids=["sorted", "permuted", "ends_0_and_1", "star_first", "star_last", "permuted_star_at_1"])
    @pytest.mark.parametrize("n", [1, 2, 37, 500])
    def test_same_bits(self, thresholds, star, n):
        task = ThresholdMarginTask(0.2, thresholds, star_index=star)
        for t in range(20):
            assert same_bits_as_column_means(task, n, (11, t))

    def test_tie_between_a_threshold_and_an_input(self):
        n, key = 50, (5, 2)
        x = child_rng(*key).random(n)  # x is the first draw of the sampler
        for value in (x[0], x.min(), x.max()):
            task = ThresholdMarginTask(0.3, [0.05, value, 0.95], star_index=1)
            assert value in task._sample_xy(n, child_rng(*key))[0]
            assert same_bits_as_column_means(task, n, key)

    @pytest.mark.parametrize("thresholds,star", [
        (np.array([-0.5, 0.3, 1.5]), 1),
        (np.array([2.0, -1.0, 0.5, -3.0]), 2),
        (np.array([-0.2, -0.1]), 0),
        (np.array([1.2, 1.1]), 1),
    ], ids=["both_sides", "permuted_both_sides", "all_below_0", "all_above_1"])
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_thresholds_outside_the_unit_interval(self, thresholds, star, n):
        # a threshold under every input or over every input errs on one label class
        task = ThresholdMarginTask(0.2, thresholds, star_index=star)
        for t in range(20):
            assert same_bits_as_column_means(task, n, (13, t))

    @pytest.mark.parametrize("star", [0, 500, 1000])
    def test_wide_class_shape(self, star):
        # the benchmark's wide violation ops: M = 1001 thresholds at n = 5000
        task = ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 1001), star_index=star)
        for t in range(3):
            assert same_bits_as_column_means(task, 5000, (17, t))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 60),
           st.floats(0.01, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_random_grids(self, seed, n, m, tau):
        rng = np.random.default_rng(seed)
        thresholds = rng.choice(np.linspace(0.0, 1.0, 1001), size=m, replace=False)
        task = ThresholdMarginTask(tau, thresholds, star_index=int(rng.integers(m)))
        assert same_bits_as_column_means(task, n, (seed, 0))


class TestBlockSampler:
    """Stacked draws have the bits of the per-trial loop for every task kind,
    whatever the chunking."""

    PERMUTED = np.random.default_rng(5).permutation(np.linspace(0.0, 1.0, 41))
    TASKS = {
        "risk_table": lambda: RiskTableTask([0.1, 0.2, 0.6, 0.35]),
        "risk_table_shared": lambda: RiskTableTask([0.1, 0.2, 0.6, 0.35], shared_noise=True),
        "heavy_tail": lambda: HeavyTailTask([0.2, 0.5, 0.9], [0.5, 1.0, 2.0]),
        "margin": lambda: ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 41)),
        "margin_permuted": lambda: ThresholdMarginTask(
            0.2, TestBlockSampler.PERMUTED, star_index=int(np.argmax(TestBlockSampler.PERMUTED))),
        "margin_outside_unit": lambda: ThresholdMarginTask(0.3, [2.0, -1.0, 0.5, -3.0, 1.0],
                                                           star_index=2),
        "margin_star_first": lambda: ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 41), 0),
        "margin_star_last": lambda: ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 41), 40),
    }

    @pytest.mark.parametrize("n", [1, 7, 500, 5000])
    @pytest.mark.parametrize("kind", list(TASKS))
    def test_same_bits_as_the_trial_loop(self, kind, n, monkeypatch):
        # chunks of the library's size, of one row, and of 7 rows, which
        # divides neither 50 nor 131 trials; every call draws (a miss)
        task = self.TASKS[kind]()
        for trials in (1, 50, 131):
            keys = [(9, t) for t in range(trials)]
            want = stacked_draws_loop(task, n, child_rngs(9, keys))
            for rows in (None, 1, 7):
                if rows is not None:
                    monkeypatch.setattr(divergences, "_FAMILY_BLOCK", rows * n)
                oracle_lab._drawn.clear()
                blocks = list(oracle_lab._stacked_draws(task, n, 9, keys))
                assert all(b.flags.c_contiguous and b.shape[1] == task.m for b in blocks)
                assert max(len(b) for b in blocks) <= divergences._block_rows(task.m)
                assert np.concatenate(blocks).tobytes() == want.tobytes(), (trials, rows)
                monkeypatch.undo()

    @pytest.mark.parametrize("kind, per_trial", [("risk_table", True), ("heavy_tail", True),
                                                 ("risk_table_shared", True), ("margin", False)])
    def test_who_reaches_the_one_trial_sampler(self, kind, per_trial, monkeypatch):
        # the stacked tasks still call sample_emp_risk once per trial, where a
        # tracer can time them; the margin task's block never does
        task, calls = self.TASKS[kind](), []
        cls = type(task)
        one = cls.sample_emp_risk
        monkeypatch.setattr(cls, "sample_emp_risk",
                            lambda self, n, rng: calls.append(n) or one(self, n, rng))
        for _ in range(2):  # the second call reads the set the first one drew
            list(oracle_lab._stacked_draws(task, 20, 1, [(t,) for t in range(30)]))
        assert len(calls) == (30 if per_trial else 0)


class TestDrawCache:
    """Experiments that share (task, n, seed, keys) draw once: a hit reads the
    bits of the miss, in any row blocks, and anything a draw reads is in the
    key."""

    KEYS = [(t,) for t in range(30)]

    @pytest.fixture(autouse=True)
    def seedings(self, monkeypatch):
        """An empty cache, and a log of the child_rngs calls (one a miss)."""
        monkeypatch.setattr(oracle_lab, "_drawn", {})
        calls, real = [], oracle_lab.child_rngs
        monkeypatch.setattr(oracle_lab, "child_rngs",
                            lambda seed, keys: calls.append(seed) or real(seed, keys))
        return calls

    @staticmethod
    def drawn(task, n=20, seed=1, keys=KEYS):
        return list(oracle_lab._stacked_draws(task, n, seed, keys))

    @pytest.mark.parametrize("kind", list(TestBlockSampler.TASKS))
    def test_a_hit_has_the_bits_of_a_miss_in_any_blocks(self, kind, seedings, monkeypatch):
        # drawn under one block size and read back under others: the set is
        # kept whole and cut when it is read
        task = TestBlockSampler.TASKS[kind]()
        want = stacked_draws_loop(task, 20, child_rngs(1, self.KEYS)).tobytes()
        default = divergences._FAMILY_BLOCK
        for block in (default, task.m, 7 * task.m, default):  # the library's, 1 and 7 rows
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
            blocks = self.drawn(task)
            assert all(b.flags.c_contiguous and b.shape[1] == task.m for b in blocks)
            assert max(len(b) for b in blocks) <= divergences._block_rows(task.m)
            assert np.concatenate(blocks).tobytes() == want, block
        assert len(seedings) == 1

    def test_kept_sets_are_read_only(self):
        for block in self.drawn(RiskTableTask([0.1, 0.2, 0.6])):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
        assert not any(a.flags.writeable for a in oracle_lab._drawn.values())

    def test_a_parameter_changed_in_place_draws_afresh(self, seedings):
        task = RiskTableTask([0.1, 0.2, 0.6])
        first = np.concatenate(self.drawn(task))
        task.p[2] = 0.9
        again = np.concatenate(self.drawn(task))
        assert len(seedings) == 2
        assert again.tobytes() == stacked_draws_loop(task, 20, child_rngs(1, self.KEYS)).tobytes()
        assert again.tobytes() != first.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: make_synthetic_task("risk_table", {"p": [0.1, 0.2, 0.6], "shared_noise": True}),
        lambda: make_synthetic_task("threshold_margin", {"tau": 0.2, "grid_size": 41}, 5),
        lambda: make_synthetic_task("heavy_tail", {"means": [0.2, 0.5], "sds": [0.5, 1.0]}, 7),
    ], ids=["risk_table_shared", "margin", "heavy_tail"])
    def test_equal_tasks_built_apart_share_one_set(self, build, seedings):
        # the task's own seed is read by no sampler, so it is not in the key
        first, other = build(), build()
        other.seed = first.seed + 1
        a, b = self.drawn(first), self.drawn(other)
        assert len(seedings) == 1 and len(oracle_lab._drawn) == 1
        assert all(x is not y and np.shares_memory(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("change", [
        lambda t: setattr(t, "tau", 0.3), lambda t: setattr(t, "star_index", 3),
        lambda t: t.thresholds.__setitem__(0, -0.5),
    ], ids=["tau", "star_index", "thresholds"])
    def test_each_declared_parameter_is_in_the_key(self, change, seedings):
        task = ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 11))
        self.drawn(task)
        change(task)
        got = np.concatenate(self.drawn(task))
        assert len(seedings) == 2
        assert got.tobytes() == stacked_draws_loop(task, 20, child_rngs(1, self.KEYS)).tobytes()

    def test_n_seed_and_keys_are_in_the_key(self, seedings):
        task = RiskTableTask([0.1, 0.2, 0.6])
        for n, seed, keys in [(20, 1, self.KEYS), (21, 1, self.KEYS), (20, 2, self.KEYS),
                              (20, 1, self.KEYS[:-1]), (20, 1, [(0, t) for t in range(30)]),
                              (20, 1, self.KEYS)]:
            self.drawn(task, n, seed, keys)
        assert len(seedings) == 5

    @pytest.mark.parametrize("owner", ["class", "instance"])
    def test_a_patched_sampler_misses(self, owner, seedings, monkeypatch):
        task, calls = HeavyTailTask([0.2, 0.5], [0.5, 1.0]), []
        want = np.concatenate(self.drawn(task)).tobytes()
        real = HeavyTailTask._shocks
        shim = lambda self, n, rng: calls.append(n) or real(self, n, rng)  # noqa: E731
        if owner == "class":
            monkeypatch.setattr(HeavyTailTask, "_shocks", shim)
        else:
            monkeypatch.setattr(task, "_shocks", lambda n, rng: shim(task, n, rng))
        assert np.concatenate(self.drawn(task)).tobytes() == want
        assert len(calls) == 30 and len(seedings) == 2
        self.drawn(task)  # the shimmed set is kept too
        assert len(calls) == 30 and len(seedings) == 2

    def test_a_class_that_declares_no_parameters_is_never_kept(self, seedings):
        class Coins(SyntheticTask):
            true_risk, theta_star = np.array([0.2, 0.5]), 0

            def sample_emp_risk(self, n, rng):
                return rng.binomial(n, self.true_risk) / n

        class Tilted(RiskTableTask):  # inherits RiskTableTask's declaration, declares none
            pass

        for task in (Coins(), Tilted([0.2, 0.5])):
            first, again = self.drawn(task), self.drawn(task)
            assert np.concatenate(first).tobytes() == np.concatenate(again).tobytes()
        assert len(seedings) == 4 and not oracle_lab._drawn

    @staticmethod
    def wide(trials=None):
        """A 1024-threshold margin task, and the keys of trials trials: a set
        is charged 1024 words a trial, one for its key, and 1026 for the
        task's parameters and 128 for the key's objects."""
        return (ThresholdMarginTask(0.2, np.linspace(0.0, 1.0, 1024)),
                [(t,) for t in range(trials or 0)])

    @staticmethod
    def charges():
        return sum(key[-1] for key in oracle_lab._drawn)

    @pytest.mark.parametrize("trials, kept", [(510, True), (511, False)])
    def test_only_sets_charged_at_most_2_19_words_are_kept(self, trials, kept, seedings):
        # 510 trials are charged 523,904 words, 511 trials 524,929
        task, keys = self.wide(trials)
        first, again = self.drawn(task, 20, 3, keys), self.drawn(task, 20, 3, keys)
        assert np.concatenate(first).tobytes() == np.concatenate(again).tobytes()
        assert len(oracle_lab._drawn) == kept and len(seedings) == 2 - kept
        assert self.charges() == kept * (1025 * trials + 1154)

    def test_a_set_past_2_19_entries_streams_with_the_bits_of_a_miss(self, seedings):
        task, keys = self.wide(513)  # 2**19 + 1024 entries
        want = stacked_draws_loop(task, 20, child_rngs(3, keys)).tobytes()
        for _ in range(2):
            blocks = self.drawn(task, 20, 3, keys)
            assert all(b.flags.c_contiguous and b.flags.writeable for b in blocks)
            assert max(len(b) for b in blocks) <= divergences._block_rows(task.m)
            assert np.concatenate(blocks).tobytes() == want
        assert len(seedings) == 2 and not oracle_lab._drawn

    def test_a_set_past_2_16_entries_is_drawn_once_across_experiments(self, seedings):
        # 2000 trials on a 41-threshold margin task: 82,000 entries
        task = make_synthetic_task("threshold_margin", {"tau": 0.2, "grid_size": 41})
        reports = [repr(violation_experiment(task, bound_id, "gibbs", 200, 0.1, 2000, 4))
                   for bound_id in ("seeger", "catoni_linear", "seeger")]
        assert len(seedings) == 1 and reports[0] == reports[2] != reports[1]
        oracle_lab._drawn.clear()
        assert repr(violation_experiment(task, "seeger", "gibbs", 200, 0.1, 2000, 4)) == reports[0]
        assert len(seedings) == 2

    def test_the_kept_charges_never_total_more_than_2_19_words(self, seedings):
        task = self.wide()[0]
        for seed, trials in enumerate([300, 50, 200, 400, 10, 250, 300]):
            self.drawn(task, 20, seed, self.wide(trials)[1])
            assert self.charges() <= 2**19
            assert sum(a.size for a in oracle_lab._drawn.values()) <= 2**19
        # 200 trials drop the first set, 400 the next two, 250 the 400 and
        # the last 300 the 10 and the 250: only the last set is left
        assert len(seedings) == 7 and self.charges() == 1025 * 300 + 1154

    def test_the_least_recently_used_sets_go_first(self, seedings):
        # sets of 200, 150 and 100 trials fit together, and any three of the
        # four do; seed 0's set is used again, so seed 3's drops seed 1's
        task, trials = self.wide()[0], {0: 200, 1: 150, 2: 100, 3: 120}
        runs = [len(seedings)]
        for seeds in [(0, 1, 2, 0, 3), (0, 2, 3), (1,), (2, 3, 1), (0,), (3, 1, 0), (2,)]:
            for seed in seeds:
                self.drawn(task, 20, seed, self.wide(trials[seed])[1])
            runs.append(len(seedings))
        # seed 1 misses and drops seed 0; seed 0 misses and drops seed 2, the
        # least recently used; seed 2 misses and drops seed 3
        assert runs == [0, 4, 4, 5, 5, 6, 6, 7]

    def test_a_miss_holds_the_set_and_one_block(self, seedings, monkeypatch):
        # with a sampler that writes its rows into its block, a miss's peak is
        # the kept set and one block; listing the blocks and concatenating
        # them held two sets
        task, keys = RiskTableTask(np.linspace(0.05, 0.95, 1024)), self.wide(400)[1]
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 16 * task.m)  # 25 blocks

        def sampler(self, n, rngs):
            block = np.empty((len(rngs), self.m))
            for row, rng in zip(block, rngs):
                row[:] = self.sample_emp_risk(n, rng)
            return block

        monkeypatch.setattr(RiskTableTask, "sample_emp_risks", sampler)
        tracemalloc.start()
        try:
            self.drawn(task, 20, 3, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        set_bytes, block_bytes = 400 * 1024 * 8, 16 * 1024 * 8
        assert len(seedings) == 1 and len(oracle_lab._drawn) == 1
        assert set_bytes + block_bytes <= peak < set_bytes + 2 * block_bytes

    def test_a_draw_that_raises_keeps_nothing(self, seedings, monkeypatch):
        task = RiskTableTask([0.1, 0.2, 0.6])
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 10 * task.m)  # three blocks
        blocks, real = [], RiskTableTask.sample_emp_risks

        def sampler(self, n, rngs):
            if blocks:
                raise RuntimeError("the second block fails")
            blocks.append(real(self, n, rngs))
            return blocks[-1]

        monkeypatch.setattr(RiskTableTask, "sample_emp_risks", sampler)
        with pytest.raises(RuntimeError):
            self.drawn(task)
        assert not oracle_lab._drawn
        with pytest.raises(ValueError):  # a bad seed is refused before any draw
            self.drawn(task, seed=-1)
        assert not oracle_lab._drawn

    def test_experiments_on_one_draw_set_draw_once(self, seedings):
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.2, 0.6, 0.35]})
        reports = [violation_experiment(task, bound_id, "gibbs", 300, 0.1, 20, 4)
                   for bound_id in ("seeger", "catoni_linear", "seeger")]
        assert len(seedings) == 1
        assert repr(reports[0]) == repr(reports[2])
        margin = make_synthetic_task("threshold_margin", {"tau": 0.2, "grid_size": 11})
        for rule in ("fast", "slow", "fast"):
            rate_experiment(margin, N_GRID, 6, 4, rule=rule)
        assert len(seedings) == 1 + len(N_GRID)


    @pytest.mark.parametrize("run, name, limit, points", [
        (lambda task, k: violation_experiment(task, "seeger", "gibbs", 300, 0.1, k, 4),
         "trials", 2**22, 1),
        (lambda task, k: rate_experiment(task, N_GRID, k, 4), "reps", 2**26, len(N_GRID)),
    ], ids=["violation", "rate"])
    def test_runs_past_the_limit_are_refused_before_any_draw(self, run, name, limit, points,
                                                             seedings):
        # the refusal allocates no trial's keys, generators or rows
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.2, 0.6]})
        count = limit // points
        oracle_lab._check_trials(name, count, limit, points)
        for k in (count + 1, 10**12):
            tracemalloc.start()
            try:
                with pytest.raises(oracle_lab._DrawLimitError, match=f"^{name} = {k} asks for"):
                    run(task, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16
        assert not seedings


class TestRhoFamilyInf:
    """The Donsker-Varadhan closed form matches the candidate-at-a-time loop
    and the library's blocked Gibbs family pass."""

    @staticmethod
    def objectives(R):
        r_star = float(np.min(R))
        return [
            lambda risk, kl: risk + 0.01 + 0.05 * kl,
            lambda risk, kl: risk + 2.0 * (kl + math.log(40.0)) / 30.0,
            lambda risk, kl: np.maximum(risk - r_star, 0.0) + 4.0 * kl / 700.0,
            lambda risk, kl: 3.0 * np.maximum(risk - r_star, 0.0) + 12.0 * kl / 90.0,
        ]

    # each objective as mult (E_rho[R - excess * R*] + KL/beta) + const
    TERMS = [(1.0, 20.0, 0.0, 0.01), (1.0, 15.0, 0.0, 2.0 * math.log(40.0) / 30.0),
             (1.0, 175.0, 1.0, 0.0), (3.0, 22.5, 1.0, 0.0)]

    NAMES = ["M1", "M2", "M41", "M1001", "prior_zeros", "against_zeros",
             "against_all_zero_on_support"]

    @classmethod
    def case(cls, name):
        rng = np.random.default_rng(cls.NAMES.index(name))
        m = {"M1": 1, "M2": 2, "M41": 41, "M1001": 1001}.get(name, 41)
        R = rng.uniform(0.05, 0.9, m)
        pi = rng.random(m) + 0.01
        against = None
        if name == "prior_zeros":
            pi[rng.random(m) < 0.4] = 0.0
            pi[0] = 1.0
        if name == "against_zeros":
            against = rng.random(m)
            against[rng.random(m) < 0.4] = 0.0
            against[0] = 1.0
            against = DiscreteDistribution.from_weights(against)
        if name == "against_all_zero_on_support":
            pi[m // 2:] = 0.0
            against = np.zeros(m)
            against[m // 2:] = 1.0
            against = DiscreteDistribution.from_weights(against)
        return R, DiscreteDistribution.from_weights(pi), against

    @classmethod
    @functools.cache
    def loop_inf(cls, name, extra, index, family="q"):
        """The reference loop's infimum over the Gibbs family of q (the KL
        reference, pi unless the case gives another) or of pi, with the
        objective's own beta and the extra betas, computed once."""
        R, pi, against = cls.case(name)
        q = against or pi
        base = q if family == "q" else pi
        betas = (cls.TERMS[index][1], *extra)
        return rho_family_inf_loop(base.weights, R, betas, cls.objectives(R)[index],
                                   against=q.weights)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("extra", [(), (3.0,), (0.5, 250.0)])
    @pytest.mark.parametrize("block", [None, 1, 500], ids=["one_block", "row_blocks", "blocks"])
    def test_matches_the_loop(self, name, extra, block, monkeypatch):
        # With KL reference q, inf_rho mult (E_rho[R - shift] + KL(rho||q)/beta) + const
        # is mult _dv_inf(q, R - shift, beta) + const: equal to the loop over q's
        # Gibbs family, to the objective at the beta row of the family pass in
        # every block layout, and below every other row.  Where q is not pi, it
        # is also below the loop over pi's family, which is +inf when q is 0 on
        # pi's support.
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        R, pi, against = self.case(name)
        q = against or pi
        logq = divergences._safe_log(q.weights)
        for index, (objective, (mult, beta, excess, const)) in enumerate(
                zip(self.objectives(R), self.TERMS)):
            got = mult * _dv_inf(q, R - excess * R.min(), beta) + const
            assert math.isfinite(got)
            assert got == pytest.approx(self.loop_inf(name, extra, index), rel=1e-12, abs=0.0)
            rows = [objective(risk, kl) for _, risk, kl
                    in divergences._gibbs_family(logq, R, [beta, *extra], logq)]
            values = np.concatenate(rows)
            assert values[0] == pytest.approx(got, rel=1e-12, abs=0.0)
            assert np.all(values >= got * (1.0 - 1e-12))
            if against is not None:
                assert got <= self.loop_inf(name, extra, index, "pi") * (1.0 + 1e-12)

    def test_public_rhs_match_the_loop(self):
        task = make_synthetic_task("risk_table", {"p": np.linspace(0.1, 0.7, 30).tolist()}, 0)
        pi = DiscreteDistribution.from_weights(np.arange(1.0, 31.0))
        n, lam, eps = 400, 25.0, 0.05
        R = task.true_risk
        got = oracle_bound_rhs(task, pi, lam, "probability", n=n, eps=eps)
        want = rho_family_inf_loop(
            pi.weights, R, (lam / 2,),
            lambda r, kl: r + lam / (4 * n) + 2 / lam * kl + 2 * math.log(2 / eps) / lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        K = estimate_bernstein_constant(task).K
        loc = localized_oracle_rhs(task, pi, K, n)
        local_prior = gibbs_reweight(pi, -loc.lam / 4 * R)
        want = rho_family_inf_loop(
            pi.weights, R, (loc.lam / 4, loc.lam),
            lambda r, kl: 3 * max(r - task.risk_star, 0.0) + 4 * loc.scale * kl / n,
            against=local_prior.weights)
        assert loc.value == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBernsteinConstant:
    def test_noiseless_exactly_one(self):
        task = make_synthetic_task("risk_table", {"p": [0.0, 0.3, 0.5]}, 0)
        est = estimate_bernstein_constant(task)
        assert est.K == 1.0
        assert math.isnan(est.ratios[0])

    def test_threshold_margin_exact(self):
        task = make_synthetic_task("threshold_margin", {"tau": 0.25, "grid_size": 11}, 0)
        assert estimate_bernstein_constant(task).K == pytest.approx(2.0, abs=1e-9)

    def test_statistical_mode_within_ten_percent(self):
        task = make_synthetic_task("threshold_margin", {"tau": 0.25, "grid_size": 11}, 0)
        est = estimate_bernstein_constant(task, mode="statistical", samples=200_000, seed=4)
        assert est.K == pytest.approx(2.0, rel=0.1)

    def test_condition_satisfied_by_construction(self):
        for task in (
            make_synthetic_task("risk_table", {"p": [0.1, 0.2, 0.6]}, 0),
            make_synthetic_task("risk_table", {"p": [0.1, 0.2, 0.6], "shared_noise": True}, 0),
            make_synthetic_task("threshold_margin", {"tau": 0.4, "grid_size": 9}, 0),
        ):
            K = estimate_bernstein_constant(task).K
            second = task.second_moments_vs_star()
            assert np.all(second <= K * task.gaps + 1e-12)

    def test_infinite_sentinel_for_failing_task(self):
        class EqualRiskTask(SyntheticTask):
            # two hypotheses with identical risk but different losses on
            # individual outcomes: Bernstein's inequality cannot hold
            kind = "custom"
            C = 1.0
            true_risk = np.array([0.3, 0.3])
            theta_star = 0

            def second_moments_vs_star(self):
                return np.array([0.0, 0.42])

        est = estimate_bernstein_constant(EqualRiskTask())
        assert est.K == math.inf
        assert est.ratios[1] == math.inf

    @pytest.mark.parametrize("kind, params", [
        ("risk_table", {"p": [0.1, 0.2, 0.6]}),
        ("risk_table", {"p": [0.1, 0.2, 0.6], "shared_noise": True}),
        ("threshold_margin", {"tau": 0.25, "grid_size": 11}),
    ])
    def test_array_pass_matches_the_loop(self, kind, params):
        task = make_synthetic_task(kind, params, 0)
        est = estimate_bernstein_constant(task)
        K, ratios = bernstein_ratios_loop(task.gaps, task.second_moments_vs_star(),
                                          task.theta_star)
        assert est.K == K
        assert np.array_equal(est.ratios, ratios, equal_nan=True)

    def test_mixed_zero_gaps_match_the_loop(self):
        class MixedTask(SyntheticTask):
            # a finite ratio, a zero gap with a zero moment (skipped) and a
            # zero gap with a nonzero moment (infinite K)
            kind = "custom"
            C = 1.0
            true_risk = np.array([0.3, 0.5, 0.3, 0.3])
            theta_star = 0

            def second_moments_vs_star(self):
                return np.array([0.0, 0.3, 0.0, 0.42])

        task = MixedTask()
        est = estimate_bernstein_constant(task)
        K, ratios = bernstein_ratios_loop(task.gaps, task.second_moments_vs_star(), 0)
        assert est.K == K == math.inf
        assert np.array_equal(est.ratios, ratios, equal_nan=True)
        assert est.ratios[1] == 0.3 / 0.2 and math.isnan(est.ratios[2])

    @pytest.mark.parametrize("kind, params", [
        ("risk_table", {"p": [0.1, 0.2, 0.6, 0.35]}),
        ("risk_table", {"p": [0.1, 0.2, 0.6, 0.35], "shared_noise": True}),
        ("threshold_margin", {"tau": 0.25, "grid_size": 11}),
        ("heavy_tail", {"means": [0.2, 0.5, 0.9], "sds": [0.5, 1.0, 2.0]}),
        ("threshold_margin", {"tau": 0.25, "grid_size": 11, "star_index": 0}),
        ("threshold_margin", {"tau": 0.25, "grid_size": 11, "star_index": 10}),
        ("threshold_margin", {"tau": 0.1, "star_index": 3, "thresholds":
                              np.random.default_rng(8).permutation(np.linspace(0, 1, 11)).tolist()}),
    ])
    def test_statistical_moments_keep_their_bits(self, kind, params):
        # the in-place difference and square, and the margin task's counted
        # disagreements, give the bits of the formula (losses - losses[:, [star]])**2
        # on the same seeded draw
        task = make_synthetic_task(kind, params, 0)
        for samples in (1, 2, 5_000):
            est = estimate_bernstein_constant(task, "statistical", samples, seed=3)
            losses = task.sample_losses(samples, child_rng(3, 0))
            second = ((losses - losses[:, [task.theta_star]]) ** 2).mean(axis=0)
            K, ratios = bernstein_ratios_loop(task.gaps, second, task.theta_star)
            assert repr(est.K) == repr(K), samples
            assert est.ratios.tobytes() == ratios.tobytes(), samples

    @pytest.mark.parametrize("star", [0, 1, 2])
    def test_counted_moments_at_a_tie_between_a_threshold_and_an_input(self, star):
        # an input on theta or on theta* lies in [min, max) only at the lower end
        x = child_rng(3, 0).random(50)  # x is the first draw of the sampler
        task = ThresholdMarginTask(0.3, [x.min(), x[7], x.max()], star_index=star)
        losses = task.sample_losses(50, child_rng(3, 0))
        second = ((losses - losses[:, [task.theta_star]]) ** 2).mean(axis=0)
        got = task.sample_second_moments(50, child_rng(3, 0))
        assert got.tobytes() == second.tobytes()


class TestOracleBoundRhs:
    def setup_method(self):
        self.task = make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.6]}, 0)
        self.pi = DiscreteDistribution.uniform(3)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, None])
    @pytest.mark.parametrize("variant", ["expectation", "probability"])
    def test_lambda_is_checked(self, variant, lam):
        # the KL to pi is finite, so lambda = +inf is refused too; None is for "fast" only
        with pytest.raises(ValueError, match="lambda"):
            oracle_bound_rhs(self.task, self.pi, lam, variant, n=100, eps=0.05)

    @pytest.mark.parametrize("variant, lam", [("expectation", 40.0), ("probability", 40.0),
                                              ("fast", None)])
    def test_unbounded_losses_refused(self, variant, lam):
        # "fast" at C = inf returned NaN: lambda = n / max(2K, C) is 0
        ht = make_synthetic_task("heavy_tail", {"means": [0.5, 0.7], "sds": 0.5}, 0)
        with pytest.raises(ValueError, match=f"the {variant} oracle needs a bounded loss "
                                             "range.*heavy_tail"):
            oracle_bound_rhs(ht, DiscreteDistribution.uniform(2), lam, variant, n=500,
                             eps=0.05, K=1.0)

    @pytest.mark.parametrize("n", [0, -5, 2.5, math.nan])
    @pytest.mark.parametrize("variant", ["expectation", "probability", "fast", "localized"])
    def test_sample_size_is_checked(self, variant, n):
        # n = -5 read 0.025 below R* = 0.2, n = 0 divided by zero, n = 2.5 and NaN passed
        task = RiskTableTask([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            if variant == "localized":
                localized_oracle_rhs(task, self.pi, 1.0, n)
            else:
                oracle_bound_rhs(task, self.pi, 10.0, variant, n=n, eps=0.05, K=1.0)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan])
    @pytest.mark.parametrize("variant", ["expectation", "probability", "fast"])
    def test_eps_is_checked_where_given(self, variant, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            oracle_bound_rhs(self.task, self.pi, 10.0, variant, n=100, eps=eps, K=1.0)

    def test_probability_variant_needs_eps(self):
        with pytest.raises(ValueError, match="the probability variant needs eps"):
            oracle_bound_rhs(self.task, self.pi, 10.0, "probability", n=100)

    def test_checked_calls_keep_their_bits(self):
        # values of the unchecked right-hand sides on valid input
        task = RiskTableTask([0.2, 0.3, 0.5])
        got = [oracle_bound_rhs(task, self.pi, 10.0, variant, n=100, eps=0.05, K=1.0)
               for variant in ("expectation", "probability", "fast")]
        assert got == [0.2874600071899924, 1.0616722274890635, 0.04367586545296304]
        loc = localized_oracle_rhs(task, self.pi, 1.0, 100)
        assert (loc.value, loc.closed_form) == (0.02106629543210177, 0.021603547619624467)

    def test_probability_variant_at_a_subnormal_eps(self):
        # 2/eps overflows at eps = 5e-324, but log(2/eps) = 745.1 does not
        val = oracle_bound_rhs(self.task, self.pi, 40.0, "probability", n=500, eps=5e-324)
        assert math.isfinite(val)
        assert val > oracle_bound_rhs(self.task, self.pi, 40.0, "probability", n=500, eps=1e-300)

    def _family_scan(self, objective):
        # independent exhaustive evaluation over the same rho family:
        # coarse geometric scan, then a fine scan around the coarse argmin
        def gibbs_value(beta):
            return objective(gibbs_reweight(self.pi, -beta * self.task.true_risk))

        coarse = np.concatenate([[0.0], np.geomspace(1e-6, 1e8, 600)])
        vals = [gibbs_value(b) for b in coarse]
        k = int(np.argmin(vals))
        best = vals[k]
        lo = coarse[max(k - 1, 1)]
        hi = coarse[min(k + 1, coarse.size - 1)]
        for beta in np.geomspace(lo, hi, 4000):
            best = min(best, gibbs_value(beta))
        for j in range(3):
            best = min(best, objective(DiscreteDistribution.dirac(3, j)))
        return best

    def test_fast_variant_dirac_closed_form(self):
        # with large gaps and small n the Dirac at theta* is optimal and the
        # value collapses to 2 max(2K, C) log(M)/n
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.55, 0.6]}, 0)
        K = estimate_bernstein_constant(task).K
        scale = max(2 * K, 1.0)
        n = 4000
        val = oracle_bound_rhs(task, self.pi, None, "fast", n=n, K=K)
        dirac_only = 2 * min(
            task.gaps[j] + scale * math.log(3) / n for j in range(3)
        )
        assert dirac_only == pytest.approx(2 * scale * math.log(3) / n, rel=1e-12)
        assert val <= dirac_only + 1e-15

    def test_single_hypothesis_fast_is_zero(self):
        task = make_synthetic_task("risk_table", {"p": [0.4]}, 0)
        val = oracle_bound_rhs(task, DiscreteDistribution.uniform(1), None, "fast", n=100, K=1.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_family_scan(self):
        n, lam, eps = 500, 40.0, 0.1
        K = estimate_bernstein_constant(self.task).K
        scale = max(2 * K, 1.0)

        for variant, objective in [
            ("expectation", lambda rho: float(rho.weights @ self.task.true_risk)
             + lam / (8 * n) + kl_discrete(rho, self.pi) / lam),
            ("probability", lambda rho: float(rho.weights @ self.task.true_risk)
             + lam / (4 * n) + 2 * (kl_discrete(rho, self.pi) + math.log(2 / eps)) / lam),
        ]:
            val = oracle_bound_rhs(self.task, self.pi, lam, variant, n=n, eps=eps)
            scan = self._family_scan(objective)
            # the library includes the exact minimizing beta, so it can only
            # beat the scan, and never by more than the scan's granularity
            assert val <= scan + 1e-12
            assert val == pytest.approx(scan, abs=1e-6)

        fast_obj = lambda rho: (float(rho.weights @ self.task.true_risk)
                                - self.task.risk_star
                                + scale * kl_discrete(rho, self.pi) / n)
        val = oracle_bound_rhs(self.task, self.pi, None, "fast", n=n, K=K)
        scan = 2 * self._family_scan(fast_obj)
        assert val <= scan + 1e-12
        assert val == pytest.approx(scan, abs=1e-6)


class TestPiDimension:
    def test_all_equal_risks(self):
        d, beta = pi_dimension(DiscreteDistribution.uniform(4), np.full(4, 0.3), 1.0)
        assert d == 0.0
        assert math.isnan(beta)

    def test_two_point_value_and_gap_independence(self):
        # reduces to maximizing x/(e^x + 1); fine-grid oracle
        xs = np.linspace(0.5, 2.5, 2_000_001)
        oracle = float(np.max(xs / (np.exp(xs) + 1)))
        for gap in (0.5, 0.05, 1.0):
            d, beta = pi_dimension(
                DiscreteDistribution.uniform(2), np.array([0.1, 0.1 + gap]), 1.0
            )
            assert d == pytest.approx(oracle, abs=1e-9)
            assert d == pytest.approx(0.27846, abs=1e-3)
            assert beta * gap == pytest.approx(1.2785, abs=1e-3)

    def test_two_peaks_finds_the_higher_one(self):
        # gaps 1 and 1e-4 give peaks near beta = 1 (0.1099) and beta = 1.16e4
        # (0.1572); a golden-section search over the whole range climbs the
        # lower one, so the grid scan must pick the bracket
        pi = np.array([0.5, 0.25, 0.25])
        gaps = np.array([0.0, 1.0, 1e-4])
        d, beta = pi_dimension(DiscreteDistribution(pi), 0.2 + gaps, 1.0)
        betas = np.geomspace(5e3, 3e4, 200_001)
        w = pi * np.exp(-betas[:, None] * gaps)
        scan = betas * (w @ gaps) / w.sum(axis=1)
        assert d == pytest.approx(float(scan.max()), abs=1e-9)
        assert d == pytest.approx(0.15718, abs=1e-5)
        assert beta == pytest.approx(float(betas[np.argmax(scan)]), rel=1e-3)

    def test_objective_dominates_fine_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(2, 15))
            pi = DiscreteDistribution.from_weights(rng.random(m) + 0.05)
            risks = rng.uniform(0, 1, m)
            if np.sum(risks == risks.min()) > 1:
                continue
            d, beta = pi_dimension(pi, risks, 1.0)
            gaps = risks - risks.min()
            logpi = np.log(pi.weights)
            for b in np.geomspace(1e-6, 1e8, 1000):
                logw = logpi - b * gaps
                logw -= logw.max()
                w = np.exp(logw)
                w /= w.sum()
                assert d >= b * float(w @ gaps) - 1e-9

    @pytest.mark.parametrize("prior, m", [
        *((prior, m) for m in (2, 20, 41, 1001) for prior in ("uniform", "random", "zero_masses")),
        ("min_mass_1e-320", 1001), ("min_mass_0", 1001), ("random", 10_000)],
        ids=str)
    def test_blocked_scan_matches_the_loop(self, m, prior, monkeypatch):
        # the blocked scan only picks the grid point, and every value returned
        # is the scalar objective's, so (d, beta) are the loop's, by repr, in
        # one block, one row per block or three; with the refinement made to
        # lose, d is the objective at the best grid point.  A minimiser of
        # mass 1e-320 or 0 moves where the cut rows end.
        rng = np.random.default_rng(m)
        risks = rng.uniform(0.0, 1.0, m)
        w = {"uniform": np.ones(m), "random": rng.random(m) + 0.05,
             "zero_masses": np.where(np.arange(m) % 3 == 0, 0.0, rng.random(m) + 0.05),
             "min_mass_1e-320": rng.random(m) + 0.05, "min_mass_0": rng.random(m) + 0.05}[prior]
        if prior.startswith("min_mass"):
            w[np.argmin(risks)] = float(prior.removeprefix("min_mass_"))
        pi = DiscreteDistribution.from_weights(w)
        blocks = (divergences._FAMILY_BLOCK, m, 3 * m)
        for lose in (False, True):
            if lose:
                monkeypatch.setattr(oracle_lab, "_golden_max", lambda fn, lo, hi: (lo, -math.inf))
            want = repr(pi_dimension_loop(pi, risks, 1.0))
            for block in blocks:
                monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
                assert repr(pi_dimension(pi, risks, 1.0)) == want, (lose, block)

    def test_log_mgf_dimension_inequality(self):
        # -log E_pi e^{-beta gap} <= d_pi log(e C beta / d_pi), provable for
        # beta >= d_pi / C (below that the right-hand side can go negative)
        rng = np.random.default_rng(15)
        C = 1.0
        for _ in range(100):
            m = int(rng.integers(2, 30))
            pi = DiscreteDistribution.from_weights(rng.random(m) + 0.05)
            risks = rng.uniform(0, C, m)
            if np.sum(risks == risks.min()) > 1:
                continue
            d, _ = pi_dimension(pi, risks, C)
            gaps = risks - risks.min()
            for beta in np.geomspace(d / C, 1e6 * d / C, 100):
                lhs = -math.log(float(pi.weights @ np.exp(-beta * gaps)))
                rhs = d * math.log(math.e * C * beta / d)
                assert lhs <= rhs + 1e-9


class TestLocalizedOracle:
    def test_unbounded_losses_refused(self):
        # at C = inf lambda = n / max(2K, C) is 0, and the value was NaN after an inf * 0 warning
        ht = make_synthetic_task("heavy_tail", {"means": [0.5, 0.7], "sds": 0.5}, 0)
        with pytest.raises(ValueError, match="the localized oracle needs a bounded loss "
                                             "range.*heavy_tail"):
            localized_oracle_rhs(ht, DiscreteDistribution.uniform(2), 1.0, 500)

    def test_kl_vanishes_at_localized_prior(self):
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.6]}, 0)
        pi = DiscreteDistribution.uniform(3)
        K = estimate_bernstein_constant(task).K
        res = localized_oracle_rhs(task, pi, K, 400)
        beta = res.lam / 4
        rho_loc = gibbs_reweight(pi, -beta * task.true_risk)
        three_term = 3 * (float(rho_loc.weights @ task.true_risk) - task.risk_star)
        assert res.value <= three_term + 1e-12

    def test_closed_form_is_exact_sum(self):
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.6]}, 0)
        pi = DiscreteDistribution.uniform(3)
        K = estimate_bernstein_constant(task).K
        n = 400
        res = localized_oracle_rhs(task, pi, K, n)
        scale = res.scale
        sum_expr = float(np.sum(np.exp(-n * task.gaps / (4 * scale))))
        assert res.closed_form == pytest.approx(4 * scale * math.log(sum_expr) / n, rel=1e-12)

    def test_equal_gap_split_diagnostics(self):
        # all non-star gaps equal tau: the consistent split reproduces the
        # exact sum log(1 + (M-1) e^{-n tau/(4 max(2K,C))})
        m, tau, n = 6, 0.2, 900
        p = np.concatenate([[0.1], np.full(m - 1, 0.3)])
        task = RiskTableTask(p)
        pi = DiscreteDistribution.uniform(m)
        K = estimate_bernstein_constant(task).K
        res = localized_oracle_rhs(task, pi, K, n)
        scale = res.scale
        expected = 4 * scale / n * math.log(1 + (m - 1) * math.exp(-n * tau / (4 * scale)))
        assert res.tau == pytest.approx(tau)
        assert res.m_tau == m - 1
        assert res.split_consistent == pytest.approx(expected, rel=1e-12)
        assert res.closed_form == pytest.approx(expected, rel=1e-12)
        assert res.split_displayed != pytest.approx(expected, rel=1e-6)

    def test_beats_global_log_m_for_large_n(self):
        rng = np.random.default_rng(3)
        p = np.concatenate([[0.05], rng.uniform(0.25, 0.6, 999)])
        task = RiskTableTask(p)
        pi = DiscreteDistribution.uniform(1000)
        K = estimate_bernstein_constant(task).K
        res = localized_oracle_rhs(task, pi, K, 5000)
        plain = 4 * res.scale * math.log(1000) / 5000
        assert res.value < 0.25 * plain
        assert res.value <= plain + 1e-12

    def test_never_exceeds_log_m_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 40))
            p = rng.uniform(0, 1, m)
            if np.sum(p == p.min()) > 1:
                continue
            task = RiskTableTask(p)
            pi = DiscreteDistribution.uniform(m)
            K = estimate_bernstein_constant(task).K
            n = int(rng.integers(50, 5000))
            res = localized_oracle_rhs(task, pi, K, n)
            assert res.closed_form <= 4 * res.scale * math.log(m) / n + 1e-12
            assert res.value <= res.closed_form + 1e-12


def table_task(R, C):
    """A task with true risks R and loss range C: all the oracle right-hand sides read."""
    task = SyntheticTask()
    task.true_risk, task.theta_star, task.C = np.asarray(R, dtype=float), int(np.argmin(R)), C
    return task


class TestDonskerVaradhanClosedForm:
    """Every oracle right-hand side against the 60-digit Donsker-Varadhan oracle."""

    NAMES = ["M1", "M41", "prior_zeros", "C2"]

    @classmethod
    def case(cls, name):
        rng = np.random.default_rng(cls.NAMES.index(name))
        m = 1 if name == "M1" else 41
        pi = rng.random(m) + 0.01
        if name == "prior_zeros":
            # theta* carries no prior mass, so pi_{-beta R} concentrates on a positive gap
            R = rng.uniform(0.05, 0.9, m)
            pi[rng.random(m) < 0.4] = 0.0
            pi[int(np.argmin(R))] = 0.0
            pi[0] = 1.0
            return table_task(R, 1.0), DiscreteDistribution.from_weights(pi)
        if name == "C2":
            # gaps of at least 0.04: at beta = 1e4 the localized value is near e^{-100}
            R = rng.permutation(np.linspace(0.2, 1.8, m))
            return table_task(R, 2.0), DiscreteDistribution.from_weights(pi)
        return table_task(rng.uniform(0.05, 0.9, m), 1.0), DiscreteDistribution.from_weights(pi)

    @pytest.mark.parametrize("beta", [1e-6, 1e-3, 1.0, 30.0, 1e3, 1e4, 1e6])
    @pytest.mark.parametrize("name", NAMES)
    def test_every_variant(self, name, beta):
        task, pi = self.case(name)
        C, n, eps = task.C, 500, 0.05
        w, R = pi.weights, task.true_risk
        # the temperature of expectation is lam, of probability lam/2
        got = oracle_bound_rhs(task, pi, beta, "expectation", n=n)
        want = mp_oracle_rhs("expectation", w, R, C, n, lam=beta)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        got = oracle_bound_rhs(task, pi, 2.0 * beta, "probability", n=n, eps=eps)
        want = mp_oracle_rhs("probability", w, R, C, n, lam=2.0 * beta, eps=eps)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # fast and localized run at lam = n/max(2K, C), n an integer >= 1: 2K = C and
        # n = beta C make it beta, and below beta = 1 so do n = 1 and 2K = 1/beta
        K, n = (C / 2.0, beta * C) if beta >= 1 else (0.5 / beta, 1)
        got = oracle_bound_rhs(task, pi, None, "fast", n=n, K=K)
        want = mp_oracle_rhs("fast", w, R, C, n, K=K)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        loc = localized_oracle_rhs(task, pi, K, n)
        value, closed_form = mp_oracle_rhs("localized", w, R, C, n, K=K)
        assert loc.lam == beta
        assert loc.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert loc.closed_form == pytest.approx(closed_form, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", NAMES)
    def test_probability_at_a_subnormal_eps(self, name):
        task, pi = self.case(name)
        for lam in (1e-3, 40.0):
            got = oracle_bound_rhs(task, pi, lam, "probability", n=500, eps=5e-324)
            want = mp_oracle_rhs("probability", pi.weights, task.true_risk, task.C, 500,
                                 lam=lam, eps=5e-324)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_overflowing_temperature_refused(self):
        # lam R = 1.5e308 * 1.8 overflows: the closed form would read +inf
        task, pi = self.case("C2")
        with pytest.raises(ValueError, match="h = -lambda r must be finite"):
            oracle_bound_rhs(task, pi, 1.5e308, "expectation", n=500)

    def test_consistent_split_below_the_ulp_of_one(self):
        # K = 1 and n = 2e4 give decay = e^{-100}: log((M - m_tau) + decay m_tau)
        # at M - m_tau = 1 rounds to 0, where the split is about 6e-46
        import mpmath as mp

        task, pi = self.case("C2")
        loc = localized_oracle_rhs(task, pi, 1.0, 20000)
        with mp.workdps(60):
            scale, n = mp.mpf(loc.scale), mp.mpf(20000)
            decay = mp.exp(-n * mp.mpf(loc.tau) / (4 * scale))
            want = 4 * scale / n * mp.log((task.m - loc.m_tau) + decay * loc.m_tau)
        assert loc.split_consistent == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_no_gibbs_family_pass(self, monkeypatch):
        # one closed form per temperature: the right-hand sides never scan a family
        def refuse(*args):
            raise AssertionError("_gibbs_family called")

        monkeypatch.setattr(divergences, "_gibbs_family", refuse)
        monkeypatch.setattr(oracle_lab, "_gibbs_family", refuse)
        task, pi = self.case("M41")
        for variant, lam in [("expectation", 40.0), ("probability", 40.0), ("fast", None)]:
            assert math.isfinite(oracle_bound_rhs(task, pi, lam, variant, n=500, eps=0.05, K=1.0))
        assert math.isfinite(localized_oracle_rhs(task, pi, 1.0, 500).value)


class TestViolationExperiment:
    def setup_method(self):
        self.task = make_synthetic_task(
            "risk_table", {"p": np.linspace(0.3, 0.6, 20).tolist()}, 0
        )

    def test_weak_confidence_level(self):
        report = violation_experiment(self.task, "catoni_linear", "gibbs", 500, 0.5, 400, 0)
        se = math.sqrt(0.5 * 0.5 / 400)
        assert report.violation_rate <= 0.5 + 3 * se

    def test_seeger_guarantee(self):
        report = violation_experiment(self.task, "seeger", "gibbs", 500, 0.05, 400, 1)
        se = math.sqrt(0.05 * 0.95 / 400)
        assert report.violation_rate <= 0.05 + 3 * se

    def test_corruption_control_detects(self):
        report = violation_experiment(
            self.task, "seeger", "gibbs", 500, 0.05, 400, 1, corruption=0.5
        )
        se = math.sqrt(0.05 * 0.95 / 400)
        assert report.violation_rate > 0.05 + 10 * se

    def test_bit_reproducible(self):
        a = violation_experiment(self.task, "mcallester", "gibbs", 300, 0.1, 200, 11)
        b = violation_experiment(self.task, "mcallester", "gibbs", 300, 0.1, 200, 11)
        assert a.rows == b.rows

    def test_oracle_probability_event(self):
        report = violation_experiment(
            self.task, "oracle_probability", "gibbs", 500, 0.05, 500, 7, lam=100.0
        )
        se = math.sqrt(0.05 * 0.95 / 500)
        assert report.violations <= 0.05 * 500 + 3 * se * 500

    def test_posterior_rules(self):
        for rule in ("gibbs", "erm_dirac", "fixed_rho"):
            report = violation_experiment(self.task, "mcallester", rule, 200, 0.1, 50, 2)
            assert report.trials == 50

    @pytest.mark.parametrize("corruption", [math.nan, -1.0, 0.0, math.inf])
    def test_corruption_outside_0_inf_refused(self, corruption):
        # NaN read as violation rate 0.0 ("the bound held"), -1 and 0 as 1.0
        task = make_synthetic_task("risk_table", {"p": [0.3, 0.4, 0.5]}, 0)
        with pytest.raises(ValueError, match=r"^corruption must lie in \(0, inf\)"):
            violation_experiment(task, "seeger", "gibbs", 200, 0.05, 20, 0,
                                 corruption=corruption)

    def test_chi_square_needs_kappa(self):
        with pytest.raises(ValueError):
            violation_experiment(self.task, "chi_square", "gibbs", 200, 0.1, 10, 0)

    def test_heavy_tail_chi_square(self):
        ht = make_synthetic_task(
            "heavy_tail", {"means": [0.5, 0.7, 0.9], "sds": 0.5, "tail_shape": 2.5}, 0
        )
        report = violation_experiment(ht, "chi_square", "fixed_rho", 300, 0.1, 400, 9)
        se = math.sqrt(0.1 * 0.9 / 400)
        assert report.violation_rate <= 0.1 + 3 * se

    @pytest.mark.parametrize("bound_id", ["seeger", "catoni_linear", "mcallester",
                                          "lambda_grid", "oracle_probability"])
    def test_heavy_tail_rejects_bounded_loss_bounds(self, bound_id):
        ht = make_synthetic_task("heavy_tail", {"means": [0.5, 0.7, 0.9], "sds": 0.5}, 0)
        with pytest.raises(ValueError, match=f"{bound_id} needs a bounded loss range.*heavy_tail"):
            violation_experiment(ht, bound_id, "gibbs", 300, 0.1, 10, 0)

    def test_overflowing_gibbs_exponent_refused(self):
        # lam r = 1e308 * 3.0 overflows: refused before numpy's multiply can
        # warn (warnings are errors here), not normalized into a Dirac
        ht = make_synthetic_task("heavy_tail", {"means": [0.5, 3.0], "sds": 0.001}, 0)
        with pytest.raises(ValueError, match="h = -lambda r must be finite"):
            violation_experiment(ht, "chi_square", "gibbs", 300, 0.1, 5, 0, lam=1e308)

    @pytest.mark.parametrize("rule, lam, name", [("erm_dirac", "closed_form", "posterior_rule"),
                                                 ("fixed_rho", "closed_form", "posterior_rule"),
                                                 ("gibbs", 7.0, "lam")])
    def test_lambda_grid_takes_only_its_own_search(self, rule, lam, name):
        # the grid row searches Gibbs posteriors over its own lambdas; another
        # rule or a lambda was ignored while the report named it
        with pytest.raises(ValueError, match=f"{name} must be"):
            violation_experiment(self.task, "lambda_grid", rule, 500, 0.05, 5, 0, lam=lam)

    @pytest.mark.parametrize("rule, lam", [("erm_dirac", None), ("gibbs", 7.0)])
    def test_lambda_grid_refusal_is_the_catalogs(self, rule, lam):
        with pytest.raises(ValueError) as refusal:
            bounds.BOUND_TABLE["lambda_grid"].check_search(rule, lam)
        with pytest.raises(ValueError, match=re.escape(str(refusal.value))):
            violation_experiment(self.task, "lambda_grid", rule, 500, 0.05, 5, 0, lam=lam)

    def test_localized_empirical_validated_range(self):
        # the displayed formula's denominator grows superlinearly in lambda;
        # inside the validated range the guarantee holds with margin, while
        # large lambda visibly breaks it (which is why compare stays inside)
        for lam in (1.0, 5.0, 15.0):
            report = violation_experiment(
                self.task, "localized_empirical", "gibbs", 500, 0.05, 300, 5,
                lam=lam, xi=0.5,
            )
            assert report.violation_rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 300)
        broken = violation_experiment(
            self.task, "localized_empirical", "gibbs", 500, 0.05, 300, 5,
            lam=80.0, xi=0.5,
        )
        assert broken.violation_rate > 0.5


class TestSupportSize:
    """A prior or fixed posterior of the wrong size is named, not a numpy error."""

    task = make_synthetic_task("risk_table", {"p": [0.2, 0.4, 0.6, 0.8]}, 0)

    @pytest.mark.parametrize("bound_id", ["mcallester", "lambda_grid"])
    def test_violation_prior(self, bound_id):
        with pytest.raises(ValueError, match="pi has 3 masses but the task has 4"):
            violation_experiment(self.task, bound_id, "gibbs", 100, 0.1, 5, 0,
                                 pi=DiscreteDistribution.uniform(3))

    def test_violation_fixed_posterior(self):
        with pytest.raises(ValueError, match="fixed_rho has 5 masses but the task has 4"):
            violation_experiment(self.task, "mcallester", "fixed_rho", 100, 0.1, 5, 0,
                                 fixed_rho=DiscreteDistribution.uniform(5))

    def test_rate_prior(self):
        with pytest.raises(ValueError, match="pi has 3 masses but the task has 4"):
            rate_experiment(self.task, N_GRID, 5, 0, pi=DiscreteDistribution.uniform(3))


class TestBlockedTrials:
    """The blocked violation and rate passes give the rows of the trial-by-trial
    loops they replaced, bit for bit, in one block or in many."""

    P = np.linspace(0.3, 0.6, 20).tolist()
    TASKS = {
        "independent": make_synthetic_task("risk_table", {"p": P}, 0),
        "shared": make_synthetic_task("risk_table", {"p": P, "shared_noise": True}, 0),
        "margin": make_synthetic_task("threshold_margin",
                                      {"tau": 0.2, "grid_size": 41, "star_index": 17}, 0),
        "heavy": make_synthetic_task("heavy_tail", {"means": np.linspace(0.5, 0.9, 20).tolist(),
                                                    "sds": 0.5}, 0),
    }
    # 60 entries: three trials of M = 20 per block, and lambda_grid's seven
    # lambdas split over three blocks per trial
    BLOCKS = pytest.mark.parametrize("block", [None, 60], ids=["one_block", "blocks"])

    @staticmethod
    def same(fast, loop) -> bool:
        fields = ("trials", "violations", "violation_rate", "se", "mean_bound", "mean_true_risk",
                  "rows", "slope", "details")
        return all(repr(getattr(fast, f)) == repr(getattr(loop, f)) for f in fields)

    def check(self, block, monkeypatch, task, *args, **kw):
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        fast = violation_experiment(self.TASKS[task], *args, **kw)
        assert self.same(fast, violation_experiment_loop(self.TASKS[task], *args, **kw))

    @BLOCKS
    @pytest.mark.parametrize("bound_id", [b for b in BOUND_IDS if b not in ("chi_square",
                                                                            "truncated")]
                             + ["oracle_probability"])
    def test_every_bound(self, bound_id, block, monkeypatch):
        kw = {"thiemann": {"lam": 1.0}, "localized_empirical": {"lam": 5.0, "xi": 0.5},
              "oracle_probability": {"lam": 100.0}}.get(bound_id, {})
        self.check(block, monkeypatch, "independent", bound_id, "gibbs", 500, 0.05, 40, 3, **kw)

    @BLOCKS
    @pytest.mark.parametrize("task", ["independent", "shared", "margin"])
    @pytest.mark.parametrize("rule", ["gibbs", "erm_dirac", "fixed_rho"])
    def test_rules_tasks_and_corruption(self, rule, task, block, monkeypatch):
        m = self.TASKS[task].m
        rho = DiscreteDistribution.from_weights(np.random.default_rng(m).random(m))
        for bound_id in ("seeger", "lambda_grid"):
            args = (block, monkeypatch, task, bound_id, rule, 300, 0.1, 25, 5)
            if bound_id == "lambda_grid" and rule != "gibbs":  # the grid searches Gibbs rows only
                with pytest.raises(ValueError, match="posterior_rule must be 'gibbs'"):
                    self.check(*args, fixed_rho=rho, corruption=0.7)
                continue
            self.check(*args, fixed_rho=rho, corruption=0.7)

    @BLOCKS
    @pytest.mark.parametrize("rule", ["gibbs", "fixed_rho"])
    def test_heavy_tail_moment_bound(self, rule, block, monkeypatch):
        self.check(block, monkeypatch, "heavy", "chi_square", rule, 300, 0.1, 40, 9)

    @BLOCKS
    @pytest.mark.parametrize("task", ["independent", "shared", "margin", "heavy"])
    @pytest.mark.parametrize("rule", ["fast", "slow"])
    def test_rates(self, rule, task, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        args = (self.TASKS[task], N_GRID, 20, 4)
        if task == "heavy":
            # C = inf set lambda to 0 under both rules, so every rep measured the prior
            with pytest.raises(ValueError, match=f"the {rule} rate needs a bounded loss "
                                                 "range.*heavy_tail"):
                rate_experiment(*args, rule=rule)
            return
        assert self.same(rate_experiment(*args, rule=rule), rate_experiment_loop(*args, rule=rule))

    @BLOCKS
    def test_lambda_grid_normalizes_each_gibbs_row_once(self, block, monkeypatch):
        # every (trial, lambda) Gibbs row goes through one _logsumexp row; the
        # winners are read off the same pass, not built again
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        rows, real = [], divergences._logsumexp
        monkeypatch.setattr(divergences, "_logsumexp",
                            lambda a, *work: rows.append(np.shape(a)[:-1]) or real(a, *work))
        violation_experiment(self.TASKS["independent"], "lambda_grid", "gibbs", 500, 0.05, 7, 3)
        grid = oracle_lab.bounds.lambda_grid_geometric(500)
        assert sum(int(np.prod(shape)) for shape in rows) == 7 * grid.size


class TestRateExperiment:
    def test_noiseless_fast_rate(self):
        task = make_synthetic_task("risk_table", {"p": [0.0, 0.3, 0.35, 0.4, 0.5]}, 0)
        report = rate_experiment(task, N_GRID, 50, 0, rule="fast")
        assert report.slope <= -0.8

    def test_noisy_slow_rate_window(self):
        p = (0.44 + 0.06 * np.arange(20) / 19).tolist()
        task = make_synthetic_task("risk_table", {"p": p}, 0)
        report = rate_experiment(
            task, [100, 200, 400, 800, 1600, 3200, 6400, 12800], 50, 0,
            rule="slow", eps=0.05,
        )
        assert -0.7 <= report.slope <= -0.3

    def test_single_hypothesis_sentinel(self):
        task = make_synthetic_task("risk_table", {"p": [0.4]}, 0)
        report = rate_experiment(task, N_GRID, 10, 0, rule="fast", K=1.0)
        assert math.isnan(report.slope)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            validate_geometric_grid([100, 200, 400])  # too short
        with pytest.raises(ValueError):
            validate_geometric_grid([100, 150, 400, 800, 1600])  # not geometric
        validate_geometric_grid([100, 200, 400, 800, 1600])

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_grid_refuses_non_finite_entries(self, last):
        grid = [100, 200, 400, 800, last]
        with pytest.raises(ValueError, match="n_grid must be finite"):
            validate_geometric_grid(grid)
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.5]}, 0)
        with pytest.raises(ValueError, match="n_grid must be finite"):
            rate_experiment(task, grid, 2, 0, rule="fast", K=1.0)

    def test_bit_reproducible(self):
        task = make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.5]}, 0)
        a = rate_experiment(task, N_GRID, 20, 3, rule="fast")
        b = rate_experiment(task, N_GRID, 20, 3, rule="fast")
        assert a.slope == b.slope
        assert a.rows == b.rows


class TestExponentialMoment:
    def test_degenerate_constant(self):
        report = verify_exponential_moment(
            {"kind": "constant", "value": 0.7, "n": 5}, [0.3, 1.0], 1000, 0
        )
        for row in report.rows:
            assert row["mgf_hat"] == pytest.approx(1.0)
            assert row["mgf_hat"] <= row["hoeffding_rhs"]
        assert report.hoeffding_ok and report.bernstein_ok

    def test_t_zero_exact(self):
        report = verify_exponential_moment(
            {"kind": "bernoulli", "p": 0.3, "n": 10}, [0.0], 100, 0
        )
        row = report.rows[0]
        assert row["mgf_hat"] == 1.0
        assert row["hoeffding_rhs"] == 1.0
        assert row["bernstein_rhs"] == 1.0

    def test_bernoulli_against_closed_form(self):
        report = verify_exponential_moment(
            {"kind": "bernoulli", "p": 0.3, "n": 10}, [0.2], 100_000, 1
        )
        row = report.rows[0]
        closed = (0.7 + 0.3 * math.exp(0.2)) ** 10 * math.exp(-0.6)
        assert row["closed_form"] == pytest.approx(closed, rel=1e-12)
        assert abs(row["mgf_hat"] - closed) <= 3 * row["rel_se"] * row["mgf_hat"]
        assert report.hoeffding_ok and report.bernstein_ok

    def test_uniform_holds(self):
        report = verify_exponential_moment(
            {"kind": "uniform", "low": 0.0, "high": 1.0, "n": 8}, [0.1, 0.5, 1.0], 50_000, 2
        )
        assert report.hoeffding_ok and report.bernstein_ok

    def test_bernstein_tighter_than_hoeffding_for_skewed(self):
        report = verify_exponential_moment(
            {"kind": "bernoulli", "p": 0.05, "n": 10}, [0.3], 10_000, 3
        )
        row = report.rows[0]
        assert row["bernstein_rhs"] < row["hoeffding_rhs"]

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            verify_exponential_moment({"kind": "lognormal", "n": 5}, [0.1], 100, 0)
