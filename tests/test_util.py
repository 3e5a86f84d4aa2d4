"""The whole-number rules every count and index shares; seeded RNG derivation:
child_rngs gives child_rng's generators, bit for bit, and the CLI starts
without importing numpy.random."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pacbayes import _util, bounds, divergences, oracle_lab, posteriors
from pacbayes._util import _check_count, _check_index, child_rng, child_rngs
from pacbayes.divergences import DiscreteDistribution

SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32 + 5, 2**64, 2**130 + 17, 2**200 - 1]


def assert_same_streams(seed, keys):
    rngs = list(child_rngs(seed, keys))
    assert len(rngs) == len(keys)
    for key, rng in zip(keys, rngs):
        ref = child_rng(seed, *key)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, key)
        assert rng.binomial(50, 0.3, size=4).tolist() == ref.binomial(50, 0.3, size=4).tolist()
        assert rng.random() == ref.random()


class TestChildRngs:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_same_state_as_child_rng(self, seed, arity):
        entries = [0, 1, 7, 2**31, 2**32 - 1]
        assert_same_streams(seed, list(itertools.product(entries, repeat=arity)))

    @pytest.mark.parametrize("seed", [0, 2**130 + 17])
    def test_block_of_one_and_of_300(self, seed):
        assert_same_streams(seed, [(2**32 - 1, 4)])
        assert_same_streams(seed, [(i, 3 * i + 1) for i in range(300)])

    def test_array_keys_and_numpy_seed(self):
        keys = np.arange(5)[:, None]
        rngs = child_rngs(np.int64(9), keys)
        assert [g.bit_generator.state for g in rngs] == [
            child_rng(9, k).bit_generator.state for k in range(5)]

    def test_generators_are_made_lazily(self):
        rngs = child_rngs(3, [(k,) for k in range(1000)])
        first = next(rngs)
        assert first.bit_generator.state == child_rng(3, 0).bit_generator.state
        assert sum(1 for _ in rngs) == 999

    @pytest.mark.parametrize("seed, keys", [
        (-1, [(0,)]),             # SeedSequence refuses a negative seed
        (0, [(0,), (-1,)]),       # and a negative key entry
        (0, [(2**32,)]),          # a key entry is one uint32 word
        (0, [(0, 2**70)]),
        (0, [(0,), (1, 2)]),      # every key of a call has one length
        (0, [0, 1]),
    ])
    def test_domain_errors(self, seed, keys):
        with pytest.raises(ValueError):
            list(child_rngs(seed, keys))

    @pytest.mark.parametrize("seed", [2**128, 2**128 + 3, 2**200 - 1])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_cached_words_are_read_only_seed_sequence_words(self, seed, arity):
        keys = [tuple(range(k, k + arity)) for k in (0, 5, 2**32 - arity)]
        first = _util._state_words(seed, keys)
        again = _util._state_words(seed, np.array(keys))  # the same set, read back
        assert again is first
        uncached = np.array(keys, dtype=np.uint32)
        uncached = _util._hashed_words.__wrapped__(seed, uncached.shape, uncached.tobytes())
        for words in (first, uncached):
            assert not words.flags.writeable
            with pytest.raises(ValueError):
                words[0, 0] = 0
            want = [np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
                    for key in keys]
            assert words.tolist() == np.array(want).tolist()

    def test_sets_with_the_same_entries_in_another_shape_are_apart(self):
        assert_same_streams(4, [(0, 1)])
        assert_same_streams(4, [(0,), (1,)])
        assert_same_streams(4, [(0, 1)])

    def test_only_sets_of_at_most_2_14_keys_are_kept(self):
        small, big = np.arange(2**14)[:, None], np.arange(2**14 + 1)[:, None]
        assert _util._state_words(3, small) is _util._state_words(3, small)
        assert _util._state_words(3, big) is not _util._state_words(3, big)

    def test_a_repeated_set_gives_the_same_generators(self):
        keys = np.arange(40)[:, None]
        first = [g.bit_generator.state for g in child_rngs(7, keys)]
        again = list(child_rngs(7, keys))
        assert [g.bit_generator.state for g in again] == first
        assert [g.random() for g in again] == [child_rng(7, k).random() for k in range(40)]
        # a generator's draws leave the cached words, and so the next call, as they were
        assert [g.bit_generator.state for g in child_rngs(7, keys)] == first

    def test_negative_seed_matches_child_rng(self):
        with pytest.raises(ValueError):
            child_rng(-1, 0)
        with pytest.raises(ValueError):
            child_rng(0, -1)


def test_cli_import_leaves_numpy_random_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, pacbayes.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# Every count and index site, as (parameter name the refusal opens with, probe).
# A probe calls the site with value v (3 being valid) and returns what the
# site made of it: at 3, 3.0 and np.int64(3) it must return the same thing.
def _risk_task():
    return oracle_lab.make_synthetic_task("risk_table", {"p": [0.1, 0.3, 0.5]}, 0)


def _pi5():
    return DiscreteDistribution.uniform(5)


WHOLE_NUMBER_SITES = {
    "n": ("n", lambda v: bounds.bound_union_finite(0.1, v, 0.05, 1.0, M=3).value),
    "M": ("M", lambda v: bounds.bound_union_finite(0.1, 100, 0.05, 1.0, M=v).value),
    "trials": ("trials", lambda v: oracle_lab.violation_experiment(
        _risk_task(), "seeger", "gibbs", 50, 0.05, v, 0).trials),
    "reps": ("reps", lambda v: oracle_lab.rate_experiment(
        _risk_task(), [100, 200, 400, 800, 1600], v, 0, rule="fast", K=1.0).rows),
    # validate_geometric_grid sees the grid first: inf and NaN read "n_grid must be finite"
    "n_grid": ("n_grid( entry)?", lambda v: oracle_lab.rate_experiment(
        _risk_task(), [v, 6, 12, 24, 48], 2, 0, rule="fast", K=1.0).rows[0]["n"]),
    "dist_spec_n": ("dist_spec n", lambda v: oracle_lab.verify_exponential_moment(
        {"kind": "bernoulli", "p": 0.3, "n": v}, [0.5], 50, 0).rows),
    "moment_samples": ("samples", lambda v: oracle_lab.verify_exponential_moment(
        {"kind": "bernoulli", "p": 0.3, "n": 2}, [0.5], v, 0).rows),
    "bernstein_samples": ("samples", lambda v: oracle_lab.estimate_bernstein_constant(
        _risk_task(), "statistical", samples=v).K),
    "grid_size": ("grid_size", lambda v: oracle_lab.make_synthetic_task(
        "threshold_margin", {"tau": 0.2, "grid_size": v}).thresholds.tolist()),
    "mc_samples": ("mc_samples", lambda v: posteriors.VariationalConfig(mc_samples=v).mc_samples),
    "max_iters": ("max_iters", lambda v: posteriors.VariationalConfig(max_iters=v).max_iters),
    "patience": ("patience", lambda v: posteriors.VariationalConfig(patience=v).patience),
    "ewa_m": ("m", lambda v: posteriors.ewa_eta_theorem(v, 10)),
    "ewa_horizon": ("horizon", lambda v: posteriors.ewa_eta_theorem(4, v)),
    "uniform_m": ("m", lambda v: DiscreteDistribution.uniform(v).weights.tolist()),
    "dirac_m": ("m", lambda v: DiscreteDistribution.dirac(v, 0).weights.tolist()),
    "ball_d": ("d", lambda v: divergences.kl_uniform_ball(v, 2.0, 1.0)),
    "child_rng_seed": ("seed", lambda v: child_rng(v, 0).bit_generator.state),
    "child_rngs_seed": ("seed", lambda v: [g.bit_generator.state for g in child_rngs(v, [(0,)])]),
    "dirac_index": ("index", lambda v: DiscreteDistribution.dirac(5, v).weights.tolist()),
    "star_index": ("star_index", lambda v: oracle_lab.ThresholdMarginTask(
        0.2, np.linspace(0.0, 1.0, 5), star_index=v).star_index),
    "star_index_json": ("star_index", lambda v: oracle_lab.make_synthetic_task(
        "threshold_margin", {"tau": 0.2, "grid_size": 5, "star_index": v}).star_index),
    "theta_idx": ("theta_idx", lambda v: posteriors.single_draw_certificate(
        _pi5(), _pi5(), v, 0.3, 100, 0.05, 1.0, 10.0).details["theta_idx"]),
}


class TestWholeNumberRules:
    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3.0)], ids=repr)
    def test_every_site_takes_a_whole_number_as_that_int(self, site, value):
        _, probe = WHOLE_NUMBER_SITES[site]
        at_three = probe(3)
        got = probe(value)
        assert got == at_three
        if isinstance(at_three, int):  # the site reports the count: it is the int 3
            assert type(got) is int and got == 3

    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True, "3"], ids=repr)
    def test_every_site_refuses_what_is_not_one(self, site, value):
        name, probe = WHOLE_NUMBER_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must"):
            probe(value)

    def test_count_rule(self):
        assert _check_count(1000.0, "n") == 1000 and type(_check_count(1000.0, "n")) is int
        assert _check_count(np.int32(0), "seed", 0) == 0
        assert _check_count(2**200, "seed", 0) == 2**200
        for bad in (0, -1, 0.5, -math.inf, None, np.bool_(True), [3], np.array([3])):
            with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
                _check_count(bad, "n")
        with pytest.raises(ValueError, match=r"^samples must be an integer >= 2, got 1$"):
            _check_count(1, "samples", 2)

    def test_index_rule(self):
        assert _check_index(np.float64(4.0), 5, "index") == 4
        for bad in (-1, 5, 1.5, False, "0"):
            with pytest.raises(ValueError, match=r"^index must be an integer in \[0, 5\), got "):
                _check_index(bad, 5, "index")

    def test_n_grid_entries_are_counts(self):
        # a geometric grid of fractional sizes once ran silently at their floors
        with pytest.raises(ValueError, match="^n_grid entry must be an integer >= 1, got 100.7"):
            oracle_lab.rate_experiment(_risk_task(), [100.7, 201.4, 402.8, 805.6, 1611.2], 2, 0,
                                       rule="fast", K=1.0)
