"""Seeded RNG derivation: child_rngs gives child_rng's generators, bit for bit,
and the CLI starts without importing numpy.random."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pacbayes._util import child_rng, child_rngs

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
