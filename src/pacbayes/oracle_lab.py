"""Oracle-inequality laboratory.

Synthetic tasks with analytically known true risks, exact Bernstein-constant
computation, oracle right-hand-side evaluators (plain, probability,
fast-rate, dimension-based, localized), Monte Carlo violation testing of
the probability statements behind every empirical bound, convergence-rate
measurement, and direct checks of the exponential-moment inequalities.

Every experiment derives per-trial RNG streams deterministically from
(seed, trial index), so runs are bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds, divergences
from .bounds import bernstein_g
from .divergences import (
    DiscreteDistribution,
    gibbs_reweight,
    _gibbs_family,
    _kl_log_prior,
    _log_gibbs,
    _logsumexp,
    _row_dots,
    _safe_log,
)
from ._util import _check_count, _check_index, child_rng, child_rngs

__all__ = [
    "SyntheticTask",
    "RiskTableTask",
    "ThresholdMarginTask",
    "HeavyTailTask",
    "make_synthetic_task",
    "BernsteinEstimate",
    "estimate_bernstein_constant",
    "oracle_bound_rhs",
    "pi_dimension",
    "LocalizedOracle",
    "localized_oracle_rhs",
    "ExperimentReport",
    "violation_experiment",
    "rate_experiment",
    "verify_exponential_moment",
    "MomentReport",
]

# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------


class SyntheticTask:
    """A generative task whose true risks are known in closed form.

    Subclasses expose: ``true_risk`` (vector R(theta)), ``theta_star``
    (unique argmin index), ``C`` (loss range), samplers for loss matrices
    and for the empirical-risk sufficient statistic, and the exact second
    moments E[(loss(theta) - loss(theta*))^2] behind Bernstein's condition.

    The experiments draw empirical risks a block at a time:
    ``sample_emp_risks(n, rngs)`` gives one row per generator, row t with
    the bits of ``sample_emp_risk(n, rngs[t])``.  The base class stacks
    those one-trial calls; a subclass that overrides the block makes its
    one-trial call the one-row block, so each task has one sampler.

    ``_draw_params`` names the attributes the samplers read; the lab keeps
    the draws of a class that names them in its own body (see
    ``_stacked_draws``).  ``_draw_words(n)`` is about what one trial's draw
    allocates, in 8-byte words; the base class averages an n x M loss
    matrix.
    """

    kind: str = "abstract"
    C: float = 1.0
    seed: int = 0
    _draw_params: tuple = ()

    true_risk: np.ndarray
    theta_star: int

    @property
    def m(self) -> int:
        return int(self.true_risk.size)

    @property
    def risk_star(self) -> float:
        return float(self.true_risk[self.theta_star])

    @property
    def gaps(self) -> np.ndarray:
        return self.true_risk - self.risk_star

    def sample_losses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_emp_risk(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Column means of a fresh n-example loss matrix.

        Subclasses may compute them without materializing the matrix.
        ThresholdMarginTask and the shared-noise RiskTableTask return the
        same values as ``sample_losses(n, rng).mean(axis=0)`` for the same
        rng, bit for bit; the independent RiskTableTask (binomial counts)
        and HeavyTailTask (mean shock) draw the sufficient statistic
        directly, so theirs match in distribution only.
        """
        return self.sample_losses(n, rng).mean(axis=0)

    def sample_emp_risks(self, n: int, rngs) -> np.ndarray:
        """sample_emp_risk(n, rng) for each generator of the sequence rngs,
        stacked in order into a C-contiguous (len(rngs) x M) block."""
        return np.array([self.sample_emp_risk(n, rng) for rng in rngs], dtype=float)

    def _draw_words(self, n) -> int:
        return n * self.m

    def second_moments_vs_star(self) -> np.ndarray:
        raise NotImplementedError

    def sample_second_moments(self, samples: int, rng: np.random.Generator) -> np.ndarray:
        """Column means of (loss(theta) - loss(theta*))^2 over a fresh
        samples-example loss matrix, differenced and squared in place: no
        (samples x M) temporary beside it, and the bits of the formula."""
        losses = self.sample_losses(samples, rng)
        losses -= losses[:, [self.theta_star]]
        return np.square(losses, out=losses).mean(axis=0)


def _check_unique_argmin(values: np.ndarray) -> int:
    star = int(np.argmin(values))
    if np.sum(values == values[star]) != 1:
        raise ValueError("the true-risk minimizer must be unique")
    return star


class RiskTableTask(SyntheticTask):
    """Per-hypothesis Bernoulli losses with error rates p_j (0-1 loss, C=1).

    Losses are independent across hypotheses by default; with
    ``shared_noise=True`` they are coupled through a common uniform field
    loss_i(theta_j) = 1{U_i < p_j}, the realistic correlated case.  Both
    satisfy every theorem (they are distribution-free over the data law).
    """

    kind = "risk_table"
    C = 1.0
    _draw_params = ("p", "shared_noise")

    def __init__(self, p, shared_noise: bool = False, seed: int = 0):
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty vector")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("error rates must lie in [0, 1]")
        self.p = p
        self.true_risk = p.copy()
        self.theta_star = _check_unique_argmin(p)
        self.shared_noise = bool(shared_noise)
        self.seed = seed

    def sample_losses(self, n, rng):
        if self.shared_noise:
            u = rng.random(n)
            return (u[:, None] < self.p[None, :]).astype(float)
        return (rng.random((n, self.m)) < self.p[None, :]).astype(float)

    def sample_emp_risk(self, n, rng):
        if self.shared_noise:
            return super().sample_emp_risk(n, rng)
        return rng.binomial(n, self.p) / n

    def _draw_words(self, n):
        return super()._draw_words(n) if self.shared_noise else self.m

    def second_moments_vs_star(self):
        ps = self.p[self.theta_star]
        if self.shared_noise:
            return np.abs(self.p - ps)
        out = self.p + ps - 2.0 * self.p * ps
        out[self.theta_star] = 0.0  # same variable, not an independent copy
        return out


class ThresholdMarginTask(SyntheticTask):
    """Threshold classifiers on uniform inputs under a margin condition.

    Inputs X ~ U[0,1]; labels follow the best threshold theta* and are
    flipped with probability 1/2 - tau, so |P(Y=1|x) - 1/2| = tau
    everywhere.  Then R(theta) - R(theta*) = 2 tau |theta - theta*| and
    Bernstein's condition holds with K = 1/(2 tau) exactly.
    """

    kind = "threshold_margin"
    C = 1.0
    _draw_params = ("tau", "thresholds", "star_index")

    def __init__(self, tau: float, thresholds, star_index: Optional[int] = None, seed: int = 0):
        if not (0 < tau <= 0.5):
            raise ValueError("tau must lie in (0, 1/2]")
        thr = np.asarray(thresholds, dtype=float)
        if thr.ndim != 1 or thr.size == 0:
            raise ValueError("thresholds must be a nonempty vector")
        if np.unique(thr).size != thr.size:
            raise ValueError("thresholds must be distinct")
        self.tau = float(tau)
        self.thresholds = thr
        self.star_index = (thr.size // 2 if star_index is None
                           else _check_index(star_index, thr.size, "star_index"))
        self.seed = seed
        dist = np.abs(thr - thr[self.star_index])
        self.true_risk = (0.5 - tau) + 2.0 * tau * dist
        self.theta_star = _check_unique_argmin(self.true_risk)

    def _sample_xy(self, n, rng):
        x = rng.random(n)
        flip = rng.random(n) < (0.5 - self.tau)
        y = (x >= self.thresholds[self.star_index]) ^ flip
        return x, y

    def sample_losses(self, n, rng):
        x, y = self._sample_xy(n, rng)
        pred = x[:, None] >= self.thresholds[None, :]
        return (pred != y[:, None]).astype(float)

    def sample_emp_risk(self, n, rng):
        return self.sample_emp_risks(n, [rng])[0]

    def sample_emp_risks(self, n, rngs):
        """Threshold j errs on the below_j inputs under it (x_i < theta_j) that
        carry label 1 and on the inputs at or above it that carry label 0, so
        with k_j = #{x_i < theta_j} and `ones` label-1 inputs in all, its error
        count is (n - k_j) - (ones - below_j) + below_j.  The counts are
        integers, so each row has the bits of the loss-matrix column means.

        Trials run in chunks of divergences._block_rows(n) on one workspace
        reused by every chunk.  Trial t fills x[t], then the flip draws f[t],
        from its generator: _sample_xy's stream order.  An x in [0, 1) has an
        int64 bit pattern that orders as its value does and leaves the top
        bit free, so bits << 1 | label sorts each row by x and carries the
        labels along: the cumsum of bit 0 is the label-1 prefix count, bits
        >> 1 is the sorted x, a search of it gives k, and below is the prefix
        count at k.
        """
        out = np.empty((len(rngs), self.m))
        rows = min(divergences._block_rows(n), len(rngs))
        x, f = np.empty((2, rows, n))
        label, flip = np.empty((2, rows, n), dtype=bool)
        count = np.zeros((rows, n + 1), dtype=np.int64)  # count[:, 0] stays 0
        star, cut = self.thresholds[self.star_index], 0.5 - self.tau
        for s in range(0, len(rngs), rows):
            chunk = rngs[s:s + rows]
            for t, rng in enumerate(chunk):
                rng.random(out=x[t])
                rng.random(out=f[t])
            c = len(chunk)
            xs, bits, lab, prefix = x[:c], x[:c].view(np.int64), label[:c], count[:c, 1:]
            np.not_equal(np.greater_equal(xs, star, out=lab), np.less(f[:c], cut, out=flip[:c]),
                         out=lab)
            bits <<= 1
            bits |= lab
            bits.sort(axis=1)
            np.cumsum(np.bitwise_and(bits, 1, out=prefix), axis=1, out=prefix)
            bits >>= 1
            k = np.array([row.searchsorted(self.thresholds) for row in xs])
            below = np.take_along_axis(count[:c], k, axis=1)
            out[s:s + c] = ((n - k) - (count[:c, n:] - below) + below) / n
        return out

    def _draw_words(self, n):
        return 4 * n + self.m  # x, f, the prefix counts and the packed bools, then a row

    def sample_second_moments(self, samples, rng):
        # (loss(theta) - loss(theta*))^2 is 1{min(theta, theta*) <= x < max(theta, theta*)}:
        # count each disagreement region on one sorted draw of x, with the bits of
        # the 0/1 column mean
        xs = np.sort(rng.random(samples))
        star = self.thresholds[self.star_index]
        lo, hi = np.minimum(self.thresholds, star), np.maximum(self.thresholds, star)
        return (xs.searchsorted(hi) - xs.searchsorted(lo)) / samples

    def second_moments_vs_star(self):
        # losses differ exactly on the disagreement region of the two thresholds
        return np.abs(self.thresholds - self.thresholds[self.star_index])


class HeavyTailTask(SyntheticTask):
    """Unbounded losses driven by a shared Pareto shock with known variance.

    loss_i(theta_j) = mean_j + scale_j * (W_i - E[W]) where W is a standard
    Pareto with shape alpha > 2, so every loss has exact mean ``means[j]``
    and exact standard deviation ``sds[j]``; kappa = max sds^2 bounds all
    variances.  The loss range C is infinite: only moment-based bounds
    (chi-square) apply.
    """

    kind = "heavy_tail"
    C = math.inf
    _draw_params = ("means", "sds", "alpha")

    def __init__(self, means, sds, tail_shape: float = 2.5, seed: int = 0):
        means = np.asarray(means, dtype=float)
        sds = np.broadcast_to(np.asarray(sds, dtype=float), means.shape).copy()
        if means.ndim != 1 or means.size == 0:
            raise ValueError("means must be a nonempty vector")
        if np.any(sds < 0):
            raise ValueError("sds must be nonnegative")
        if not (tail_shape > 2):
            raise ValueError("tail_shape must exceed 2 so the variance exists")
        self.means = means
        self.sds = sds
        self.alpha = float(tail_shape)
        self.seed = seed
        self.true_risk = means.copy()
        self.theta_star = _check_unique_argmin(means)

    @property
    def kappa(self) -> float:
        return float(np.max(self.sds) ** 2)

    def _shocks(self, n, rng):
        # W standardized by its exact mean and sd, both read off alpha alone
        a = self.alpha
        w_mean, w_sd = a / (a - 1.0), math.sqrt(a / ((a - 1.0) ** 2 * (a - 2.0)))
        return (1.0 + rng.pareto(a, size=n) - w_mean) / w_sd

    def sample_losses(self, n, rng):
        z = self._shocks(n, rng)
        return self.means[None, :] + z[:, None] * self.sds[None, :]

    def sample_emp_risk(self, n, rng):
        return self.means + self._shocks(n, rng).mean() * self.sds

    def _draw_words(self, n):
        return 2 * n + self.m  # the shocks and one temporary, then a row

    def second_moments_vs_star(self):
        dm = self.means - self.means[self.theta_star]
        ds = self.sds - self.sds[self.theta_star]
        return dm**2 + ds**2


#: The parameters make_synthetic_task accepts for each task kind.
_TASK_PARAMS = {
    "risk_table": ("p", "shared_noise"),
    "threshold_margin": ("tau", "grid_size", "thresholds", "star_index"),
    "heavy_tail": ("means", "sds", "tail_shape"),
}


#: What the lab simulates: one trial's draw allocates at most _DRAW_WORDS
#: 8-byte words (1 GiB), so a task has at most that many hypotheses, and a
#: sample size n lies in the int64 range numpy's samplers take.
_DRAW_WORDS, _N_MAX = 1 << 27, 2**63 - 1


#: What one experiment runs, about 2.5 GB at each limit: at most _TRIALS
#: violation trials, each keeping a report row and a few per-trial columns
#: (0.3-0.6 KB measured), and at most _REPS rate reps in all, len(n_grid) x
#: reps, each keeping a 16-byte key while its grid point's reps also hold
#: their seeding words and log excess risks (36 B a rep in all on the
#: shortest, 5-point grid; tracemalloc peaks on a 20-arm risk table).
_TRIALS, _REPS = 1 << 22, 1 << 26


class _DrawLimitError(ValueError):
    """A task, sample size or trial count past what the lab may allocate."""


def _check_trials(name: str, count: int, limit: int, points: int = 1) -> None:
    """Refuse an experiment of more than limit runs in all, count at each of points."""
    if count * points > limit:
        raise _DrawLimitError(f"{name} = {count!r} asks for {count * points} {name}; an "
                              f"experiment runs at most 2**{limit.bit_length() - 1} ({limit})")


def _check_draw(task: SyntheticTask, n, name: str = "n") -> None:
    """Refuse a sample size whose one-trial draw the lab cannot simulate."""
    if _check_count(n, name) > _N_MAX:
        raise _DrawLimitError(f"{name} must be at most 2**63 - 1, the int64 range of a "
                              f"sample size, got {n!r}")
    if (words := task._draw_words(n)) > _DRAW_WORDS:
        raise _DrawLimitError(f"{name} = {n!r} asks one trial's draw of the {task.kind} task "
                              f"for {words} 8-byte words; the lab allocates at most 2**27 "
                              "(1 GiB) a trial")


def make_synthetic_task(kind: str, params: dict, seed: int = 0) -> SyntheticTask:
    """Build a synthetic task from a JSON-friendly parameter dict.

    kinds and parameters:
      risk_table       {"p": [...], "shared_noise": bool?}
      threshold_margin {"tau": float, "grid_size": int} or {"tau", "thresholds": [...]},
                       "star_index": int?
      heavy_tail       {"means": [...], "sds": [...] or float, "tail_shape": float?}

    A parameter the kind does not take raises ValueError naming it, so a
    misspelt key cannot silently leave its default in place.  A grid_size
    past the 2**27 entries one trial's draw may hold raises _DrawLimitError.
    The task stores ``seed``, but no sampler reads it: every draw's stream
    comes from the generator it is given (the experiments' child_rng(seed, ...)).
    """
    params = dict(params)
    if kind not in _TASK_PARAMS:
        raise ValueError(f"unknown task kind {kind!r}")
    for key in params:
        if key not in _TASK_PARAMS[kind]:
            raise ValueError(f"unknown {kind} task parameter {key!r}; it takes "
                             + ", ".join(_TASK_PARAMS[kind]))
    if kind == "risk_table":
        return RiskTableTask(params["p"], shared_noise=params.get("shared_noise", False), seed=seed)
    if kind == "threshold_margin":
        if ("thresholds" in params) == ("grid_size" in params):
            raise ValueError("a threshold_margin task takes exactly one of grid_size and thresholds")
        if "grid_size" in params:
            size = _check_count(params["grid_size"], "grid_size")
            if size > _DRAW_WORDS:
                raise _DrawLimitError(f"grid_size must be at most 2**27, the entries one "
                                      f"trial's draw may hold, got {params['grid_size']!r}")
        thr = params["thresholds"] if "thresholds" in params else np.linspace(0.0, 1.0, size)
        return ThresholdMarginTask(params["tau"], thr, star_index=params.get("star_index"), seed=seed)
    if kind == "heavy_tail":
        return HeavyTailTask(
            params["means"],
            params.get("sds", 1.0),
            tail_shape=params.get("tail_shape", 2.5),
            seed=seed,
        )


# ---------------------------------------------------------------------------
# Bernstein constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernsteinEstimate:
    """The smallest K with E[(loss(theta)-loss(theta*))^2] <= K (R(theta)-R(theta*)).

    ``ratios`` holds the per-hypothesis diagnostics (NaN at theta* and at
    skipped zero/zero entries); K = +inf flags a hypothesis with matching
    risk but mismatched losses, where the condition fails outright.
    """

    K: float
    ratios: np.ndarray


def estimate_bernstein_constant(
    task: SyntheticTask,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> BernsteinEstimate:
    """Bernstein constant of a task, exactly or by Monte Carlo.

    ``mode="exact"`` uses the task's closed-form second moments (available
    because the outcome spaces are enumerable), so the result is not
    statistical.  ``mode="statistical"`` replaces the second moments with
    the seeded sample average ``task.sample_second_moments(samples,
    child_rng(seed, 0))``; the risk gaps stay exact.  The threshold-margin
    task counts that average on one sorted draw of inputs, the others
    average a loss matrix.
    """
    if mode == "exact":
        second = task.second_moments_vs_star()
    elif mode == "statistical":
        second = task.sample_second_moments(_check_count(samples, "samples"), child_rng(seed, 0))
    else:
        raise ValueError("mode must be 'exact' or 'statistical'")
    gaps = task.gaps
    # a zero gap gives inf, or NaN (0/0, skipped) where the moment vanishes too
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(gaps <= 0, np.where(second > 1e-12, math.inf, math.nan), second / gaps)
    ratios[task.theta_star] = math.nan
    K = float(np.max(ratios, initial=0.0, where=~np.isnan(ratios)))
    return BernsteinEstimate(K=K, ratios=ratios)


# ---------------------------------------------------------------------------
# Oracle right-hand sides
# ---------------------------------------------------------------------------


def _dv_inf(pi: DiscreteDistribution, r: np.ndarray, beta: float) -> float:
    """inf over rho of E_rho[r] + KL(rho || pi)/beta, in closed form.

    The Donsker-Varadhan formula gives it as -log E_pi[e^{-beta r}]/beta,
    reached at the Gibbs measure pi_{-beta r}.  With r0 = min r and
    u = E_pi[e^{-beta (r - r0)}] - 1, summed from expm1 terms that are all
    <= 0, the log is -beta r0 + log1p(u) while u >= -1/2: so it keeps its
    relative accuracy as beta -> 0, where it nears 0.  Below, the log is at
    least log 2 in size, and it is one _logsumexp of log pi - beta r.  A
    beta r that is not finite raises ValueError, as it does for the Gibbs
    family: the closed form would return +inf or 0 there.
    """
    if not (beta > 0 and math.isfinite(beta * float(np.abs(r).max()))):
        raise ValueError("h = -lambda r must be finite, with lambda > 0 and "
                         "lambda * max |r| finite")
    r0 = float(r.min())
    with np.errstate(over="ignore"):  # a spread beta (r - r0) of inf has expm1 -1
        u = float(np.dot(pi.weights, np.expm1(-beta * (r - r0))))
    if u >= -0.5:
        return r0 - math.log1p(u) / beta
    return -_logsumexp(_safe_log(pi.weights) - beta * r) / beta


def oracle_bound_rhs(
    task: SyntheticTask,
    pi: DiscreteDistribution,
    lam: Optional[float],
    variant: str,
    *,
    n: int,
    eps: Optional[float] = None,
    K: Optional[float] = None,
) -> float:
    """Right-hand side of an oracle inequality, with an exact infimum over rho.

    variants:
      "expectation"  inf_rho E_rho[R] + lam C^2/(8n) + KL(rho||pi)/lam
      "probability"  inf_rho E_rho[R] + lam C^2/(4n) + 2 (KL + log(2/eps))/lam
      "fast"         2 inf_rho {E_rho[R] - R* + max(2K, C) KL(rho||pi)/n},
                     the excess-risk form at the prescribed lam = n/max(2K, C)
    Each infimum is the Donsker-Varadhan identity
    inf_rho {E_rho[g] + KL(rho||pi)/beta} = -log E_pi[e^{-beta g}]/beta, reached
    at the Gibbs measure pi_{-beta g}: one closed form per call, at temperature
    beta = lam (expectation), lam/2 (probability) or n/max(2K, C) (fast, with
    g = R - R*).
    Every variant needs losses in [0, C]: a task with C = inf raises ValueError.
    n must be an integer >= 1 and eps, where given, lie in (0, 1).
    """
    bounds._check_inputs(n, eps)
    _check_bounded(task, f"the {variant} oracle")
    R = task.true_risk
    C = task.C
    if variant == "fast":
        if K is None:
            K = estimate_bernstein_constant(task).K
        return 2.0 * _dv_inf(pi, task.gaps, n / max(2.0 * K, C))
    if lam is None:
        raise ValueError(f"the {variant!r} variant needs a lambda")
    bounds._check_lambda(lam)
    if variant == "expectation":
        return lam * bounds._square(C) / (8.0 * n) + _dv_inf(pi, R, lam)
    if variant == "probability":
        if eps is None:
            raise ValueError("the probability variant needs eps in (0, 1)")
        const = lam * bounds._square(C) / (4.0 * n)
        return const + _dv_inf(pi, R, lam / 2.0) + 2.0 * bounds._log_inv(eps, 2.0) / lam
    raise ValueError(f"unknown variant {variant!r}")


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of fn over log-spaced [lo, hi], to a
    bracket 1e-6 wide in log."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(math.exp(c)), fn(math.exp(d))
    while (b - a) > 1e-6:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(math.exp(d))
    x = math.exp(0.5 * (a + b))
    return x, fn(x)


def pi_dimension(
    pi: DiscreteDistribution, true_risk, C: float
) -> tuple[float, float]:
    """Catoni's pi-dimension: sup_beta beta * E_{pi_{-beta R}}[R - R*].

    A 1000-point log-grid scan of [1e-6, 1e8] picks the best grid point, and
    one golden-section search on log(beta) refines it, to relative tolerance
    1e-6, between that point's two grid neighbours.  The scan only picks
    that point: in row blocks of divergences._block_rows(m) rows at most,
    one beta per row, it pays one exp per weight that can be nonzero and
    takes beta * E[gap] from one product with [gaps, 1].  The winning grid
    point is evaluated again by the scalar objective the search calls, so
    every value returned comes from that objective, and (d_pi, beta_star)
    are those of one scalar call per grid point wherever both scans pick
    the same point.  A multimodal objective is handled as long
    as its highest peak is wider than one grid step (a factor of 1.033 in
    beta).  Every value returned is the objective at some beta the search
    visited, so d_pi is a lower estimate of the supremum: up to the rounding
    of one evaluation it can undershoot, never overshoot.
    Returns (d_pi, beta_star); all-equal risks give (0, NaN).
    """
    R = np.asarray(true_risk, dtype=float)
    if R.shape != pi.weights.shape:
        raise ValueError("true_risk must match the prior support")
    gaps = R - R.min()
    if np.all(gaps == 0):
        return 0.0, math.nan
    logpi = _safe_log(pi.weights)

    def objective(beta: float) -> float:
        return beta * float(np.dot(np.exp(_log_gibbs(logpi, -beta * gaps)), gaps))

    # The scan sorts the hypotheses by gap; j is the first with mass.  A row's
    # max is at least ls[j] - beta * gs[j] and no log mass exceeds ls.max(), so
    # past the gap gs[j] + reach/beta every log weight is over 746 nats below
    # the max, its exp is 0 exactly, and the row is cut there (the 1e-9 covers
    # the rounding of beta * gap).  Every block reuses the pages of one buffer.
    grid = np.geomspace(1e-6, 1e8, 1000)
    order = np.argsort(gaps, kind="stable")
    gs, ls = gaps[order], logpi[order]
    j = int(np.argmax(ls > -np.inf))
    reach = ls.max() - ls[j] + 746.0
    gaps_ones = np.stack([gs, np.ones_like(gs)], axis=1)
    buf = np.empty(max(divergences._FAMILY_BLOCK, gs.size))
    scan = np.empty(grid.size)
    i = 0
    while i < grid.size:
        m = int(np.searchsorted(gs, (gs[j] + reach / grid[i]) * (1.0 + 1e-9), side="right"))
        b = grid[i:i + divergences._block_rows(m)]
        t = np.multiply.outer(b, gs[:m], out=buf[:b.size * m].reshape(b.size, m))
        np.subtract(ls[:m], t, out=t)
        t -= t.max(axis=1, keepdims=True)
        np.exp(t, out=t)
        num, den = (t @ gaps_ones[:m]).T
        scan[i:i + b.size] = b * num / den
        i += b.size
    k = int(np.argmax(scan))
    beta_g, val_g = _golden_max(objective, grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    val_k = objective(float(grid[k]))
    if val_k > val_g:
        beta_g, val_g = float(grid[k]), val_k
    return float(val_g), float(beta_g)


@dataclass(frozen=True)
class LocalizedOracle:
    """Result of the localized oracle evaluation.

    value              inf over rho of 3 (E_rho R - R*) + 4 max(2K,C) KL(rho||pi_{-lam/4 R})/n
    closed_form        the delta_{theta*} choice, 4 max(2K,C) log(sum_theta e^{-n gap/(4 max(2K,C))})/n
                       (the displayed finite-case sum when pi is uniform)
    split_displayed    the m_tau split exactly as displayed, m_tau + e^{-n tau/(4c)} (M - m_tau)
    split_consistent   the split consistent with m_tau counting gaps >= tau
    """

    value: float
    closed_form: float
    lam: float
    scale: float
    tau: float
    m_tau: int
    split_displayed: float
    split_consistent: float


def localized_oracle_rhs(
    task: SyntheticTask,
    pi: DiscreteDistribution,
    K: float,
    n: int,
    tau: Optional[float] = None,
) -> LocalizedOracle:
    """Localized oracle right-hand side at the fast-rate temperature.

    Localization replaces the prior with its Gibbs reweighting by the true
    risk, pi' = pi_{-(lam/4) R} with lam = n/max(2K, C); choosing rho in the
    same Gibbs family makes the KL term collapse and removes the log(M)
    factor.  The value, 3 inf_rho {E_rho[g] + KL(rho||pi')/beta} with
    g = R - R* and beta = 3 lam/4, is in closed form by the Donsker-Varadhan
    identity: -(4/lam) log E_pi'[e^{-(3 lam/4) g}], reached at
    pi'_{-(3 lam/4) g} = pi_{-lam R}.  Relative to pi it reads
    (4/lam) [log E_pi e^{-(lam/4) g} - log E_pi e^{-lam g}], the log moment
    generating function at the two temperatures lam/4 and lam.
    Both m_tau split conventions are reported as diagnostics because the
    source display pairs the decayed exponential with the wrong count.
    n must be an integer >= 1.
    """
    bounds._check_inputs(n, None)
    _check_bounded(task, "the localized oracle")
    R = task.true_risk
    C = task.C
    scale = max(2.0 * K, C)
    lam = n / scale
    gaps = task.gaps
    local_prior = gibbs_reweight(pi, -(lam / 4.0) * R)
    best = 3.0 * _dv_inf(local_prior, gaps, 0.75 * lam)
    # KL(delta_theta* || pi') = log1p(T), T the sum of pi' over theta != theta*
    # over pi'(theta*): nonnegative terms, so the KL keeps its digits where T
    # is tiny, as the value does
    star = float(local_prior.weights[task.theta_star])
    tail = float(np.delete(local_prior.weights, task.theta_star).sum())
    closed_form = 4.0 * scale * (math.log1p(tail / star) if star > 0 else math.inf) / n

    if tau is None:
        positive = gaps[gaps > 0]
        tau = float(positive.min()) if positive.size else 0.0
    m_tau = int(np.sum(gaps >= tau)) if tau > 0 else task.m
    decay = math.exp(-n * tau / (4.0 * scale)) if tau > 0 else 1.0
    coef = 4.0 * scale / n
    split_displayed = coef * math.log(m_tau + decay * (task.m - m_tau)) if tau > 0 else math.nan
    # theta* has gap 0 < tau, so M - m_tau >= 1: log1p keeps decay * m_tau
    # where it lies below the ulp of 1
    split_consistent = (coef * math.log1p((task.m - m_tau - 1) + decay * m_tau)
                        if tau > 0 else math.nan)
    return LocalizedOracle(
        value=float(best),
        closed_form=float(closed_form),
        lam=lam,
        scale=scale,
        tau=tau,
        m_tau=m_tau,
        split_displayed=split_displayed,
        split_consistent=split_consistent,
    )


# ---------------------------------------------------------------------------
# Violation and rate experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    """Summary of a seeded Monte Carlo experiment.

    ``rows`` holds one record per trial (or per grid point for rate
    experiments) with keys n, seed, excess_risk, bound_value, violated.
    ``se`` is the binomial standard error of the observed violation rate.
    """

    trials: int
    violations: int
    violation_rate: float
    se: float
    mean_bound: float
    mean_true_risk: float
    rows: list = field(default_factory=list)
    slope: Optional[float] = None
    details: dict = field(default_factory=dict)


def _check_bounded(task: SyntheticTask, what: str) -> None:
    if not math.isfinite(task.C):
        raise ValueError(f"{what} needs a bounded loss range; the {task.kind} task's losses "
                         "are unbounded (only moment bounds such as chi_square apply)")


def _check_support_size(name: str, dist: Optional[DiscreteDistribution], m: int) -> None:
    if dist is not None and dist.size != m:
        raise ValueError(f"{name} has {dist.size} masses but the task has {m} hypotheses")


#: The draw cache, by value key: each kept set is charged the 8-byte words
#: it holds with its key, and the least recently used sets are dropped until
#: the charges total at most _DRAW_CACHE (2**19 words, 4 MiB)
_DRAW_CACHE = 1 << 19
_drawn: dict = {}

#: The task methods a draw runs through; a patched one gives another key
_SAMPLERS = ("sample_emp_risks", "sample_emp_risk", "sample_losses", "_sample_xy", "_shocks")


def _draw_key(task: SyntheticTask, n, seed, keys: np.ndarray):
    """The value key of a draw set: the task's class, sampler functions and
    the bytes of each parameter its class declares, n, seed, the keys, and
    last the set's charge in words: its entries, the words of the key's
    arrays and 2**7 (1 KiB) for the key's objects, which hold about 0.9 KB.
    None for a class that declares no parameters or a set charged more than
    _DRAW_CACHE."""
    params = type(task).__dict__.get("_draw_params")
    if not params:
        return None
    values = [np.asarray(getattr(task, name)) for name in params]
    words = len(keys) * task.m + (keys.nbytes + sum(v.nbytes for v in values)) // 8 + 2**7
    if words > _DRAW_CACHE:
        return None
    samplers = [getattr(task, name, None) for name in _SAMPLERS]
    return (type(task), *(getattr(f, "__func__", f) for f in samplers),
            *((v.dtype.str, v.shape, v.tobytes()) for v in values),
            n, seed, keys.dtype.str, keys.shape, keys.tobytes(), words)


def _stacked_draws(task: SyntheticTask, n: int, seed: int, keys):
    """task.sample_emp_risk(n, child_rng(seed, *key)) for each key of keys,
    in order, as C-contiguous (draws x M) blocks of divergences._block_rows(M)
    draws at most.

    Experiments that share (task, n, seed, keys) draw once.  A miss seeds the
    keys' generators in one child_rngs pass and makes one
    task.sample_emp_risks call per block.  A set that _draw_key charges at
    most _DRAW_CACHE words (2**19 entries less its key's share) is then kept
    whole and read-only: the least recently used sets are dropped to make
    room, the blocks are written into one (draws x M) array, so a miss holds
    the set and one block, and a hit reads its blocks back with the bits of
    the miss.  A larger set, or a task whose class declares no _draw_params,
    streams its blocks afresh on every call.
    """
    keys = np.asarray(keys)
    key = _draw_key(task, n, seed, keys)
    drawn = _drawn.pop(key, None) if key else None
    rows = divergences._block_rows(task.m)
    if drawn is None:
        rngs = child_rngs(seed, keys)
        if key is None:
            for block in iter(lambda: list(itertools.islice(rngs, rows)), []):
                yield task.sample_emp_risks(n, block)
            return
        kept = key[-1] + sum(k[-1] for k in _drawn)
        while kept > _DRAW_CACHE:  # the set used first goes first
            kept -= (old := next(iter(_drawn)))[-1]
            del _drawn[old]
        drawn = np.empty((len(keys), task.m))
        for s in range(0, len(drawn), rows):
            drawn[s:s + rows] = task.sample_emp_risks(n, list(itertools.islice(rngs, rows)))
        drawn.flags.writeable = False
    _drawn[key] = drawn  # the set used last goes last
    for s in range(0, len(drawn), rows):
        yield drawn[s:s + rows]


def violation_experiment(
    task: SyntheticTask,
    bound_id: str,
    posterior_rule: str,
    n: int,
    eps: float,
    trials: int,
    seed: int,
    *,
    lam="closed_form",
    xi: float = 0.0,
    pi: Optional[DiscreteDistribution] = None,
    fixed_rho: Optional[DiscreteDistribution] = None,
    corruption: float = 1.0,
) -> ExperimentReport:
    """Estimate how often a bound's probability statement fails.

    Trial t draws a fresh empirical-risk vector r from child_rng(seed, t),
    forms the posterior per ``posterior_rule`` ("gibbs", "erm_dirac",
    "fixed_rho", pi unless given), evaluates the bound, and compares it
    against the exact E_rho[R] from the task's closed form; a violation is
    E_rho[R] > corruption * bound.  ``corruption`` < 1 deliberately
    falsifies the certificate and serves as a sensitivity control for the
    harness itself.

    The draws stay one per trial, their generators seeded in one
    child_rngs pass, and are stacked into (trials x M) blocks of
    divergences._block_rows(M) trials at most.  The trials draw common
    random numbers: every experiment on one (task, n, seed, trials) sees the
    same draws, which _stacked_draws makes once and keeps (the least recently
    used sets dropped first, 2**19 words in all).  An n whose one-trial draw
    is past the lab's limit (see _check_draw), or more than 2**22 trials,
    raises _DrawLimitError, a ValueError, before any trial is drawn.
    Gibbs rows, E_rho[r] and KL(rho || pi) come from divergences._gibbs_family, E_rho[R] is one product
    per block it yields, and the certificates one ``CatalogEntry.values``
    call per block.  lambda_grid scores each (trial, lambda) pair of its pass
    and keeps each trial's first minimum with its E_rho[R], so no winner is
    built twice.  Each row has the bits of the trial-by-trial loop.
    ``oracle_probability``, the probability oracle right-hand side, is a
    lab-only row dispatched like the catalog's.
    lambda_grid searches its own Gibbs posteriors and lambdas, so it takes
    only the "gibbs" rule and no numeric lam.
    """
    trials = _check_count(trials, "trials")
    _check_trials("trials", trials, _TRIALS)
    _check_draw(task, n)
    if not (0 < corruption < math.inf):
        raise ValueError(f"corruption must lie in (0, inf), got {corruption!r}")
    _check_support_size("pi", pi, task.m)
    _check_support_size("fixed_rho", fixed_rho, task.m)
    pi = pi or DiscreteDistribution.uniform(task.m)
    R = task.true_risk
    # the lab-only oracle row stays out of the catalog; its evaluate (None) is never called
    entry = bounds.BOUND_TABLE.get(bound_id, bounds.CatalogEntry(
        "oracle_probability", ("posterior",), "range", None, lambda q, kl, lam, d, W: (np.full(
            q.shape, oracle_bound_rhs(task, pi, lam, "probability", n=n, eps=eps)), {}, {}),
        lam_kind="free"))
    if entry.bound_id != bound_id:
        raise ValueError(f"unknown bound id {bound_id!r}")
    if entry.scale != "moment":
        _check_bounded(task, bound_id)
    # moment bounds on unbounded losses: C = 1 only sets the posterior's
    # closed-form lambda and the vacuity threshold
    C = task.C if math.isfinite(task.C) else 1.0
    kind = entry.lam_kind
    if posterior_rule not in ("gibbs", "erm_dirac", "fixed_rho"):
        raise ValueError(f"unknown posterior rule {posterior_rule!r}")
    entry.check_search(posterior_rule, lam)
    lam_value = None
    if kind == "free" or (posterior_rule == "gibbs" and kind != "grid"):
        # a data-free pick (the closed form at the Dirac complexity log M
        # under a uniform prior) keeps the fixed-lambda theorems valid here
        lam_value = bounds.resolve_lambda(lam, math.log(task.m), n, eps, C)
    lam_bound = entry.run_lambda(lam, lam_value)
    if kind == "grid":
        grid = bounds.lambda_grid_geometric(n)
    logpi = _safe_log(pi.weights)

    blocks = []  # (bound values, E_rho[R]) of each draws block
    for risks in _stacked_draws(task, n, seed, np.arange(trials)[:, None]):
        if kind == "grid":
            bounds._check_inputs(n, None, C, risks.min(), risks.max())
            emp, kl, risk = (np.concatenate(c).reshape(-1, grid.size) for c in zip(*(
                (e, k, _row_dots(w, R)) for w, e, k in _gibbs_family(logpi, risks, grid, logpi))))
            scores = bounds._lambda_grid_values(grid, emp, kl, n, eps, C)
            best = np.arange(len(risks)), scores.argmin(axis=1)
            blocks.append((scores[best], risk[best]))
            continue
        if posterior_rule == "gibbs":  # at one lambda, a draws block is one family block
            (w, emp, kl), = _gibbs_family(logpi, risks, [lam_value], logpi)
        else:
            w = (np.broadcast_to((fixed_rho or pi).weights, risks.shape)
                 if posterior_rule == "fixed_rho"
                 else (np.arange(task.m) == risks.argmin(axis=1)[:, None]).astype(float))
            emp, kl = _row_dots(w, risks), _kl_log_prior(w, logpi)
        data = bounds.BoundData(risks, n, eps, C, prior=pi, xi=xi,
                                kappa=getattr(task, "kappa", None))
        blocks.append((entry.values(data, w, emp, kl, lam_bound), _row_dots(w, R)))
    values, true = map(np.concatenate, zip(*blocks))
    risk_star, bound = task.risk_star, corruption * values  # the trial loop's float operations
    excess = true - risk_star
    violated = true > bound
    rows = [{"n": n, "seed": seed, "excess_risk": e, "bound_value": v, "violated": x}
            for e, v, x in zip(excess.tolist(), bound.tolist(), violated.tolist())]
    violations = int(np.count_nonzero(violated))
    rate = violations / trials
    return ExperimentReport(
        trials=trials,
        violations=violations,
        violation_rate=rate,
        se=math.sqrt(rate * (1.0 - rate) / trials),
        mean_bound=float(np.mean(bound)),
        mean_true_risk=float(np.mean(excess + risk_star)),
        rows=rows,
        details={"bound_id": bound_id, "posterior_rule": posterior_rule, "eps": eps,
                 "lambda": lam_value, "corruption": corruption},
    )


def rate_experiment(
    task: SyntheticTask,
    n_grid,
    reps: int,
    seed: int,
    *,
    rule: str = "fast",
    eps: float = 0.05,
    K: Optional[float] = None,
    pi: Optional[DiscreteDistribution] = None,
) -> ExperimentReport:
    """Measure the convergence rate of the Gibbs posterior's excess risk.

    For each n in the (geometric, >= 5 point) grid, averages the exact
    excess risk E_{rho_lam}[R] - R* over ``reps`` fresh samples, rep k of
    grid point i drawn from child_rng(seed, i, k), with lam = n/max(2K, C)
    under the fast rule or the closed-form slow lambda (at the a-priori
    complexity log M) under the slow rule.  Returns the least-squares slope
    of log(mean excess) against log(n); excess risks are accumulated in the
    log domain, so exponentially small values do not underflow.  A task
    with no excess risk anywhere yields the NaN sentinel slope.  A task with
    C = inf, whose lam would be 0, raises ValueError, and more than 2**26
    reps in all (len(n_grid) * reps) raise _DrawLimitError.

    The draws of one n are stacked into blocks, and kept, as in
    violation_experiment: every rate experiment on one (task, n, seed, reps)
    shares them while their sets fit the cache's 2**19 words, so the fast
    and slow rules on one task draw once.  Each block's log Gibbs weights
    and log excess risks are one matrix pass each, every row with the bits
    of the rep-by-rep loop.
    """
    validate_geometric_grid(n_grid)  # first, so an inf or NaN reads "n_grid must be finite"
    n_grid = [_check_count(v, "n_grid entry") for v in n_grid]
    if rule not in ("fast", "slow"):
        raise ValueError("rule must be 'fast' or 'slow'")
    _check_bounded(task, f"the {rule} rate")
    reps = _check_count(reps, "reps")
    _check_trials("reps", reps, _REPS, len(n_grid))
    _check_draw(task, n_grid[-1], "n_grid entry")  # the grid increases
    _check_support_size("pi", pi, task.m)
    pi = pi or DiscreteDistribution.uniform(task.m)
    C = task.C
    if rule == "fast" and K is None:
        K = estimate_bernstein_constant(task).K
    logpi = _safe_log(pi.weights)
    gaps = task.gaps
    others = np.flatnonzero(np.arange(task.m) != task.theta_star)
    log_gaps = _safe_log(gaps[others])

    keys = np.indices((len(n_grid), reps)).transpose(1, 2, 0)  # rep k of point i at (i, k)
    rows = []
    log_means = []
    for i, n in enumerate(n_grid):
        lam = (
            n / max(2.0 * K, C)
            if rule == "fast"
            else bounds.select_lambda_closed_form(math.log(task.m), n, eps, C)
        )

        if others.size:
            log_excess = np.concatenate([
                _logsumexp(_log_gibbs(logpi, -lam * risks)[:, others] + log_gaps)
                for risks in _stacked_draws(task, n, seed, keys[i])])
        else:
            log_excess = np.full(reps, -math.inf)
        if np.isinf(log_excess).all():
            log_mean = -math.inf
        else:
            log_mean = _logsumexp(log_excess) - math.log(reps)
        log_means.append(log_mean)
        rows.append(
            {
                "n": n,
                "seed": seed,
                "excess_risk": math.exp(log_mean) if math.isfinite(log_mean) else 0.0,
                "bound_value": math.nan,
                "violated": math.nan,
            }
        )

    if any(not math.isfinite(v) for v in log_means):
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(np.asarray(n_grid, dtype=float)), log_means, 1)[0])
    return ExperimentReport(
        trials=len(n_grid) * reps,
        violations=0,
        violation_rate=0.0,
        se=0.0,
        mean_bound=math.nan,
        mean_true_risk=float(np.mean([row["excess_risk"] for row in rows]) + task.risk_star),
        rows=rows,
        slope=slope,
        details={"rule": rule, "log_mean_excess": log_means, "eps": eps},
    )


def validate_geometric_grid(n_grid) -> None:
    """A usable n-grid has >= 5 strictly increasing, geometric entries."""
    if len(n_grid) < 5:
        raise ValueError("n_grid must have at least 5 points")
    arr = np.asarray(n_grid, dtype=float)
    if not np.isfinite(arr).all() or np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise ValueError("n_grid must be finite, positive and strictly increasing")
    ratios = np.log(arr[1:] / arr[:-1])
    if np.max(np.abs(ratios - ratios.mean())) > 0.1:
        raise ValueError("n_grid must be geometric (constant ratio)")


# ---------------------------------------------------------------------------
# Exponential moment checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """Per-t verification rows for the exponential-moment inequalities."""

    rows: list
    hoeffding_ok: bool
    bernstein_ok: bool


def _summand(dist_spec: dict):
    """(low, high, mean, var, draw, mgf) of a bounded summand law.

    draw(rng, shape) samples the law; mgf(t, n) is the closed-form
    E[e^{t sum (U_i - EU_i)}] over n summands, for t != 0.
    """
    kind = dist_spec["kind"]
    if kind == "bernoulli":
        p = float(dist_spec["p"])
        if not (0 <= p <= 1):
            raise ValueError("p must lie in [0, 1]")
        return (0.0, 1.0, p, p * (1 - p), lambda rng, shape: (rng.random(shape) < p).astype(float),
                lambda t, n: ((1 - p) + p * math.exp(t)) ** n * math.exp(-t * n * p))
    if kind == "uniform":
        low, high = float(dist_spec["low"]), float(dist_spec["high"])
        if not (high >= low):
            raise ValueError("need high >= low")

        def mgf(t, n):
            if high == low:
                return 1.0
            single = (math.exp(t * high) - math.exp(t * low)) / (t * (high - low))
            return single**n * math.exp(-t * n * 0.5 * (low + high))

        return (low, high, 0.5 * (low + high), (high - low) ** 2 / 12.0,
                lambda rng, shape: low + (high - low) * rng.random(shape), mgf)
    if kind == "constant":
        v = float(dist_spec["value"])
        return v, v, v, 0.0, lambda rng, shape: np.full(shape, v), lambda t, n: 1.0
    raise ValueError(f"unsupported (or unbounded) distribution kind {kind!r}")


def verify_exponential_moment(
    dist_spec: dict,
    t_grid,
    samples: int,
    seed: int,
) -> MomentReport:
    """Monte Carlo check of the Hoeffding and Bernstein MGF inequalities.

    ``dist_spec`` describes n i.i.d. bounded summands, e.g.
    {"kind": "bernoulli", "p": 0.3, "n": 10}.  For each t, the empirical
    estimate of E[e^{t sum(U_i - EU_i)}] must stay below the Hoeffding
    right-hand side e^{n t^2 (b-a)^2/8} and the Bernstein right-hand side
    e^{g((b-a) t) n t^2 Var}, each inflated by five relative standard
    errors of the Monte Carlo estimate.
    """
    n = _check_count(dist_spec["n"], "dist_spec n")
    samples = _check_count(samples, "samples", 2)
    low, high, mean, var, draw, mgf = _summand(dist_spec)
    span = high - low
    rng = child_rng(seed, 0)

    # Accumulate the centered sums once, in chunks, then reuse across t.
    sums = np.empty(samples)
    chunk = 200_000
    for pos in range(0, samples, chunk):
        k = min(chunk, samples - pos)
        sums[pos : pos + k] = draw(rng, (k, n)).sum(axis=1) - n * mean

    rows = []
    hoeffding_ok = True
    bernstein_ok = True
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        vals = np.exp(t * sums)
        mgf_hat = float(vals.mean())
        rel_se = float(vals.std(ddof=1) / math.sqrt(samples) / mgf_hat) if t != 0 else 0.0
        hoeffding_rhs = math.exp(n * t**2 * span**2 / 8.0)
        bernstein_rhs = math.exp(bernstein_g(span * t) * n * t**2 * var)
        slack = 1.0 + 5.0 * rel_se
        h_ok = mgf_hat <= hoeffding_rhs * slack
        b_ok = mgf_hat <= bernstein_rhs * slack
        hoeffding_ok &= h_ok
        bernstein_ok &= b_ok
        rows.append(
            {
                "t": float(t),
                "mgf_hat": mgf_hat,
                "rel_se": rel_se,
                "hoeffding_rhs": hoeffding_rhs,
                "bernstein_rhs": bernstein_rhs,
                "closed_form": 1.0 if t == 0 else mgf(float(t), n),
                "hoeffding_ok": h_ok,
                "bernstein_ok": b_ok,
            }
        )
    return MomentReport(rows=rows, hoeffding_ok=hoeffding_ok, bernstein_ok=bernstein_ok)
