"""Divergence computations and inversions.

Everything downstream (the bound catalog, the Gibbs-posterior machinery and
the oracle laboratory) is built on the handful of divergences collected here:
the binary KL divergence ``kl(p|q)`` and its upper inverse, discrete KL and
chi-square divergences, the closed-form KL between isotropic Gaussians, the
KL between nested uniform balls, and the Donsker-Varadhan gap that certifies
Gibbs optimality.

All logarithms are natural (nats).  All functions are pure: they never
mutate their inputs and hold no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "DiagonalGaussian",
    "kl_bernoulli",
    "kl_inverse_upper",
    "kl_discrete",
    "chi2_discrete",
    "kl_gaussian_diag",
    "kl_uniform_ball",
    "dv_gap",
    "gibbs_reweight",
]

_WEIGHT_SUM_TOL = 1e-12


def _check_weights(w: np.ndarray) -> None:
    """Raise unless every row of w is finite, nonnegative and sums to 1 within 1e-12."""
    if not ((w >= 0).all() and np.isfinite(w).all()):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum(axis=-1)
    if (abs(total - 1.0) > _WEIGHT_SUM_TOL).any():
        raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass vector over a finite hypothesis index set {0..M-1}.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        _check_weights(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @classmethod
    def uniform(cls, m: int) -> "DiscreteDistribution":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def dirac(cls, m: int, index: int) -> "DiscreteDistribution":
        w = np.zeros(m)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Normalize an arbitrary nonnegative weight vector."""
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("weights must have a positive finite sum")
        return cls(w / total)


@dataclass(frozen=True)
class DiagonalGaussian:
    """Isotropic Gaussian N(mean, std^2 I_d) used as a variational posterior.

    ``d = 0`` is tolerated as a degenerate point mass with no parameters
    (it arises in the variational optimizer's trivial edge case).
    """

    mean: np.ndarray = field()
    std: float = 1.0

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if m.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(m)):
            raise ValueError("mean must be finite")
        if not (self.std > 0):
            raise ValueError("std must be positive")
        m.flags.writeable = False
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", float(self.std))

    @property
    def dim(self) -> int:
        return int(self.mean.size)


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Uses the 0*log(0) = 0 convention at p in {0, 1}.  Returns ``math.inf``
    when q in {0, 1} and p != q, so downstream bounds saturate cleanly
    instead of overflowing.
    """
    p = _check_probability("p", p)
    q = _check_probability("q", q)
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    d = p - q
    if abs(d) <= 0.5 * min(q, 1.0 - q):
        # the terms cancel to O(d^2); d is exact here, so log1p keeps them accurate
        out = p * math.log1p(d / q) + (1.0 - p) * math.log1p(-d / (1.0 - q))
    else:
        out = 0.0
        if p > 0.0:
            out += p * math.log(p / q)
        if p < 1.0:
            out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    # Tiny negative values can appear from rounding when p ~ q.
    return max(out, 0.0)


def kl_inverse_upper(q: float, b: float, tol: float = 1e-9) -> float:
    """Largest p in [q, 1] with kl(q|p) <= b, by bisection, rounded up.

    This is the inversion used to turn Seeger-style statements
    kl(emp | true) <= b into explicit risk bounds.  kl(q|.) is continuous
    and increasing on [q, 1), which makes bisection exact up to ``tol``;
    the result is never below the true inverse and at most ``tol`` above.
    """
    q = _check_probability("q", q)
    b = float(b)
    if not (b >= 0):
        raise ValueError(f"budget b must be nonnegative, got {b!r}")
    if b == 0.0 or q == 1.0:
        return q if q < 1.0 else 1.0
    return _bisect_upper(lambda p: kl_bernoulli(q, p) <= b, q, 1.0, tol)


def _bisect_upper(ok, lo: float, hi: float, tol: float) -> float:
    """Bisect [lo, hi] to within tol for the point where ok stops holding.

    ok holds at lo and is monotone (true, then false); the upper end of the
    final bracket is returned, so the last point where ok holds lies within
    tol below the result and a bound read off it errs upward."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _check_same_support(rho: DiscreteDistribution, pi: DiscreteDistribution) -> None:
    if rho.size != pi.size:
        raise ValueError(f"support sizes differ: {rho.size} vs {pi.size}")


def _safe_log(w: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf and no runtime warnings."""
    out = np.full(w.shape, -np.inf)
    np.log(w, out=out, where=w > 0)
    return out


def _logsumexp(a):
    """log(sum(exp(a))) over the last axis, shifted by each row's maximum.

    The entries equal to the maximum are counted apart from the rest, as in
    scipy.special.logsumexp (Blanchard, Higham & Higham 2021), so results
    match it to the bit; a non-finite result falls back to the direct sum.
    Leading axes broadcast: a 1-D vector gives a float, a (B, M) matrix the
    B row values, each the bits of the 1-D call on that row.
    """
    # Reducing the transpose over its first axis leaves a 1-D input's maximum
    # a numpy scalar, which keeps the per-call cost of the vector case low.  A
    # matrix is made C-contiguous first: reduced over its strided axis, a
    # Fortran-ordered one would sum each row in another order.
    a = np.asarray(a, dtype=float)
    if a.ndim > 1:
        a = np.ascontiguousarray(a)
    a = a.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=0)
        at_top = a == top
        count = at_top.sum(axis=0, dtype=float)
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=0)
        out = np.log1p(rest / count) + np.log(count) + top
        finite = np.isfinite(out)
        if not (finite if out.ndim == 0 else finite.all()):
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=0)))
    return float(out) if out.ndim == 0 else out


def _log_gibbs(logpi: np.ndarray, h) -> np.ndarray:
    """Normalized log weights of the Gibbs measure pi_h, from log pi and h.

    h may be a (B, M) matrix of B exponents, giving one Gibbs measure per row.
    """
    logw = logpi + h
    lse = _logsumexp(logw)
    return logw - (lse if logw.ndim == 1 else lse[:, None])


def _gibbs_weights(logpi: np.ndarray, h) -> np.ndarray:
    """Weights of pi_h, renormalized to sum to 1; one row per row of h."""
    w = np.exp(_log_gibbs(logpi, h))
    return w / w.sum(axis=-1, keepdims=True)


#: Weight-matrix entries per block of Gibbs candidates in _gibbs_family;
#: bounds its temporaries to a few MB each whatever M is.
_FAMILY_BLOCK = 1 << 18


def _gibbs_family(logpi: np.ndarray, r: np.ndarray, lams, logq: np.ndarray):
    """The Gibbs measures pi_{-lam r}, one checked weight row per lam, in blocks.

    r is one risk vector, or a (T, M) matrix giving the measures of every
    (risk row, lam) pair, risk row by risk row.  Yields (w, E_w[r], KL(w || q)),
    q with log masses logq, for consecutive blocks of at most _FAMILY_BLOCK
    entries (at least one row), which hold whole families of lams where one
    fits.  Each row has the bits of gibbs_posterior at its lam, and each
    E_w[r] the bits of the (lams x M) @ r product of its block."""
    lams = np.asarray(lams, dtype=float)
    R = np.atleast_2d(r)
    M = R.shape[1]
    rows = max(1, _FAMILY_BLOCK // M)
    step = min(rows, lams.size)
    per = max(1, rows // lams.size)
    for t in range(0, R.shape[0], per):
        Rb = R[t:t + per]
        for i in range(0, lams.size, step):
            w = _gibbs_weights(logpi, (-lams[i:i + step, None] * Rb[:, None, :]).reshape(-1, M))
            _check_weights(w)
            emp = np.matmul(w.reshape(Rb.shape[0], -1, M), Rb[:, :, None]).reshape(-1)
            yield w, emp, _kl_log_prior(w, logq)


def _row_blocks(w: np.ndarray, *xs):
    """Consecutive row blocks of the matrix w, each of at most _FAMILY_BLOCK
    entries (at least one row), with the matching rows of each matrix in xs; a
    vector in xs goes whole with every block."""
    step = max(1, _FAMILY_BLOCK // max(1, w.shape[1]))
    for i in range(0, w.shape[0], step):
        yield (w[i:i + step], *(x[i:i + step] if np.ndim(x) == 2 else x for x in xs))


def _row_dots(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The dot product of each row of w with x, or with the matching row of x,
    each with the bits of np.dot on that row (a gemv or einsum would differ)."""
    return np.matmul(w[:, None, :], x[..., None])[:, 0, 0]


def _kl_log_prior(r: np.ndarray, logp: np.ndarray):
    """KL(rho || pi) = sum over r > 0 of r (log r - logp), from rho's weights r
    and pi's log masses logp; +inf where logp = -inf.  No ratio r/p can overflow.
    A 1-D r gives a float, a (B, M) matrix the B row KLs, each the bits of the
    1-D call on that row: zero weights enter the sum as 0 terms, not dropped."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > 0, r * (np.log(r) - logp), 0.0)
    # clamp float noise on near-degenerate weights; the divergence is >= 0
    kl = np.maximum(terms.sum(axis=-1), 0.0)
    return float(kl) if kl.ndim == 0 else kl


def kl_discrete(rho: DiscreteDistribution, pi: DiscreteDistribution) -> float:
    """KL(rho || pi) = sum_theta rho(theta) log(rho(theta)/pi(theta)).

    Terms with rho(theta) = 0 contribute nothing; returns ``math.inf`` as
    soon as rho charges an index where pi vanishes.
    """
    _check_same_support(rho, pi)
    return _kl_log_prior(rho.weights, _safe_log(pi.weights))


def _chi2_rows(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """chi^2(rho || pi) for each row rho of the weight matrix w, pi with masses p;
    +inf where a row charges an index where pi vanishes.  Row blocks bound the
    temporaries, and each support slice is made C-contiguous, so every row is
    summed in the order of its own vector."""
    mask = p > 0
    pm = p[mask]
    base = np.sum(pm)
    out = []
    for wb, in _row_blocks(w):
        sq = np.ascontiguousarray(wb[:, mask]) ** 2 / pm
        chi2 = np.maximum(sq.sum(axis=-1) - base, 0.0)
        out.append(np.where((wb[:, ~mask] > 0).any(axis=-1), math.inf, chi2))
    return np.concatenate(out)


def chi2_discrete(rho: DiscreteDistribution, pi: DiscreteDistribution) -> float:
    """Chi-square divergence chi^2(rho || pi) = sum pi [(rho/pi)^2 - 1]."""
    _check_same_support(rho, pi)
    return float(_chi2_rows(rho.weights[None, :], pi.weights)[0])


def kl_gaussian_diag(rho: DiagonalGaussian, prior_std: float) -> float:
    """KL( N(m, s^2 I_d) || N(0, sigma^2 I_d) ), closed form.

    Equals ||m||^2 / (2 sigma^2) + (d/2) [s^2/sigma^2 + log(sigma^2/s^2) - 1].
    """
    if not (prior_std > 0):
        raise ValueError("prior_std must be positive")
    s, sigma = rho.std, float(prior_std)
    d = rho.dim
    ratio = (s / sigma) ** 2
    return float(
        np.dot(rho.mean, rho.mean) / (2.0 * sigma**2)
        + 0.5 * d * (ratio - math.log(ratio) - 1.0)
    )


def kl_uniform_ball(d: int, big_radius: float, small_radius: float) -> float:
    """KL between uniform laws on nested d-balls: d * log(B/s).

    The small ball of radius ``small_radius`` must sit inside the big one;
    the divergence is the log volume ratio.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not (0 < small_radius <= big_radius):
        raise ValueError("radii must satisfy 0 < s <= B")
    return d * math.log(big_radius / small_radius)


def gibbs_reweight(pi: DiscreteDistribution, h) -> DiscreteDistribution:
    """The Gibbs measure pi_h with weights proportional to pi(theta) e^{h(theta)}.

    Computed in the log domain (log-sum-exp with max subtraction), so |h|
    up to ~1e6 is safe.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != pi.weights.shape:
        raise ValueError("h must match the support size")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    return DiscreteDistribution(_gibbs_weights(_safe_log(pi.weights), h))


def dv_gap(h, rho: DiscreteDistribution, pi: DiscreteDistribution) -> float:
    """Gap in the Donsker-Varadhan variational formula.

    Returns log E_pi[e^h] - (E_rho[h] - KL(rho||pi)).  The gap is always
    >= 0 and vanishes exactly when rho is the Gibbs measure pi_h; it equals
    KL(rho || pi_h).  A +inf KL propagates to a +inf gap.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != rho.weights.shape:
        raise ValueError("h must match the support size")
    _check_same_support(rho, pi)
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    kl = kl_discrete(rho, pi)
    if math.isinf(kl):
        return math.inf
    lhs = _logsumexp(_safe_log(pi.weights) + h)
    rhs = float(np.dot(rho.weights, h)) - kl
    return lhs - rhs
