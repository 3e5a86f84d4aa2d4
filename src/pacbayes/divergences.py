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
from dataclasses import InitVar, dataclass, field

import numpy as np

from ._util import _check_count, _check_index

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

    Weights must be nonnegative and sum to 1 within 1e-12.  _checked=True is
    for a weight vector the library has just passed through _check_weights.
    """

    weights: np.ndarray
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not _checked:
            _check_weights(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @classmethod
    def uniform(cls, m: int) -> "DiscreteDistribution":
        m = _check_count(m, "m")
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def dirac(cls, m: int, index: int) -> "DiscreteDistribution":
        w = np.zeros(_check_count(m, "m"))
        w[_check_index(index, w.size, "index")] = 1.0
        return cls(w)

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Normalize an arbitrary nonnegative weight vector."""
        w = np.asarray(weights, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
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


#: kl_inverse_upper bisects a column of at least this many elements in one
#: masked array pass and a shorter one element by element.  The masked pass
#: costs 1.3-1.5 ms up to a few hundred elements, the loop about 0.05 ms an
#: element, so they cross near 30 (medians of 7 on a 2-CPU host: 16 elements
#: 0.86 / 1.45 ms).  Both stay: the masked pass alone would make a
#: one-element certificate about 18x slower, the loop alone a 100-trial
#: column 3-5x slower.
_KL_INVERSE_COLUMN_MIN = 32


def kl_inverse_upper(q, b):
    """Largest p in [q, 1] with kl(q|p) <= b, by bisection, rounded up.

    This is the inversion used to turn Seeger-style statements
    kl(emp | true) <= b into explicit risk bounds.  kl(q|.) is continuous
    and increasing on [q, 1), which makes bisection exact up to 1e-9;
    the result is never below the true inverse and at most 1e-9 above.

    Two numbers give a float, bisected with no array built (0-d arrays
    cost about 10 us a call).  Arrays broadcast to one inverse per element,
    in the broadcast shape, each with the bits of its one-element call.  A q
    outside [0, 1], or else a b below 0 or NaN, raises ValueError naming the
    first such value.  Fewer than ``_KL_INVERSE_COLUMN_MIN`` elements bisect
    one by one, about 30 kl_bernoulli calls each; a longer column takes
    ``_kl_inverse_upper_columns``, one masked bisection with the same bits.
    """
    if np.isscalar(q) and np.isscalar(b):  # q is checked first, as below
        return _kl_inverse_one(_check_probability("q", q), _check_budget(float(b)))
    qa, ba = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(b, dtype=float))
    q_ok = (qa >= 0.0) & (qa <= 1.0)
    if not q_ok.all():
        _check_probability("q", qa[~q_ok][0])
    if not (ba >= 0.0).all():
        _check_budget(float(ba[~(ba >= 0.0)][0]))
    if qa.size >= _KL_INVERSE_COLUMN_MIN:
        return _kl_inverse_upper_columns(qa, ba)
    pairs = zip(qa.ravel().tolist(), ba.ravel().tolist())
    return np.array([_kl_inverse_one(x, y) for x, y in pairs]).reshape(qa.shape)


def _check_budget(b: float) -> float:
    if not (b >= 0.0):
        raise ValueError(f"budget b must be nonnegative, got {b!r}")
    return b


def _kl_inverse_one(q: float, b: float) -> float:
    """kl_inverse_upper of one checked pair of floats, by scalar bisection."""
    if b == 0.0 or q == 1.0:
        return q
    return _bisect_upper(lambda p: kl_bernoulli(q, p) <= b, q, 1.0, 1e-9)


def _kl_bernoulli_at_most(p, one_minus_p, q, b) -> np.ndarray:
    """kl_bernoulli(p[i], q[i]) <= b[i] for each i, for p < 1, p <= q <= 1 and b > 0.

    The kl takes kl_bernoulli's branch and float operations element by
    element (a term at p = 0 is 0).  numpy's vectorized log and log1p may
    round an ulp away from libm's, which moves each term by a few ulps; so
    where the kl lies within 2^-48 (|t1| + |t2|) of b, kl_bernoulli itself
    makes the test again, and every answer is the element loop's.
    """
    one_minus_q = 1.0 - q
    d = p - q
    near = np.abs(d) <= 0.5 * np.minimum(q, one_minus_q)
    # a finished element's mid may round to 1, making its kl and b both +inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(near, p * np.log1p(d / q), p * np.log(p / q))
        t2 = np.where(near, one_minus_p * np.log1p(-d / one_minus_q),
                      one_minus_p * np.log(one_minus_p / one_minus_q))
        t1[p == 0.0] = 0.0
        kl = t1 + t2
        # q >= p makes t1 <= 0 <= t2, so t2 - t1 is |t1| + |t2|
        close = np.abs(kl - b) <= 2.0**-48 * (t2 - t1)
    ok = kl <= b
    for i in np.flatnonzero(close):
        ok[i] = kl_bernoulli(p[i], q[i]) <= b[i]
    return ok


def _kl_inverse_upper_columns(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kl_inverse_upper(q[i], b[i]) for every element of two float arrays of
    one shape, q in [0, 1] and b >= 0, bit for bit, as one masked bisection.

    Each element starts from the bracket [q, 1], halves it at
    mid = 0.5 * (lo + hi) on the test of ``_kl_bernoulli_at_most``, stops
    once its own hi - lo <= 1e-9 and returns hi; b = 0 and q = 1 return q.
    Its cost is about 30 steps of whole-array passes whatever the size, so
    the element loop wins on short columns.
    """
    out = q.copy()
    todo = (b != 0.0) & (q != 1.0)
    p, budget = q[todo], b[todo]
    one_minus_p = 1.0 - p
    lo, hi = p, np.ones_like(p)
    live = hi - lo > 1e-9
    while live.any():
        mid = 0.5 * (lo + hi)
        lower = live & _kl_bernoulli_at_most(p, one_minus_p, mid, budget)
        lo = np.where(lower, mid, lo)
        hi = np.where(live ^ lower, mid, hi)
        live = hi - lo > 1e-9
    out[todo] = hi
    return out


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


#: The largest float whose exp is +0: np.exp underflows to 0 at and below it.
#: numpy's exp takes a slow path for each entry it underflows (about 20 ns,
#: against 1 ns for a normal result: 1.2 ms of the 1e5-entry row at the top
#: of an M = 1e5 task's lambda grid), so _exp never hands it one.
_EXP_ZERO = -745.1332191019412


def _exp(x, out=None, mask=None):
    """np.exp(x), bit for bit, with x as scratch.  Where some entry lies at or
    below _EXP_ZERO, those entries are raised to -0.0 for the exp and their
    results multiplied by 0 after it; a masked copy would cost as much as the
    slow path, so both steps are products with the kept mask.  out (float) and
    mask (bool), arrays of x's shape, take the result and the mask in place of
    new arrays."""
    keep = np.greater(x, _EXP_ZERO, out=mask)  # a NaN is not kept, and stays NaN
    if keep.all():
        return np.exp(x, out=out)
    np.maximum(x, _EXP_ZERO, out=x)  # so that no -inf meets the 0 below
    x *= keep
    out = np.exp(x, out=out)
    out *= keep
    return out


def _logsumexp(a, work=None, mask=None):
    """log(sum(exp(a))) over the last axis, shifted by each row's maximum.

    The entries equal to the maximum are counted apart from the rest, as in
    scipy.special.logsumexp (Blanchard, Higham & Higham 2021), so results
    match it to the bit; a non-finite result falls back to the direct sum.
    Leading axes broadcast: a 1-D vector gives a float, a (B, M) matrix the
    B row values, each the bits of the 1-D call on that row.  work (float)
    and mask (bool), arrays of a's shape, take the shifted exponent and the
    at-max mask in place of two new arrays.
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
        at_top = np.equal(a, top, out=None if mask is None else mask.T)
        count = at_top.sum(axis=0, dtype=float)
        # the maxima are in count, so they enter rest as exp(-inf) = 0
        shifted = np.subtract(a, top, out=None if work is None else work.T)
        np.copyto(shifted, -np.inf, where=at_top)
        rest = _exp(shifted, shifted, at_top).sum(axis=0)
        out = np.log1p(rest / count) + np.log(count) + top
        finite = np.isfinite(out)
        if not (finite if out.ndim == 0 else finite.all()):
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=0)))
    return float(out) if out.ndim == 0 else out


def _log_gibbs(logpi: np.ndarray, h, out=None, work=None, mask=None) -> np.ndarray:
    """Normalized log weights of the Gibbs measure pi_h: log pi + h shifted by
    its log-sum-exp, the package's one Gibbs normalization.

    h may be a (B, M) matrix of B exponents, giving one Gibbs measure per row.
    out (float, h's shape, h itself allowed) takes log pi + h in place of a new
    array, and work and mask go to _logsumexp."""
    logw = np.add(h, logpi, out=out)
    logw -= np.asarray(_logsumexp(logw, work, mask))[..., None]
    return logw


def _gibbs_weights(logpi: np.ndarray, h, out=None, work=None, mask=None) -> np.ndarray:
    """Checked weights of pi_h, renormalized to sum to 1, one row per row of h,
    in a new array; the buffers go to _log_gibbs."""
    w = _exp(_log_gibbs(logpi, h, out, work, mask), mask=mask)
    w /= w.sum(axis=-1, keepdims=True)
    _check_weights(w)
    return w


#: Entries per row block of every blocked pass (Gibbs families, weight rows,
#: stacked trials, the pi-dimension grid scan, EWA rounds): see _block_rows.
#: 2^16 float64 entries make each temporary 512 KB, which stays in a 2 MB
#: per-core L2.  Medians of 7 on a 2-CPU Xeon host, 2^15 / 2^16 / 2^18: the
#: M = 1e4 pi_dimension call 31.2 / 29.5 / 34.5 ms (one scalar call per grid
#: point: 160 ms); ewa_run at 5000 rounds x 1000 experts 47.4 / 45.8 / 48.5
#: ms; lambda_grid on an M = 1e5 task 23.6 / 23.3 / 28.5 ms and compare on it
#: 64.6 / 64.1 / 62.0 ms (one row per block at all three); a 50-trial
#: violation block at M = 1001, which 2^15 splits in two, 18.4 / 16.8 / 16.4
#: ms.
_FAMILY_BLOCK = 1 << 16


def _block_rows(m: int) -> int:
    """Rows of m entries per block: as many as _FAMILY_BLOCK holds, at least one."""
    return max(1, _FAMILY_BLOCK // max(1, m))


def _gibbs_family(logpi: np.ndarray, r: np.ndarray, lams, logq: np.ndarray):
    """The Gibbs measures pi_{-lam r}, one checked weight row per lam, in blocks.

    r is one risk vector, or a (T, M) matrix giving the measures of every
    (risk row, lam) pair, risk row by risk row.  Yields (w, E_w[r], KL(w || q)),
    q with log masses logq, for consecutive blocks of _block_rows(M) rows at
    most, which hold whole families of lams where one fits.  A (P, M) logq
    stacks P measures q: KL(w || q) then has one row per q.  Each row is
    _gibbs_weights at h = -lam r, with the bits of gibbs_posterior at its lam,
    and each E_w[r] the bits of the (lams x M) @ r product of its block.  A
    non-finite lam r raises ValueError, tested once on max |lam| * max |r|.

    The temporaries (log w, the shifted exponent, the at-max mask and the KL
    terms) live in one workspace, made per call and reused by every block, so
    a pass pays its page faults once.  Each yielded w, E_w[r] and KL is a new
    array that a caller may keep."""
    lams = np.asarray(lams, dtype=float)
    R = np.atleast_2d(r)
    if not math.isfinite(float(np.abs(lams).max()) * float(np.abs(R).max())):
        raise ValueError("h = -lambda r must be finite, with max |lambda| * max |r| finite")
    M = R.shape[1]
    rows = _block_rows(M)
    step = min(rows, lams.size)
    per = max(1, rows // lams.size)
    logw, work = np.empty((2, min(per, R.shape[0]) * step, M))
    mask = np.empty(logw.shape, dtype=bool)
    for t in range(0, R.shape[0], per):
        Rb = R[t:t + per]
        for i in range(0, lams.size, step):
            k = Rb.shape[0] * lams[i:i + step].size
            lw, wk, mk = logw[:k], work[:k], mask[:k]
            np.multiply(-lams[i:i + step, None], Rb[:, None, :], out=lw.reshape(Rb.shape[0], -1, M))
            w = _gibbs_weights(logpi, lw, lw, wk, mk)
            emp = np.matmul(w.reshape(Rb.shape[0], -1, M), Rb[:, :, None]).reshape(-1)
            kls = [_kl_log_prior(w, q, wk, mk) for q in np.atleast_2d(logq)]
            yield w, emp, kls[0] if np.ndim(logq) == 1 else np.array(kls)


def _row_blocks(w: np.ndarray, *xs):
    """Consecutive row blocks of the matrix w, each of _block_rows rows at most,
    with the matching rows of each matrix in xs; a vector in xs goes whole with
    every block."""
    step = _block_rows(w.shape[1])
    for i in range(0, w.shape[0], step):
        yield (w[i:i + step], *(x[i:i + step] if np.ndim(x) == 2 else x for x in xs))


def _row_dots(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The dot product of each row of w with x, or with the matching row of x,
    each with the bits of np.dot on that row (a gemv or einsum would differ)."""
    return np.matmul(w[:, None, :], x[..., None])[:, 0, 0]


def _kl_log_prior(r: np.ndarray, logp: np.ndarray, work=None, mask=None):
    """KL(rho || pi) = sum over r > 0 of r (log r - logp), from rho's weights r
    and pi's log masses logp; +inf where logp = -inf.  No ratio r/p can overflow.
    A 1-D r gives a float, a (B, M) matrix the B row KLs, each the bits of the
    1-D call on that row: zero weights enter the sum as 0 terms, not dropped.
    work (float) and mask (bool), arrays of r's shape, take the terms and the
    r > 0 mask in place of new arrays.  Where some weight is not positive, the
    log is taken at 1 there, so numpy's log never meets a 0 (its slow path: 8
    ns an entry, against 1 ns), and the term is 0 x (0 - logp).  That is
    already a zero wherever logp is finite; only a log mass that rounds above
    0 makes it -0, which cannot change a sum that also holds the +0 or
    nonzero term of a positive weight.  Only a logp of -inf makes it NaN, so
    only when some row's sum is NaN are the terms of zero weights set to 0
    (a masked copy, 6-8 ns an entry on a scattered mask) and summed again."""
    terms = np.empty(r.shape) if work is None else work
    off = np.logical_not(np.greater(r, 0, out=mask), out=mask)
    some_off = off.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.add(r, off, out=terms) if some_off else r, out=terms)
        terms -= logp
        terms *= r
    kl = terms.sum(axis=-1)
    if some_off and np.isnan(kl).any():
        np.copyto(terms, 0.0, where=off)
        kl = terms.sum(axis=-1)
    # clamp float noise on near-degenerate weights; the divergence is >= 0
    kl = np.maximum(kl, 0.0)
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
    full = mask.all()
    pm = p if full else p[mask]
    base = np.sum(pm)
    out = []
    for wb, in _row_blocks(w):
        sq = np.ascontiguousarray(wb if full else wb[:, mask]) ** 2 / pm
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
    return _kl_gaussian(rho.mean, rho.std, float(prior_std))


def _kl_gaussian(mean: np.ndarray, s: float, sigma: float) -> float:
    """kl_gaussian_diag's closed form from a float mean vector and the two
    scales, unchecked: the variational optimizer's per-step KL."""
    ratio = (s / sigma) ** 2
    return float(
        np.dot(mean, mean) / (2.0 * sigma**2)
        + 0.5 * mean.size * (ratio - math.log(ratio) - 1.0)
    )


def kl_uniform_ball(d: int, big_radius: float, small_radius: float) -> float:
    """KL between uniform laws on nested d-balls: d * log(B/s).

    The small ball of radius ``small_radius`` must sit inside the big one;
    the divergence is the log volume ratio.
    """
    d = _check_count(d, "d")
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
    return DiscreteDistribution(_gibbs_weights(_safe_log(pi.weights), h), _checked=True)


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
