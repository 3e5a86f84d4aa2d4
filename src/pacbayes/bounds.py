"""The empirical PAC-Bayes bound catalog.

Each ``bound_*`` function evaluates one theorem's right-hand side exactly as
displayed and returns a :class:`Certificate` carrying the value, the term
decomposition, and a vacuousness flag.  Complexity inputs are taken in the
log domain (log M, KL in nats) so that instances with astronomically many
hypotheses evaluate without overflow.

Conventions
-----------
* All logs are natural.
* kl-form bounds (Seeger, Tolstikhin-Seldin, Thiemann, Catoni-Phi) are
  stated for losses in [0, 1]: their ``bound_*`` functions refuse C > 1,
  and the catalog table evaluates them at risk/C and rescales the
  certificate by C.
* ``terms`` always sums exactly to ``value``; intermediate quantities that
  do not sum (budgets, Phi arguments) live in ``details``.
* Bounds linear in 1/lambda (catoni_linear, subgaussian and the single-draw
  certificate of ``posteriors``) share one formula, ``_linear``, which
  adds the lambda penalty and (complexity nats)/lambda to the empirical
  term; :func:`resolve_lambda` turns a lambda flag into a number.
* Array formulas.  Each catalog row has one private formula,
  ``formula(q, kl, lam, s, W)``, that maps a column q of E_rho[r] (on the
  row's scale) and a column of KL(rho || pi), one lambda, the task scalars s
  (n, eps, C, kappa) and, where the row needs them, the posteriors' weight
  rows W to (values, terms, details), one entry per posterior.  An (L, 1)
  column of lambdas in place of the one gives an (L, posteriors) table, row
  j with the bits of the call at lam[j].  W feeds
  chi^2 for chi_square, W @ truncated_risks(lambda) for truncated and the
  KL against pi_{-xi r} for localized_empirical, in row blocks of at most
  ``divergences._FAMILY_BLOCK`` entries.  A public ``bound_*`` function is
  the one-row case: it checks its input and builds its Certificate from
  the formula at floats.  ``CatalogEntry.values`` makes certify's checks
  once per column and returns the values of certify, bit for bit, one per
  posterior.  expm1 stays one scalar call per element so its bits do not
  move, and the kl inverse is one ``kl_inverse_upper`` call per column,
  which gives each element the bits of its one-posterior call.
* Every bound is a theorem for n i.i.d. losses in [0, C], a confidence
  level eps, a fixed lambda > 0 and KL >= 0.  Three checks state these
  hypotheses once each, NaN failing every test: ``_check_inputs`` (n an
  integer >= 1, eps in (0, 1), C > 0, every risk in [0, C]), ``_check_kl``
  (+inf allowed) and ``_check_lambda`` (lambda in (0, upper); +inf only
  where every KL given is +inf).  :class:`BoundInput` runs the first two,
  and every entry point taking any of these without one runs the checks it
  needs; bad input raises ValueError.  chi_square's variance bound has one
  check too, ``_check_kappa`` (kappa > 0).
* log(1/eps) is ``_log_inv(eps)``, finite at a subnormal eps where 1/eps
  overflows, and log(a/eps) is ``_log_inv(eps, a)``, finite where a/eps
  overflows.
* A square that overflows (C^2, lambda^2) gives +inf through ``_square``,
  where a float power would raise OverflowError, and so does an array
  product that overflows on the lambda grid: the certificate is then +inf,
  vacuous, which errs upward.

:data:`BOUND_TABLE` maps every catalog id to its required inputs, loss
scale, lambda policy, one-posterior evaluator and array formula; the CLI's
certify and compare and the violation harness all dispatch through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .divergences import (
    DiscreteDistribution,
    _bisect_upper,
    _chi2_rows,
    _gibbs_weights,
    _kl_log_prior,
    _row_blocks,
    _row_dots,
    _safe_log,
    chi2_discrete,
    gibbs_reweight,
    kl_discrete,
    kl_inverse_upper,
)

__all__ = [
    "BoundInput",
    "Certificate",
    "bernstein_g",
    "bound_union_finite",
    "bound_catoni_linear",
    "select_lambda_closed_form",
    "resolve_lambda",
    "bound_lambda_grid",
    "lambda_grid_arithmetic",
    "lambda_grid_geometric",
    "bound_mcallester_maurer",
    "bound_seeger_maurer",
    "bound_tolstikhin_seldin",
    "bound_thiemann",
    "bound_catoni_phi",
    "bound_germain_generic",
    "bound_subgaussian",
    "bound_chi_square",
    "bound_truncated",
    "bound_localized_empirical",
    "BoundData",
    "CatalogEntry",
    "BOUND_TABLE",
    "BOUND_IDS",
]


def _check_inputs(n, eps, C=1.0, lo=0.0, hi=None, name="emp_risk") -> None:
    """The one check of the hypotheses every bound shares, NaN failing each test.

    n must be an integer >= 1, eps lie in (0, 1) (None where no confidence
    level enters), C be positive and the risks lie in [0, C]: lo is one risk,
    or with hi the smallest and largest of many.
    """
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if eps is not None and not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if hi is None:
        hi = lo
    if not (0 <= lo <= hi <= C > 0):
        if not (C > 0):
            raise ValueError(f"C must be positive, got {C!r}")
        got = lo if hi is lo else f"values in [{float(lo)!r}, {float(hi)!r}]"
        raise ValueError(f"{name} must lie in [0, C] = [0, {C!r}], got {got}")


def _check_kl(kl) -> None:
    """The one KL check: KL(rho || pi) in nats is >= 0, +inf allowed and NaN
    failing; kl is one number (tested without numpy) or an array."""
    if not ((kl >= 0).all() if isinstance(kl, np.ndarray) else kl >= 0):
        raise ValueError(f"kl must be nonnegative, got {float(np.min(kl))!r}")


def _check_kappa(kappa) -> None:
    """The one kappa check: the variance bound kappa is positive, NaN failing."""
    if not (kappa > 0):
        raise ValueError(f"kappa must be positive, got {kappa!r}")


def _check_lambda(lam, upper=math.inf, kl=0.0) -> None:
    """The one lambda check: lam in (0, upper), NaN failing.  lam = +inf, the
    closed-form lambda of an infinite KL, passes only when upper and every KL
    in kl are +inf; there each row returns its vacuous certificate."""
    if not (0 < lam < upper or (lam == upper == math.inf and np.isinf(kl).all())):
        raise ValueError(f"lambda must lie in (0, {upper:g}), got {lam!r}")


@dataclass(frozen=True, slots=True)
class BoundInput:
    """Sufficient statistics consumed by the bound catalog.

    emp_risk   E_rho[r] in [0, C]
    kl         KL(rho || pi) in nats, >= 0 (may be +inf)
    n          sample size, an integer >= 1
    eps        confidence parameter in (0, 1)
    C          loss range upper bound > 0
    chi2       optional chi-square divergence, >= 0
    kappa      optional variance bound > 0
    """

    emp_risk: float
    kl: float
    n: int
    eps: float
    C: float = 1.0
    chi2: Optional[float] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        _check_inputs(self.n, self.eps, self.C, self.emp_risk)
        _check_kl(self.kl)
        if self.chi2 is not None and not (self.chi2 >= 0):
            raise ValueError("chi2 must be nonnegative")
        if self.kappa is not None:
            _check_kappa(self.kappa)


@dataclass(frozen=True)
class Certificate:
    """A numeric risk certificate with its decomposition.

    ``terms`` is an additive decomposition: the values sum to ``value``
    exactly (within 1e-12).  ``details`` carries non-additive intermediates
    such as kl-inversion budgets.  ``vacuous`` flags value >= C for losses
    bounded by C.
    """

    bound_id: str
    value: float
    lam: Optional[float] = None
    terms: dict = field(default_factory=dict)
    vacuous: bool = False
    details: dict = field(default_factory=dict)


def _certificate(bound_id, C, lam, value, terms, details=None) -> Certificate:
    return Certificate(
        bound_id=bound_id,
        value=float(value),
        lam=None if lam is None else float(lam),
        terms={k: float(v) for k, v in terms.items()},
        vacuous=bool(value >= C),
        details=dict(details or {}),
    )


def _one(bound_id, formula, inp, lam=None) -> Certificate:
    """The certificate of one posterior: formula at the one row (inp.emp_risk, inp.kl)."""
    return _certificate(bound_id, inp.C, lam, *formula(inp.emp_risk, inp.kl, lam, inp))


def _vacuous_at_infinite_kl(bound_id, emp_risk, C, lam=None, details=None) -> Certificate:
    """The certificate at KL = inf, +inf for every lambda.

    Bounds whose closed-form lambda grows with KL would otherwise divide
    infinity by infinity; this is the certificate mcallester gives there.
    """
    return _certificate(bound_id, C, lam, math.inf,
                        {"empirical": emp_risk, "complexity": math.inf, "slack": 0.0}, details)


def _vacuous_rows_at_infinite_kl(kl, formula, *args):
    """formula(*args) on columns, with the value of every row at KL = inf set
    to the +inf certificate of _vacuous_at_infinite_kl, as the row's one-row
    bound_* function gives there; the formula's own inf/inf is not reported."""
    with np.errstate(invalid="ignore"):
        value, terms, details = formula(*args)
    return np.where(np.isinf(kl), math.inf, value), terms, details


def _square(x: float) -> float:
    """x**2, or +inf where it overflows (a float power raises OverflowError)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _log_inv(x: float, num: float = 1.0) -> float:
    """log(num/x): the bits of math.log(num / x) wherever num/x is finite, and
    log(num) - log(x) where it overflows (a subnormal x such as eps = 5e-324,
    or num = 2 sqrt(n) with n = 2^53 and eps = 1e-300)."""
    ratio = num / float(x)
    return math.log(ratio) if ratio < math.inf else math.log(num) - math.log(x)


def bernstein_g(x: float) -> float:
    """Bernstein's MGF function g(x) = (e^x - 1 - x) / x^2, with g(0) = 1.

    The g(0) = 1 convention matches how the bounds below are stated, even
    though the continuous limit is 1/2; in practice the function is only
    ever called with x > 0.  A series expansion avoids cancellation for
    small |x|.  Beyond the range of expm1 (x > 709.78) g is +inf.
    """
    if x == 0.0:
        return 1.0
    if abs(x) < 1e-4:
        return 0.5 + x / 6.0 + x * x / 24.0
    try:
        return (math.expm1(x) - x) / (x * x)
    except OverflowError:
        return math.inf


def _union_finite(r_min, log_M, lam, s, W=None):
    slack = s.C * math.sqrt((log_M + _log_inv(s.eps)) / (2.0 * s.n))
    return r_min + slack, {"empirical": r_min, "complexity": slack, "slack": 0.0}, {"log_M": log_M}


def bound_union_finite(
    r_min: float,
    n: int,
    eps: float,
    C: float = 1.0,
    M: Optional[float] = None,
    log_M: Optional[float] = None,
) -> Certificate:
    """Finite-class Hoeffding union bound: r_min + C sqrt(log(M/eps)/(2n)).

    Exactly one of ``M`` and ``log_M`` must be given; supplying log M keeps
    instances like M = 2^1000100 finite in float arithmetic.  log M is the
    KL of a Dirac under the uniform prior, and is checked as one.
    """
    if (M is None) == (log_M is None):
        raise ValueError("supply exactly one of M and log_M")
    if log_M is None:
        if not (M >= 1):
            raise ValueError(f"M must be >= 1, got {M!r}")
        log_M = math.log(M)
    return _one("union_finite", _union_finite, BoundInput(r_min, log_M, n, eps, C))


def _linear(emp, nats, lam, slack):
    """emp + slack + nats/lam, the value of every bound linear in 1/lam.

    nats is the complexity numerator (a KL or log density ratio, plus
    log(1/eps)) and slack the penalty growing in lam.
    """
    complexity = nats / lam
    return emp + slack + complexity, {"empirical": emp, "complexity": complexity, "slack": slack}, {}


def _catoni_linear(q, kl, lam, s, W=None):
    return _linear(q, kl + _log_inv(s.eps), lam, lam * _square(s.C) / (8.0 * s.n))


def _subgaussian(q, kl, lam, s, W=None):
    return _linear(q, kl + _log_inv(s.eps), lam, lam * _square(s.C) / s.n)


def _lambda_certificate(bound_id, formula, inp: "BoundInput", lam) -> Certificate:
    """formula's certificate at inp and lam; an infinite KL gives the vacuous one."""
    _check_lambda(lam, kl=inp.kl)
    if math.isinf(inp.kl):
        return _vacuous_at_infinite_kl(bound_id, inp.emp_risk, inp.C, lam)
    return _one(bound_id, formula, inp, lam)


def bound_catoni_linear(inp: BoundInput, lam: float) -> Certificate:
    """Linear-in-lambda bound: emp + lam C^2/(8n) + (KL + log(1/eps))/lam."""
    return _lambda_certificate("catoni_linear", _catoni_linear, inp, lam)


def select_lambda_closed_form(kl: float, n: int, eps: float, C: float = 1.0) -> float:
    """Exact minimizer lambda* = sqrt(8 n (KL + log(1/eps))) / C.

    Minimizes lam C^2/(8n) + (KL + log(1/eps))/lam; the two terms are equal
    at the optimum (AM-GM stationarity).
    """
    numer = kl + _log_inv(eps)
    if not (numer > 0):
        raise ValueError("kl + log(1/eps) must be positive")
    return math.sqrt(8.0 * n * numer) / C


def resolve_lambda(spec, kl: float, n: int, eps: float, C: float = 1.0) -> float:
    """The lambda a --lambda value names: None and "closed_form" pick
    select_lambda_closed_form(kl, n, eps, C); any other value must pass
    _check_lambda at kl."""
    if spec is None or spec == "closed_form":
        return select_lambda_closed_form(kl, n, eps, C)
    lam = float(spec)
    _check_lambda(lam, kl=kl)
    return lam


def lambda_grid_arithmetic(n: int) -> np.ndarray:
    """The arithmetic grid {1, 2, ..., n}."""
    _check_inputs(n, None)
    return np.arange(1, n + 1, dtype=float)


def lambda_grid_geometric(n: int) -> np.ndarray:
    """The geometric grid {e^k : k in N} intersected with [1, n]."""
    _check_inputs(n, None)
    kmax = int(math.floor(math.log(n))) if n > 1 else 0
    return np.exp(np.arange(0, kmax + 1, dtype=float))


def _lambda_grid_values(grid: np.ndarray, emps: np.ndarray, kls: np.ndarray, n, eps, C=1.0,
                        card=None):
    """The lambda-grid objective at every entry, with the checks BoundInput makes.

    emps and kls hold E_rho[r] and KL(rho || pi) of the posterior at each
    lambda in grid, in their last axis, for one sample or one per row; each
    value is catoni_linear's formula at KL + log(card), with its bits.  card
    is grid.size unless grid is a slice of a larger grid of card entries.  A
    grid is data-free, so it takes no lambda = +inf.
    """
    _check_inputs(n, eps, C, emps.min(), emps.max())
    for lam in (grid.min(), grid.max()):
        _check_lambda(float(lam))
    _check_kl(kls)
    with np.errstate(over="ignore"):  # lambda C^2 past the float range is +inf
        log_card = math.log(grid.size if card is None else card)
        return _catoni_linear(emps, kls + log_card, grid, BoundData(None, n, eps, C))[0]


def bound_lambda_grid(
    entries: Sequence[tuple], n: int, eps: float, C: float = 1.0
) -> Certificate:
    """Union bound over a finite lambda grid.

    ``entries`` holds one (lambda, emp_risk, kl) triple per grid point; the
    posterior (and hence emp_risk and kl) may differ across lambdas.  The
    certificate is the grid minimum of the linear bound with KL + log(card),

        emp_risk(lam) + lam C^2/(8n) + (kl(lam) + log(card/eps)) / lam,

    the earliest entry winning a tie.
    """
    if len(entries) == 0:
        raise ValueError("grid must be nonempty")
    grid, emps, kls = (np.array(column, dtype=float) for column in zip(*entries))
    k = int(np.argmin(_lambda_grid_values(grid, emps, kls, n, eps, C)))
    log_card = math.log(len(entries))
    best = bound_catoni_linear(BoundInput(float(emps[k]), float(kls[k]) + log_card, n, eps, C),
                               float(grid[k]))
    return replace(best, bound_id="lambda_grid",
                   details={"grid_size": len(entries), "log_card": log_card})


def _mcallester(q, kl, lam, s, W=None):
    rad = s.C * np.sqrt((kl + _log_inv(s.eps) + 2.5 * math.log(s.n) + 8.0) / (2.0 * s.n - 1.0))
    return q + rad, {"empirical": q, "complexity": rad, "slack": 0.0}, {}


def bound_mcallester_maurer(inp: BoundInput) -> Certificate:
    """McAllester-Maurer bound: 5/2 log(n) + 8 complexity numerator, radius scaled by C."""
    return _one("mcallester", _mcallester, inp)


def _seeger_nats(kl, s):
    """KL + log(2 sqrt(n)/eps), the numerator of the kl-form budgets."""
    return kl + _log_inv(s.eps, 2.0 * math.sqrt(s.n))


def _seeger(q, kl, lam, s, W=None):
    budget = _seeger_nats(kl, s) / s.n
    value = kl_inverse_upper(q, budget)
    return value, {"empirical": q, "complexity": value - q, "slack": 0.0}, {"budget": budget}


def bound_seeger_maurer(inp: BoundInput) -> Certificate:
    """Seeger-Maurer bound: invert the binary kl at budget (KL + log(2 sqrt(n)/eps))/n.

    Stated for losses in [0, 1], so C <= 1 is enforced; the catalog's seeger
    row evaluates a [0, C] risk at risk/C and rescales by C.
    """
    _check_inputs(inp.n, inp.eps, 1.0, inp.emp_risk, inp.C, name="emp_risk and C")
    return _one("seeger", _seeger, inp)


def _tolstikhin_seldin(q, kl, lam, s, W=None):
    half_budget = _seeger_nats(kl, s) / (2.0 * s.n)
    # an infinite KL makes every term +inf, the sqrt one too at q = 0 (0 * inf)
    with np.errstate(invalid="ignore"):
        sqrt_term = np.where(np.isinf(half_budget), math.inf, np.sqrt(2.0 * q * half_budget))
    lin_term = 2.0 * half_budget
    return (q + sqrt_term + lin_term, {"empirical": q, "complexity": sqrt_term, "slack": lin_term},
            {"half_budget": half_budget})


def bound_tolstikhin_seldin(inp: BoundInput) -> Certificate:
    """Tolstikhin-Seldin relaxation kl^{-1}(q|b) <= q + sqrt(2qb) + 2b.

    The budget is (KL + log(2 sqrt(n)/eps)) / (2n), exactly as displayed;
    at q = 0 the sqrt term vanishes and the bound is in 1/n.  C <= 1 is
    enforced; the catalog row rescales a [0, C] risk.
    """
    _check_inputs(inp.n, inp.eps, 1.0, inp.emp_risk, inp.C, name="emp_risk and C")
    return _one("tolstikhin_seldin", _tolstikhin_seldin, inp)


#: Thiemann's bound holds for every fixed lambda in (0, THIEMANN_LAMBDA_UPPER).
THIEMANN_LAMBDA_UPPER = 2.0


def _thiemann(q, kl, lam, s, W=None):
    shrink = 1.0 - lam / 2.0
    emp_term = q / shrink
    complexity = _seeger_nats(kl, s) / (s.n * lam * shrink)
    return emp_term + complexity, {"empirical": emp_term, "complexity": complexity, "slack": 0.0}, {}


def bound_thiemann(inp: BoundInput, lam: float) -> Certificate:
    """Thiemann et al. bound, valid for any fixed lambda in (0, 2).  C <= 1 is
    enforced; the catalog row rescales a [0, C] risk."""
    _check_lambda(lam, THIEMANN_LAMBDA_UPPER)
    _check_inputs(inp.n, inp.eps, 1.0, inp.emp_risk, inp.C, name="emp_risk and C")
    return _one("thiemann", _thiemann, inp, lam)


def _phi_inverse(a: float, q: float) -> float:
    """Phi_a^{-1}(q) = (1 - e^{-a q}) / (1 - e^{-a}), continuous at a -> 0."""
    if a == 0.0:
        return q
    return -math.expm1(-a * q) / -math.expm1(-a)


def _catoni_phi(q, kl, lam, s, W=None):
    a = lam / s.n
    arg = q + (kl + _log_inv(s.eps)) / lam
    value = np.vectorize(_phi_inverse, otypes=[float])(a, arg)
    return (value, {"empirical": q, "complexity": value - q, "slack": 0.0},
            {"a": a, "phi_arg": arg})


def bound_catoni_phi(inp: BoundInput, lam: float) -> Certificate:
    """Catoni's Phi-form bound: Phi_{lam/n}^{-1}(emp + (KL + log(1/eps))/lam).

    The Phi^{-1} argument may exceed 1; the displayed formula then saturates
    on its own.  C <= 1 is enforced; the catalog row rescales a [0, C] risk.
    """
    _check_inputs(inp.n, inp.eps, 1.0, inp.emp_risk, inp.C, name="emp_risk and C")
    return _lambda_certificate("catoni_phi", _catoni_phi, inp, lam)


def bound_germain_generic(
    p: float,
    kl: float,
    n: int,
    eps: float,
    log_moment: float,
    D: Callable[[float, float], float],
    tol: float = 1e-12,
) -> Certificate:
    """Generic convex-function bound: invert D(p, .) at the moment budget.

    Returns sup{q in [p, 1] : D(p, q) <= (KL + log_moment + log(1/eps))/n},
    found by bisection and rounded up by at most tol.  ``log_moment`` is the
    caller-supplied value (or an upper bound) of log E_S E_pi e^{n D(r, R)};
    p, kl, n and eps are checked as a BoundInput with C = 1.
    D(p, .) must be nondecreasing on [p, 1]; a starting point already over
    budget, or a NaN budget, means the bracketing assumption fails and is
    reported as an error.  It takes a function handle, so it is Python-only
    and has no catalog row.
    """
    inp = BoundInput(p, kl, n, eps)
    budget = (kl + log_moment + _log_inv(inp.eps)) / n
    if not (D(p, p) <= budget):
        raise ValueError("bracketing failure: D(p, p) is not within the budget (a NaN input, "
                         "or D is not a nonnegative nondecreasing divergence on [p, 1])")
    if D(p, 1.0) <= budget:
        value = 1.0
    else:
        value = _bisect_upper(lambda q: D(p, q) <= budget, p, 1.0, tol)
    return _certificate("germain_generic", 1.0, None, value,
                        {"empirical": p, "complexity": value - p, "slack": 0.0}, {"budget": budget})


def bound_subgaussian(inp: BoundInput, lam: float) -> Certificate:
    """Sub-Gaussian-loss bound: emp + lam C^2/n + (KL + log(1/eps))/lam.

    Here ``inp.C`` plays the role of the sub-Gaussian constant; the penalty
    is 8x the bounded-loss lam C^2/(8n) term.
    """
    return _lambda_certificate("subgaussian", _subgaussian, inp, lam)


def _chi_square(q, chi2, lam, s, W=None):
    slack = np.sqrt(s.kappa * (1.0 + chi2) / (s.n * s.eps))
    return q + slack, {"empirical": q, "complexity": slack, "slack": 0.0}, {}


def bound_chi_square(inp: BoundInput) -> Certificate:
    """Heavy-tail bound emp + sqrt(kappa (1 + chi^2) / (n eps)).

    Only needs a variance bound kappa; note the polynomial (not log)
    dependence on 1/eps.
    """
    if inp.kappa is None or inp.chi2 is None:
        raise ValueError("chi_square bound needs both kappa and chi2")
    return _certificate("chi_square", inp.C, None, *_chi_square(inp.emp_risk, inp.chi2, None, inp))


def psi_transform(alpha: float, u: float) -> float:
    """Psi_alpha(u) = -log(1 - u alpha)/alpha, the truncation transform."""
    if alpha == 0.0:
        return u
    return -math.log1p(-u * alpha) / alpha


def psi_inverse(alpha: float, v: float) -> float:
    """Psi_alpha^{-1}(v) = (1 - e^{-alpha v})/alpha, continuous at alpha -> 0."""
    if alpha == 0.0:
        return v
    return -math.expm1(-alpha * v) / alpha


def truncated_empirical_risk(losses: np.ndarray, n: int, lam: float):
    """Average of Psi_{lam/n}(min(loss, n/lam)) over the loss sample.

    A 1-D sample gives a float; a 2-D array gives one average per row.
    """
    alpha = lam / n
    clipped = np.minimum(np.asarray(losses, dtype=float), n / lam)
    with np.errstate(divide="ignore"):
        vals = -np.log1p(-clipped * alpha) / alpha
    mean = np.mean(vals, axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def bound_truncated(
    inp: BoundInput, lam: float, trunc_emp_risk: float, delta_tail: float
) -> Certificate:
    """Truncation bound for heavy-tailed losses.

    value = Psi^{-1}_{lam/n}(trunc_emp_risk + (KL + log(1/eps))/lam) + delta_tail.
    The caller computes trunc_emp_risk via :func:`truncated_empirical_risk`
    and the tail term E_rho[Delta_{n,lam}]; for a bounded loss with
    n/lam >= C both truncation and the tail term are inactive.  Its value
    at an infinite KL is n/lam, so it takes no lambda = +inf.
    """
    _check_lambda(lam)
    return _certificate("truncated", inp.C, lam, *_truncated(trunc_emp_risk, inp.kl, lam, inp,
                                                             delta_tail))


def _truncated(trunc, kl, lam, s, delta_tail):
    if not (np.all(trunc >= 0) and delta_tail >= 0):
        raise ValueError("trunc_emp_risk and delta_tail must be nonnegative")
    alpha = lam / s.n
    arg = trunc + (kl + _log_inv(s.eps)) / lam
    main = np.vectorize(psi_inverse, otypes=[float])(alpha, arg)
    return (main + delta_tail, {"empirical": trunc, "complexity": main - trunc, "slack": delta_tail},
            {"alpha": alpha, "psi_arg": arg})


def _localized_checks(n, eps, xi) -> None:
    if not (0 <= xi < 1):
        raise ValueError("xi must lie in [0, 1)")
    _check_inputs(n, eps)


def _localized_denominator(lam, n, xi):
    denom = (1.0 - xi) * lam + (1.0 + xi) * bernstein_g(lam / n) * _square(lam) / n
    if math.isinf(denom) and lam < math.inf:
        raise ValueError(f"lambda = {lam!r} overflows the localized bound's denominator")
    return denom


def _localized(emp, kl_local, n, eps, lam, xi):
    # bernstein_g and _square take one lambda, so a column of them is a loop
    denom = (np.array([[_localized_denominator(one, n, xi)] for one in np.ravel(lam).tolist()])
             if np.ndim(lam) else _localized_denominator(lam, n, xi))
    conf = (1.0 + xi) * _log_inv(eps, 2.0)
    terms = {"empirical": (1.0 - xi) * emp / denom, "complexity": kl_local / denom,
             "slack": conf / denom}
    return (((1.0 - xi) * emp + kl_local + conf) / denom, terms,
            {"xi": xi, "kl_localized": kl_local, "denominator": denom})


def bound_localized_empirical(
    emp_risk_vector,
    rho: DiscreteDistribution,
    pi: DiscreteDistribution,
    n: int,
    eps: float,
    lam: float,
    xi: float,
) -> Certificate:
    """Localized empirical bound with the data-dependent prior pi_{-xi r}.

    The prior is reweighted by the empirical risks, pi_{-xi r} proportional
    to pi(theta) e^{-xi r(theta)}, and the certificate is

        [(1-xi) E_rho[r] + KL(rho || pi_{-xi r}) + (1+xi) log(2/eps)]
        / [(1-xi) lam + (1+xi) g(lam/n) lam^2 / n]

    with g the Bernstein function.  The displayed denominator grows
    superlinearly in lambda, so the bound is only trustworthy on the lambda
    range validated by the violation harness (see oracle_lab).
    """
    _localized_checks(n, eps, xi)
    r = np.asarray(emp_risk_vector, dtype=float)
    if r.shape != pi.weights.shape:
        raise ValueError("emp_risk_vector must match the prior support")
    local_prior = gibbs_reweight(pi, -xi * r)
    kl_local = kl_discrete(rho, local_prior)
    _check_lambda(lam, kl=kl_local)
    emp = float(np.dot(rho.weights, r))
    if math.isinf(kl_local):
        return _vacuous_at_infinite_kl("localized_empirical", emp, 1.0, lam,
                                       details={"xi": xi, "kl_localized": kl_local})
    return _certificate("localized_empirical", 1.0, lam, *_localized(emp, kl_local, n, eps, lam, xi))


def _localized_columns(q, kl, lam, d, W):
    """The localized formula at every row of W, with E_rho[r] and KL(rho || pi_{-xi r})
    read off W in row blocks; d.emp_risk is one risk vector or one per row of W,
    and d keeps log pi_{-xi r} for every call that shares it."""
    _localized_checks(d.n, d.eps, d.xi)
    r = np.asarray(d.emp_risk, dtype=float)
    if r.shape[-1] != W.shape[-1] or not np.isfinite(r).all():
        raise ValueError("emp_risk must be finite and match the prior support")
    emp, kl_local = (np.concatenate(c) for c in zip(*(
        (_row_dots(wb, rb), _kl_log_prior(wb, lb))
        for wb, rb, lb in _row_blocks(W, r, d.localized_log_prior()))))
    for one in np.ravel(lam).tolist():
        _check_lambda(one, kl=kl_local)
    return _vacuous_rows_at_infinite_kl(kl_local, _localized, emp, kl_local, d.n, d.eps, lam, d.xi)


# ---------------------------------------------------------------------------
# The catalog table
# ---------------------------------------------------------------------------
# Evaluators look the bound_* functions up as module globals at call time, so
# a replaced module attribute (as a tracer installs) reaches every caller.

#: lambda range of the localized empirical bound validated by the violation
#: harness on the desk-scale reference tasks (see tests); compare only
#: exposes the bound inside this range, at this localization strength.
LOCALIZED_LAMBDA_RANGE = (1.0, 15.0)
LOCALIZED_XI_DEFAULT = 0.5


@dataclass(eq=False)
class BoundData:
    """The task-level inputs of a catalog bound, named as in a task file.

    ``emp_risk`` is the per-hypothesis risk vector (None when a task only
    gives log_M); ``xi`` is the localization strength of localized_empirical.
    """

    emp_risk: Optional[np.ndarray]
    n: int
    eps: float
    C: float = 1.0
    prior: Optional[DiscreteDistribution] = None
    kappa: Optional[float] = None
    losses: Optional[np.ndarray] = None
    log_M: Optional[float] = None
    xi: float = 0.0
    _truncated: dict = field(default_factory=dict, init=False, repr=False)
    _local_log_prior: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def truncated_risks(self, lam: float) -> np.ndarray:
        """Per-hypothesis truncated empirical risks at lam, computed once per lam."""
        if lam not in self._truncated:
            self._truncated[lam] = truncated_empirical_risk(
                np.ascontiguousarray(self.losses.T), self.n, lam)
        return self._truncated[lam]

    def localized_log_prior(self) -> np.ndarray:
        """log pi_{-xi r}, one row per row of emp_risk, computed once."""
        if self._local_log_prior is None:
            self._local_log_prior = _safe_log(_gibbs_weights(
                _safe_log(self.prior.weights), -self.xi * np.asarray(self.emp_risk, dtype=float)))
        return self._local_log_prior


@dataclass(frozen=True)
class CatalogEntry:
    """One row of the catalog table.

    requires     BoundData fields the bound cannot do without ("a or b" if
                 either will do), and "posterior" for a bound evaluated per
                 posterior rho from E_rho[r] and KL(rho || pi)
    scale        "range": losses in [0, C], evaluated as given; "kl": stated
                 for [0, 1], evaluated at risk/C and rescaled by C; "unit":
                 stated for [0, 1], evaluated as given; "moment": no loss
                 range, only kappa (vacuous is judged against C)
    evaluate     evaluate(inp, data, rho, lam), inp the posterior's
                 BoundInput on that scale (None without one, or for "unit")
    columns      columns(q, kl, lam, data, W): the row's formula, the one its
                 bound_* function evaluates at one row, on columns q (E_rho[r]
                 on the row's scale) and kl with one entry per weight row of W,
                 at one lam or an (L, 1) column of them; returns (values,
                 terms, details) (None for lambda_grid)
    lam_kind     "none"; "free" (any lambda in range, callers without one
                 use the closed-form pick); "fixed" (lam_default unless one
                 is given); "grid" (searches lambda_grid_geometric(n) itself
                 and pays log(card) in its certificate)
    lam_upper    lambdas lie in (0, lam_upper); tail_free: also n/lam >= C
    search       search(n, m, eps, C) lists the lambdas compare tries, paying
                 log(card) by splitting eps; [] keeps the bound out
    """

    bound_id: str
    requires: tuple
    scale: str
    evaluate: Callable
    columns: Optional[Callable] = None
    lam_kind: str = "none"
    lam_default: Optional[float] = None
    lam_upper: float = math.inf
    tail_free: bool = False
    search: Callable = lambda n, m, eps, C: [None]

    def missing(self, data: BoundData, rho=None) -> list:
        """The required inputs that data and rho (a posterior or weight rows) do not provide."""
        def given(name):
            return (rho if name == "posterior" else getattr(data, name)) is not None
        return [r for r in self.requires if not any(map(given, r.split(" or ")))]

    def _checked_lambda(self, data: BoundData, rho, lam, kl):
        """The lambda the bound runs at (one, or a column of them), after the
        input and lambda checks certify and values share, kl the row's KL (or
        column of them); None without a lambda policy."""
        missing = self.missing(data, rho)
        if missing:
            raise ValueError(f"{self.bound_id} needs {' and '.join(missing)}")
        if self.lam_kind in ("none", "grid"):
            return None
        lam = self.lam_default if lam is None else lam
        if lam is None:
            raise ValueError(f"{self.bound_id} needs a lambda")
        for one in np.ravel(lam).tolist():
            _check_lambda(one, self.lam_upper, 0.0 if kl is None else kl)
            if self.tail_free and data.n / one < data.C:
                raise ValueError("n/lambda < C needs the truncation tail term; supply a "
                                 "lambda with n/lambda >= C so the tail vanishes")
        return lam

    def check_search(self, posterior_rule="gibbs", lam=None) -> None:
        """Refuse what a grid row, searching Gibbs posteriors over its own lambdas, would ignore."""
        if self.lam_kind == "grid" and posterior_rule != "gibbs":
            raise ValueError(f"{self.bound_id} searches Gibbs posteriors only; posterior_rule must "
                             f"be 'gibbs', got {posterior_rule!r}")
        if self.lam_kind == "grid" and lam not in (None, "closed_form"):
            raise ValueError(f"{self.bound_id} searches its own lambda grid; lam must be None or "
                             f"'closed_form', got {lam!r}")

    def run_lambda(self, lam, posterior_lam):
        """A free row runs at its posterior's lambda, any other at the number lam or its default."""
        return posterior_lam if self.lam_kind == "free" else (
            None if lam in (None, "closed_form") else float(lam))

    def _scale(self, data: BoundData, emp):
        """(risk, C) on the row's scale, or None where the row takes no BoundInput."""
        if "posterior" not in self.requires or self.scale == "unit":
            return None
        scale_C = {"range": data.C, "kl": 1.0, "moment": math.inf}[self.scale]
        return (emp / data.C if self.scale == "kl" else emp), scale_C

    def certify(self, data: BoundData, rho=None, emp=None, kl=None, lam=None) -> Certificate:
        """The certificate for posterior rho, whose E_rho[r] and KL are emp and kl.

        lam is ignored without a lambda policy; None selects lam_default."""
        lam = self._checked_lambda(data, rho, lam, kl)
        scaled = self._scale(data, emp)
        inp = None if scaled is None else BoundInput(scaled[0], kl, data.n, data.eps, scaled[1])
        cert = self.evaluate(inp, data, rho, lam)
        if self.scale == "kl" and data.C != 1.0:
            return replace(cert, value=cert.value * data.C,
                           terms={k: v * data.C for k, v in cert.terms.items()},
                           vacuous=cert.value * data.C >= data.C,
                           details={**cert.details, "rescaled_by": data.C})
        if self.scale == "moment":
            return replace(cert, vacuous=bool(cert.value >= data.C))
        return cert

    def values(self, data: BoundData, W=None, emp=None, kl=None, lam=None) -> np.ndarray:
        """certify(data, rho_i, emp[i], kl[i], lam).value for every posterior
        rho_i, row i of the weight matrix W, in one pass.

        lam may also be a 1-D column of lambdas: the result then has one row
        per lambda, row j the values at lam[j], so one call scores the
        posteriors at a row's whole search list.  The checks certify makes
        per posterior are made once for the whole column, and each value has
        the bits of its certify call.  Calls that share data share its
        per-lambda truncated risks and its localized prior.  A row with no
        posterior (union_finite) gives one value per row of data.emp_risk; a
        row without a lambda policy ignores lam.
        """
        lam = self._checked_lambda(data, W, lam, kl)
        if np.ndim(lam):
            lam = np.asarray(lam, dtype=float)[:, None]
        q, scaled = emp, self._scale(data, np.asarray(emp, dtype=float))
        if scaled is not None:
            (q, scale_C), kl = scaled, np.asarray(kl, dtype=float)
            _check_inputs(data.n, data.eps, scale_C, q.min(), q.max())
            _check_kl(kl)
        with np.errstate(over="ignore"):  # lambda C^2 past the float range is +inf
            value = np.asarray(self.columns(q, kl, lam, data, W)[0], dtype=float)
        return value * data.C if self.scale == "kl" else value


def _union_inputs(d: BoundData):
    """(r_min, log M) of a task: the smallest risk, one per row of a risk matrix."""
    r_min = 0.0 if d.emp_risk is None else d.emp_risk.min(axis=-1)
    return r_min, math.log(d.emp_risk.shape[-1]) if d.log_M is None else d.log_M


def _union(inp, d, rho, lam):
    r_min, log_M = _union_inputs(d)
    return bound_union_finite(float(r_min), d.n, d.eps, d.C, log_M=log_M)


def _union_columns(q, kl, lam, d, W):
    r_min, log_M = _union_inputs(d)
    _check_inputs(d.n, d.eps, d.C, np.min(r_min), np.max(r_min))
    _check_kl(log_M)
    return _union_finite(r_min, log_M, lam, d)


def _chi_square_columns(q, kl, lam, d, W):
    _check_kappa(d.kappa)
    return _chi_square(q, _chi2_rows(W, d.prior.weights), lam, d)


def _truncated_columns(q, kl, lam, d, W):
    trunc = np.array([_row_dots(W, d.truncated_risks(one)) for one in np.ravel(lam).tolist()])
    return _truncated(trunc if np.ndim(lam) else trunc[0], kl, lam, d, 0.0)


def _lambda_grid(inp, d, rho, lam):
    from . import posteriors  # posteriors builds on this module

    rt = posteriors.RiskTable(d.emp_risk, d.n, d.C)
    return posteriors.minimize_bound_grid(d.prior, rt, lambda_grid_geometric(d.n), d.eps)[1]


def _geometric(n, m, eps, C):
    return [float(g) for g in lambda_grid_geometric(n)]


#: The catalog, keyed by bound id; compare lists tied bounds in this order.
BOUND_TABLE = {entry.bound_id: entry for entry in (
    CatalogEntry("union_finite", ("emp_risk or log_M",), "range", _union, _union_columns),
    # lambda_grid is this bound searched over lambda, so compare leaves it out
    CatalogEntry("catoni_linear", ("posterior",), "range",
                 lambda inp, d, rho, lam: bound_catoni_linear(inp, lam),
                 lambda q, kl, lam, d, W: _vacuous_rows_at_infinite_kl(
                     kl, _catoni_linear, q, kl, lam, d),
                 lam_kind="free", search=lambda n, m, eps, C: []),
    CatalogEntry("lambda_grid", ("emp_risk", "prior"), "range", _lambda_grid, lam_kind="grid"),
    CatalogEntry("mcallester", ("posterior",), "range",
                 lambda inp, d, rho, lam: bound_mcallester_maurer(inp), _mcallester),
    CatalogEntry("seeger", ("posterior",), "kl",
                 lambda inp, d, rho, lam: bound_seeger_maurer(inp), _seeger),
    CatalogEntry("tolstikhin_seldin", ("posterior",), "kl",
                 lambda inp, d, rho, lam: bound_tolstikhin_seldin(inp), _tolstikhin_seldin),
    CatalogEntry("thiemann", ("posterior",), "kl",
                 lambda inp, d, rho, lam: bound_thiemann(inp, lam), _thiemann,
                 lam_kind="fixed", lam_default=1.0, lam_upper=THIEMANN_LAMBDA_UPPER,
                 search=lambda n, m, eps, C: [float(g) for g in np.linspace(0.1, 1.9, 19)]),
    CatalogEntry("catoni_phi", ("posterior",), "kl",
                 lambda inp, d, rho, lam: bound_catoni_phi(inp, lam),
                 lambda q, kl, lam, d, W: _vacuous_rows_at_infinite_kl(
                     kl, _catoni_phi, q, kl, lam, d),
                 lam_kind="free", search=_geometric),
    CatalogEntry("subgaussian", ("posterior",), "range",
                 lambda inp, d, rho, lam: bound_subgaussian(inp, lam),
                 lambda q, kl, lam, d, W: _vacuous_rows_at_infinite_kl(
                     kl, _subgaussian, q, kl, lam, d),
                 lam_kind="free", search=_geometric),
    CatalogEntry("chi_square", ("posterior", "prior", "kappa"), "moment",
                 lambda inp, d, rho, lam: bound_chi_square(
                     replace(inp, chi2=chi2_discrete(rho, d.prior), kappa=d.kappa)),
                 _chi_square_columns),
    CatalogEntry("truncated", ("posterior", "losses"), "range",
                 lambda inp, d, rho, lam: bound_truncated(
                     inp, lam, float(np.dot(rho.weights, d.truncated_risks(lam))), 0.0),
                 _truncated_columns,
                 lam_kind="free", tail_free=True,
                 search=lambda n, m, eps, C: [g for g in _geometric(n, m, eps, C) if n / g >= C]),
    CatalogEntry("localized_empirical", ("posterior", "prior"), "unit",
                 lambda inp, d, rho, lam: bound_localized_empirical(
                     d.emp_risk, rho, d.prior, d.n, d.eps, lam, d.xi),
                 _localized_columns,
                 lam_kind="free", search=lambda n, m, eps, C: [min(
                     max(math.log(m / eps), LOCALIZED_LAMBDA_RANGE[0]),
                     LOCALIZED_LAMBDA_RANGE[1])]),
)}

#: Catalog identifiers accepted by the CLI and the violation harness.
BOUND_IDS = tuple(BOUND_TABLE)
