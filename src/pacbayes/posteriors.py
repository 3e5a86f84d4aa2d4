"""Constructive side of the theory.

Gibbs posteriors and their certificates: bound minimization over a lambda
grid, model selection, convex aggregation, single-draw certificates, a
diagonal-Gaussian variational optimizer driven by reparameterized Monte
Carlo gradients, and the exponentially-weighted-average online forecaster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import bounds, divergences
from .bounds import BoundInput, Certificate
from ._util import _check_count, _check_index, child_rng, child_rngs
from .divergences import (
    DiagonalGaussian,
    DiscreteDistribution,
    _block_rows,
    _gibbs_family,
    _kl_gaussian,
    _row_dots,
    _safe_log,
    gibbs_reweight,
    kl_discrete,
)

__all__ = [
    "RiskTable",
    "OnlineState",
    "VariationalConfig",
    "OptimizationDiverged",
    "gibbs_posterior",
    "minimize_bound_grid",
    "model_select",
    "aggregate_prediction",
    "single_draw_certificate",
    "optimize_gaussian_posterior",
    "ewa_run",
    "ewa_eta_theorem",
    "QuadraticSurrogate",
    "LogisticSurrogate",
    "ConstantSurrogate",
    "GaussianQuadraticTask",
]


#: Largest gap allowed between emp_risk and the column means of losses.
LOSS_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class RiskTable:
    """Per-hypothesis empirical risks, with an optional loss matrix.

    When ``losses`` (an n x M matrix of per-example losses in [0, C]) is
    present, its column means must reproduce ``emp_risk`` within
    LOSS_MEAN_TOL.
    """

    emp_risk: np.ndarray
    n: int
    C: float = 1.0
    losses: Optional[np.ndarray] = None

    def __post_init__(self):
        r = np.asarray(self.emp_risk, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("emp_risk must be a nonempty vector")
        bounds._check_inputs(self.n, None, self.C, r.min(), r.max())
        r.flags.writeable = False
        object.__setattr__(self, "emp_risk", r)
        if self.losses is not None:
            ell = np.asarray(self.losses, dtype=float)
            if ell.shape != (self.n, r.size):
                raise ValueError(f"losses must have shape ({self.n}, {r.size})")
            bounds._check_inputs(self.n, None, self.C, ell.min(), ell.max(), "losses")
            if np.max(np.abs(ell.mean(axis=0) - r)) > LOSS_MEAN_TOL:
                raise ValueError("losses column means must reproduce emp_risk within "
                                 f"{LOSS_MEAN_TOL}")
            ell.flags.writeable = False
            object.__setattr__(self, "losses", ell)


def gibbs_posterior(pi: DiscreteDistribution, emp_risk, lam: float) -> DiscreteDistribution:
    """The Gibbs posterior with weights proportional to pi(theta) e^{-lam r(theta)}.

    Computed in the log domain.  lam = 0 (or constant risks) returns the
    prior unchanged; as lam grows the mass concentrates on the empirical
    minimizer.
    """
    if not (0 <= lam < math.inf):
        raise ValueError(f"lambda must lie in [0, inf), got {lam!r}")
    r = np.asarray(emp_risk, dtype=float)
    return gibbs_reweight(pi, -lam * r)


def minimize_bound_grid(
    pi: DiscreteDistribution,
    risk_table: RiskTable,
    grid,
    eps: float,
) -> tuple[DiscreteDistribution, Certificate]:
    """Pick the Gibbs posterior minimizing the lambda-grid bound.

    For each lambda in the grid, forms rho_lam = Gibbs(pi, r, lam) and
    evaluates E_rho[r] + lam C^2/(8n) + (KL + log(card/eps))/lam; returns
    the argmin posterior with its certificate.  Ties break toward the
    earliest grid entry.

    The posteriors come from one pass of divergences._gibbs_family, whose
    rows have gibbs_posterior's bits; the pass keeps the row of the best
    value so far, so the winner is not built or checked a second time.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    r, n, C = risk_table.emp_risk, risk_table.n, risk_table.C
    logpi = _safe_log(pi.weights)
    emps, kls, best, i = [], [], None, 0
    for w, emp, kl in _gibbs_family(logpi, r, grid, logpi):
        lams = grid[i:i + emp.size]
        values = bounds._lambda_grid_values(lams, emp, kl, n, eps, C, card=grid.size)
        j = int(np.argmin(values))
        if best is None or values[j] < best[0]:
            best = (values[j], w[j].copy())
        emps.append(emp)
        kls.append(kl)
        i += emp.size
    entries = list(zip(grid.tolist(), np.concatenate(emps).tolist(), np.concatenate(kls).tolist()))
    cert = bounds.bound_lambda_grid(entries, n, eps, C)
    return DiscreteDistribution(best[1], _checked=True), cert


def model_select(
    models: Sequence[tuple[DiscreteDistribution, RiskTable]],
    p: DiscreteDistribution,
    lam: float,
    eps: float,
) -> tuple[int, DiscreteDistribution, Certificate]:
    """Gibbs-posterior model selection over a family of (prior, risk table) pairs.

    Builds the per-model Gibbs posterior at the shared lambda and selects
    the model minimizing E_rho[r] + (KL(rho||pi_j) + log(1/p(j)))/lam, with
    ties broken toward the lowest index.  The certificate carries the full
    bound including the log(1/p(j)) model penalty.
    """
    if len(models) == 0:
        raise ValueError("models must be nonempty")
    if p.size != len(models):
        raise ValueError("p must weight exactly the given models")
    bounds._check_lambda(lam)
    n, C = models[0][1].n, models[0][1].C
    if any(rt.n != n or rt.C != C for _, rt in models):
        raise ValueError("all models must share the same n and C")
    best = None
    for j, (pi_j, rt_j) in enumerate(models):
        if p.weights[j] == 0:
            continue
        rho_j = gibbs_posterior(pi_j, rt_j.emp_risk, lam)
        emp = float(np.dot(rho_j.weights, rt_j.emp_risk))
        kl = kl_discrete(rho_j, pi_j)
        penalty = bounds._log_inv(p.weights[j])
        score = emp + (kl + penalty) / lam
        if best is None or score < best[0]:
            best = (score, j, rho_j, emp, kl, penalty)
    score, j, rho_j, emp, kl, penalty = best
    cert = bounds.bound_catoni_linear(BoundInput(emp, kl + penalty, n, eps, C), lam)
    return j, rho_j, replace(cert, bound_id="model_select", details={
        "model_index": j, "model_penalty": penalty, "score": score})


def aggregate_prediction(rho: DiscreteDistribution, predictions) -> float:
    """The rho-aggregated prediction E_rho[f_theta(x)] = sum rho(theta) f_theta(x).

    For convex losses, Jensen guarantees the aggregate's loss never exceeds
    the rho-average loss of the individual predictors.
    """
    preds = np.asarray(predictions, dtype=float)
    if preds.shape != rho.weights.shape:
        raise ValueError("predictions must match the posterior support")
    return float(np.dot(rho.weights, preds))


def single_draw_certificate(
    pi: DiscreteDistribution,
    rho: DiscreteDistribution,
    theta_idx: int,
    emp_risk_theta: float,
    n: int,
    eps: float,
    C: float,
    lam: float,
) -> Certificate:
    """Certificate for a single parameter drawn from a posterior.

    value = r(theta) + lam C^2/(8n) + (log(rho(theta)/pi(theta)) + log(1/eps))/lam.
    The density-ratio term is negative wherever the posterior is thinner
    than the prior, and the certificate preserves that.
    """
    bounds._check_inputs(n, eps, C, emp_risk_theta, name="emp_risk_theta")
    divergences._check_same_support(rho, pi)
    theta_idx = _check_index(theta_idx, rho.size, "theta_idx")
    if rho.weights[theta_idx] <= 0:
        raise ValueError("theta_idx lies outside the posterior's support")
    if pi.weights[theta_idx] <= 0:
        raise ValueError("theta_idx lies outside the prior's support")
    bounds._check_lambda(lam)
    log_ratio = bounds._log_inv(float(pi.weights[theta_idx]), float(rho.weights[theta_idx]))
    value, terms, _ = bounds._catoni_linear(emp_risk_theta, log_ratio, lam,
                                            bounds.BoundData(None, n, eps, C))
    return bounds._certificate("single_draw", C, lam, value, terms,
                               {"log_density_ratio": log_ratio, "theta_idx": theta_idx})


# ---------------------------------------------------------------------------
# Diagonal-Gaussian variational posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationalConfig:
    """Hyperparameters of the Gaussian bound-minimization loop.

    split_fraction > 0 reserves that fraction of the data to build the
    prior mean; the certificate then uses only the remaining part.
    """

    mc_samples: int = 32
    step_size: float = 0.05
    max_iters: int = 2000
    seed: int = 0
    split_fraction: float = 0.0
    patience: int = 200

    def __post_init__(self):
        for name, low in (("mc_samples", 1), ("max_iters", 0), ("patience", 0)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low))
        if not (0 <= self.split_fraction < 1):
            raise ValueError("split_fraction must lie in [0, 1)")
        if not (self.step_size > 0):
            raise ValueError("step_size must be positive")


class OptimizationDiverged(RuntimeError):
    """Raised when the variational objective blows up or gradients go non-finite."""


def _mean(x: np.ndarray, axis=None):
    """x.mean(axis) of a float array, bit for bit: numpy's mean is this sum
    over the count, behind about 5 us of Python per call, which the
    optimizer's per-iteration steps would pay several times."""
    return np.add.reduce(x, axis=axis) / (x.size if axis is None else x.shape[axis])


class _PerDrawGradients:
    """reparam_pass from per-draw losses and gradients: theta = m + s z, the
    (draws x dim) gradient G of _loss_grad(theta), then G.mean(0) for the mean
    and mean(sum(G z)) s for log s."""

    def reparam_pass(self, m: np.ndarray, s: float, z: np.ndarray):
        losses, grads = self._loss_grad(m[None, :] + s * z)
        return losses, _mean(grads, 0), float(_mean(np.sum(grads * z, axis=1)) * s)


class QuadraticSurrogate(_PerDrawGradients):
    """Per-example losses min((theta - x_i)^2, 1) on 1-D data, in [0, 1]."""

    dim = 1

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        if self.x.size == 0:
            raise ValueError("need at least one example")

    @property
    def n(self) -> int:
        return int(self.x.size)

    def _diff(self, theta: np.ndarray) -> np.ndarray:
        return theta[:, 0][:, None] - self.x[None, :]

    def loss(self, theta: np.ndarray) -> np.ndarray:
        return np.minimum(self._diff(theta) ** 2, 1.0).mean(axis=1)

    def _loss_grad(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = self._diff(theta)
        sq = diff**2
        g = 2.0 * diff * (sq < 1.0)
        return _mean(np.minimum(sq, 1.0), 1), _mean(g, 1)[:, None]

    def subset(self, idx) -> "QuadraticSurrogate":
        return QuadraticSurrogate(self.x[idx])

    def prior_mean(self) -> np.ndarray:
        return np.array([self.x.mean()])


_LOG2 = math.log(2.0)


def _logistic_clipped(neg_m: np.ndarray, out=None) -> np.ndarray:
    """min(log(1 + e^{-m}), log 2) entrywise, in nats, from neg_m = -m.

    neg_m is left holding e = e^{-max(m, 0)}, the factor the gradient reuses.
    At m > 0 the value is log1p(e^{-m}), below log 2, and the exponential
    never overflows; at m <= 0 it is log1p(1) = log 2, the clip, which log2(1
    + e^{-m}) >= 1 reaches there anyway.  out (float, m's shape) takes the
    result in place of a new array.
    """
    e = np.minimum(neg_m, 0.0, out=neg_m)
    np.exp(e, out=e)
    return np.log1p(e, out=out)


class LogisticSurrogate:
    """Normalized logistic surrogate min(log(1 + e^{-y x.theta})/log 2, 1).

    It keeps (y X)^T, dim x n, in place of x: with y_i = +-1, theta . (y_i x_i)
    is the margin y_i (x_i . theta) to the bit.  loss and reparam_pass run in
    row blocks of divergences._block_rows(n) draws on one workspace, kept on
    the instance, so an instance serves one thread at a time.
    """

    def __init__(self, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise ValueError("x and y must have matching lengths")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be +/-1")
        self._use(np.ascontiguousarray((y[:, None] * x).T))

    def _use(self, yx_t: np.ndarray) -> "LogisticSurrogate":
        self.yx_t, self.dim, self._work = yx_t, yx_t.shape[0], None
        return self

    @property
    def n(self) -> int:
        return int(self.yx_t.shape[1])

    def _workspace(self, rows: int):
        """Views of rows x n of the workspace: three float buffers (P, e and
        the losses) and the unclipped mask."""
        if self._work is None or self._work[1].shape[0] < rows:
            self._work = np.empty((3, rows, self.n)), np.empty((rows, self.n), dtype=bool)
        floats, active = self._work
        return (*floats[:, :rows], active[:rows])

    def _pass(self, m: np.ndarray, s: float, z: np.ndarray, grads: bool = True):
        """The draw losses at theta_k = m + s z_k and, with grads, the column
        sums of coef and <coef, P> (see reparam_pass), in row blocks.  The
        losses are summed in nats, one GEMV per block, and turned into log2
        units on the draw means."""
        neg_a = -(m @ self.yx_t)
        step = _block_rows(self.n)
        ones, ones_rows = np.ones(self.n), np.ones(min(step, z.shape[0]))
        losses, col, dot = np.empty(z.shape[0]), np.zeros(self.n), 0.0
        for i in range(0, z.shape[0], step):
            p, e, raw, active = self._workspace(min(step, z.shape[0] - i))
            np.matmul(s * z[i:i + step], self.yx_t, out=p)
            raw = _logistic_clipped(np.subtract(neg_a, p, out=e), raw)
            np.less(raw, _LOG2, out=active)
            np.matmul(raw, ones, out=losses[i:i + step])
            if grads:
                coef = np.divide(e, np.add(e, 1.0, out=raw), out=e)
                coef *= active
                col += ones_rows[:coef.shape[0]] @ coef
                dot += float(np.dot(coef.ravel(), p.ravel()))
        losses /= self.n * _LOG2
        # a sum of n entries of at most log 2 may round above n log 2
        return np.minimum(losses, 1.0, out=losses), col, dot

    def loss(self, theta: np.ndarray) -> np.ndarray:
        """The mean loss of each row of theta: the draw losses of the fused
        pass at m = 0, s = 1."""
        theta = np.asarray(theta, dtype=float)
        return self._pass(np.zeros(self.dim), 1.0, theta, grads=False)[0]

    def reparam_pass(self, m: np.ndarray, s: float, z: np.ndarray):
        """The draw losses at theta_k = m + s z_k, with the data term's gradient
        in m and its derivative in log s, from one GEMM per row block.

        P = (s Z)(y X)^T is the only GEMM, and the margins are M = P + (y X) m,
        one GEMV.  e = e^{-max(M, 0)} is taken once, for log1p and for the
        sigmoid: the loss's derivative in M is -1 / ((1 + e^M) log 2), which
        is -e / ((1 + e) log 2) at M > 0, and 0 where the loss is clipped,
        which it is wherever M <= 0.  So coef = e / (1 + e) on the unclipped
        entries and 0 elsewhere.  Then the mean gradient is -colmean(coef)
        (y X) / (n log 2), one GEMV, and the log s derivative, the mean over
        draws of s z_k . grad_k, is -<coef, P> / (D n log 2), one dot, for D
        draws.
        """
        losses, col, dot = self._pass(m, s, z)
        draws = z.shape[0]
        grad_m = (self.yx_t @ (col / draws)) / (-self.n * _LOG2)
        return losses, grad_m, dot / (-draws * self.n * _LOG2)

    def subset(self, idx) -> "LogisticSurrogate":
        # a column gather is F-ordered: the GEMMs run slower through that layout
        return LogisticSurrogate.__new__(LogisticSurrogate)._use(
            np.ascontiguousarray(self.yx_t[:, idx]))

    def prior_mean(self) -> np.ndarray:
        """theta after 25 gradient steps of size 0.5 from zero: the fused pass
        at s = 0."""
        m, z = np.zeros(self.dim), np.zeros((1, self.dim))
        for _ in range(25):
            m = m - 0.5 * self.reparam_pass(m, 0.0, z)[1]
        return m


class ConstantSurrogate(_PerDrawGradients):
    """Zero-dimensional objective with a constant loss; the degenerate case."""

    dim = 0

    def __init__(self, value: float, n: int):
        self.value = float(value)
        self._n = int(n)

    @property
    def n(self) -> int:
        return self._n

    def loss(self, theta: np.ndarray) -> np.ndarray:
        return np.full(theta.shape[0], self.value)

    def _loss_grad(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.loss(theta), np.zeros_like(theta)

    def subset(self, idx) -> "ConstantSurrogate":
        return ConstantSurrogate(self.value, len(idx))

    def prior_mean(self) -> np.ndarray:
        return np.zeros(0)


class GaussianQuadraticTask:
    """1-D task with Gaussian inputs and the bounded quadratic surrogate.

    Inputs X ~ N(center, spread^2) and per-example loss min((theta - X)^2, 1).
    Because theta - X is Gaussian under a Gaussian posterior, the exact
    posterior risk E_{theta~N(m, s^2)}[R(theta)] has a closed form.
    """

    def __init__(self, center: float = 0.3, spread: float = 0.5):
        self.center = float(center)
        self.spread = float(spread)
        if not (self.spread > 0):
            raise ValueError("spread must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.center + self.spread * rng.standard_normal(n)

    @staticmethod
    def _clipped_square_mean(mu: float, var: float) -> float:
        """E[min(W^2, 1)] for W ~ N(mu, var), in closed form."""
        sd = math.sqrt(var)
        alpha = (-1.0 - mu) / sd
        beta = (1.0 - mu) / sd
        phi_a = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
        phi_b = math.exp(-0.5 * beta * beta) / math.sqrt(2.0 * math.pi)
        # Phi(x) = erfc(-x / sqrt 2) / 2
        p_in = 0.5 * (math.erfc(-beta / math.sqrt(2.0)) - math.erfc(-alpha / math.sqrt(2.0)))
        ez2_in = p_in + alpha * phi_a - beta * phi_b
        ew2_in = mu * mu * p_in + 2.0 * mu * sd * (phi_a - phi_b) + var * ez2_in
        return ew2_in + (1.0 - p_in)

    def true_risk(self, theta: float) -> float:
        """R(theta) = E_X[min((theta - X)^2, 1)]."""
        return self._clipped_square_mean(theta - self.center, self.spread**2)

    def exact_posterior_risk(self, mean: float, std: float) -> float:
        """E_{theta ~ N(mean, std^2)}[R(theta)], exact.

        theta - X ~ N(mean - center, std^2 + spread^2) under the posterior,
        so the expectation reduces to the same clipped-square formula.
        """
        return self._clipped_square_mean(mean - self.center, std**2 + self.spread**2)


def optimize_gaussian_posterior(
    objective_data,
    prior_std: float,
    cfg: VariationalConfig,
    lam: float,
    eps: float,
    C: float = 1.0,
    certificate: str = "linear",
) -> tuple[DiagonalGaussian, Certificate]:
    """Minimize the PAC-Bayes objective over diagonal Gaussians N(m, s^2 I).

    The objective F(m, log s) = MC-estimate of E_rho[r] + lam C^2/(8n)
    + (KL + log(1/eps))/lam is minimized by gradient descent on (m, log s),
    with the reparameterization theta = m + s z and analytic KL gradients.
    Per-iteration Monte Carlo seeds are fixed, so runs are bit-reproducible.

    With split_fraction > 0 the prior mean is fit on the held-out split and
    the certificate uses only the remaining data.  The returned certificate
    is evaluated with a fresh MC estimate over 10x mc_samples draws, either
    by the catalog's catoni_linear row (``certificate="linear"``) or its
    seeger row (``certificate="seeger"``: the kl inversion at risk/C, the
    certificate rescaled by C).

    objective_data is any object with
      dim, n               parameter dimension and number of examples
      loss(theta)          mean loss in [0, C] per row of a (draws x dim) theta
      reparam_pass(m, s, z)
                           at the draws theta_k = m + s z_k of a (draws x dim)
                           z: (the draw losses, the gradient in m of their
                           mean, its derivative in log s); the only call the
                           loop makes, once per iteration
      subset(idx)          the same objective on the examples idx
      prior_mean()         a parameter vector fit to the data (split runs only)
    as QuadraticSurrogate, LogisticSurrogate and ConstantSurrogate are.
    """
    if not (prior_std > 0):
        raise ValueError("prior_std must be positive")
    bounds._check_lambda(lam)
    if certificate not in ("linear", "seeger"):
        raise ValueError("certificate must be 'linear' or 'seeger'")
    d = objective_data.dim
    sigma = float(prior_std)

    if cfg.split_fraction > 0:
        rng_split = child_rng(cfg.seed, 0)
        perm = rng_split.permutation(objective_data.n)
        n_prior = max(1, int(round(cfg.split_fraction * objective_data.n)))
        prior_part = objective_data.subset(perm[:n_prior])
        work = objective_data.subset(perm[n_prior:])
        prior_mean = np.asarray(prior_part.prior_mean(), dtype=float)
    else:
        work = objective_data
        prior_mean = np.zeros(d)
    n_cert = work.n

    def kl_term(m, s):
        return _kl_gaussian(m - prior_mean, s, sigma)

    cert_data = bounds.BoundData(None, n_cert, eps, C)
    m = prior_mean.copy()
    log_s = math.log(sigma)

    def mc_objective_and_grads(m, log_s, rng, n_draws):
        s = math.exp(log_s)
        if not (0.0 < s < math.inf) or not np.isfinite(m).all():
            raise OptimizationDiverged(
                f"posterior parameters left the feasible region (std={s!r})"
            )
        z = rng.standard_normal((n_draws, d))
        losses, data_grad_m, data_grad_logs = work.reparam_pass(m, s, z)
        risk = float(_mean(losses))
        obj = bounds._catoni_linear(risk, kl_term(m, s), lam, cert_data)[0]
        grad_m = data_grad_m + (m - prior_mean) / (sigma**2 * lam)
        grad_logs = data_grad_logs + d * ((s / sigma) ** 2 - 1.0) / lam
        return obj, risk, grad_m, grad_logs

    best_obj = math.inf
    best_params = (m.copy(), log_s)
    best_risk = math.nan
    initial_obj = None
    bad_streak = 0
    # child_rng(cfg.seed, 1, it) for each iteration, seeded in one pass
    rngs = child_rngs(cfg.seed, [(1, it) for it in range(cfg.max_iters)])
    for it, rng_it in enumerate(rngs):
        obj, risk, grad_m, grad_logs = mc_objective_and_grads(m, log_s, rng_it, cfg.mc_samples)
        if not (np.isfinite(grad_m).all() and math.isfinite(grad_logs) and math.isfinite(obj)):
            raise OptimizationDiverged(f"non-finite objective or gradient at iteration {it}")
        if initial_obj is None:
            initial_obj = obj
        if obj < best_obj:
            best_obj = obj
            best_params = (m.copy(), log_s)
            best_risk = risk
            bad_streak = 0
        elif obj > max(10.0 * abs(initial_obj), initial_obj + 10.0):
            bad_streak += 1
            if bad_streak > cfg.patience:
                raise OptimizationDiverged(
                    f"objective stuck above its initial value for {cfg.patience} iterations"
                )
        m = m - cfg.step_size * grad_m
        log_s = log_s - cfg.step_size * grad_logs

    m, log_s = best_params
    s = math.exp(log_s)
    gauss = DiagonalGaussian(mean=m, std=s)

    rng_cert = child_rng(cfg.seed, 2)
    z = rng_cert.standard_normal((10 * cfg.mc_samples, d))
    mc_risk = float(work.loss(m[None, :] + s * z).mean())
    kl = kl_term(m, s)
    extra = {"kl": kl, "mc_risk": mc_risk, "train_mc_risk": best_risk, "n_cert": n_cert}
    inner = bounds.BOUND_TABLE["catoni_linear" if certificate == "linear" else "seeger"].certify(
        cert_data, gauss, mc_risk, kl, lam)
    return gauss, replace(inner, details={**inner.details, **extra})


# ---------------------------------------------------------------------------
# Exponentially weighted average forecaster
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineState:
    """Terminal state of an EWA run.

    weights    the posterior after the final update (rho_{T+1})
    eta        the learning rate used
    cum_loss   the forecaster's accumulated loss
    cum_best   per-expert cumulative losses
    """

    weights: DiscreteDistribution
    eta: float
    cum_loss: float
    cum_best: np.ndarray
    weight_history: Optional[list] = None


def ewa_eta_theorem(m: int, horizon: int, C: float = 1.0) -> float:
    """The horizon-tuned learning rate eta = (2/C) sqrt(2 log(M) / T)."""
    m, horizon = _check_count(m, "m"), _check_count(horizon, "horizon")
    if not (0 < C < math.inf):
        raise ValueError(f"C must lie in (0, inf), got {C!r}")
    return (2.0 / C) * math.sqrt(2.0 * math.log(m) / horizon)


def ewa_run(
    losses,
    eta: float,
    pi: DiscreteDistribution,
    record_weights: bool = False,
) -> tuple[OnlineState, float]:
    """Run the multiplicative-weights forecaster on a T x M loss matrix.

    At round t the forecaster pays E_{rho_t}[loss_t] and then reweights
    rho_{t+1} proportional to rho_t e^{-eta loss_t}.  Returns the terminal
    state and the regret against the best single expert in hindsight.
    The weights after t rounds coincide exactly with the Gibbs posterior
    at temperature eta*t on the cumulative-mean losses.

    Rounds run in row blocks of divergences._block_rows(M) rounds at most:
    one pass each for the block's max shift, exp and renormalization, and
    one row product for its losses, which are added in round order.  Each
    log-weight row is its predecessor minus eta * loss_t, one numpy call per
    round (np.subtract.accumulate keeps that order too, but ran 3x slower
    at 1000 experts), so every weight, cum_loss and the regret have the
    bits of one loop step per round.
    """
    if not (0 < eta < math.inf):
        raise ValueError(f"eta must lie in (0, inf), got {eta!r}")
    ell = np.asarray(losses, dtype=float)
    if ell.ndim != 2:
        raise ValueError("losses must be a T x M matrix")
    horizon, m = ell.shape
    if m != pi.size:
        raise ValueError("losses must have one column per expert")
    logw = _safe_log(pi.weights)
    history = [] if record_weights else None
    cum_loss = 0.0
    rows = divergences._block_rows(m)
    buf = np.empty((min(rows, horizon) + 1, m))
    for t in range(0, horizon, rows):
        k = min(rows, horizon - t)
        logws = buf[:k + 1]
        logws[0] = logw
        np.multiply(eta, ell[t:t + k], out=logws[1:])
        for r in range(k):
            np.subtract(logws[r], logws[r + 1], out=logws[r + 1])
        logw = logws[k].copy()
        w = logws[:k]
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        if record_weights:
            history.extend(DiscreteDistribution(row) for row in w.copy())
        for loss in _row_dots(w, ell[t:t + k]).tolist():
            cum_loss += loss
    w = np.exp(logw - logw.max())
    w /= w.sum()
    cum_best = ell.sum(axis=0)
    regret = cum_loss - float(cum_best.min())
    state = OnlineState(
        weights=DiscreteDistribution(w),
        eta=eta,
        cum_loss=cum_loss,
        cum_best=cum_best,
        weight_history=history,
    )
    return state, regret
