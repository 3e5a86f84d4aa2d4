"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own code paths: grid
scans instead of bisection, quadrature instead of closed forms, exhaustive
enumeration and exact dynamic programming instead of analytic regret
bounds, golden-section probes of stationary points instead of closed-form
minimizers.  The ``*_loop`` functions are the exception: they keep the
one-at-a-time loops that library array passes replaced, some on the
library's own primitives, so tests can hold each pass to its loop's values
or bits.
"""

import math

import numpy as np
from scipy import integrate, stats


def kl_vec(q: float, p: np.ndarray) -> np.ndarray:
    """Binary kl(q | p) evaluated on an array of second arguments."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, np.inf)
    inner = (p > 0) & (p < 1)
    with np.errstate(divide="ignore"):
        term = np.zeros(p.shape)
        if q > 0:
            term = term + q * np.log(q / np.where(inner, p, 1.0))
        if q < 1:
            term = term + (1 - q) * np.log((1 - q) / np.where(inner, 1 - p, 1.0))
    out[inner] = term[inner]
    out[p == q] = 0.0
    return out


def grid_kl_inverse(q: float, b: float, step: float = 1e-7) -> float:
    """The value a full 1e-7-step grid scan of kl(q|.) <= b would return.

    Computed with a coarse/fine two-stage scan over the *same* grid points
    q + k*step; the staging is exact because kl(q|.) is nondecreasing on
    [q, 1] (verified against the one-stage scan in the test suite).
    """
    if q >= 1.0:
        return 1.0
    k_max = int(math.floor((1.0 - q) / step))
    block = 10_000
    # coarse pass over every block-th grid point
    coarse_ks = np.arange(0, k_max + 1, block)
    vals = kl_vec(q, q + coarse_ks * step)
    feasible = np.flatnonzero(vals <= b)
    k_lo = int(coarse_ks[feasible[-1]])
    ks = np.arange(k_lo, min(k_lo + block, k_max + 1))
    fine = kl_vec(q, q + ks * step)
    good = np.flatnonzero(fine <= b)
    return float(q + ks[good[-1]] * step)


def grid_kl_inverse_onestage(q: float, b: float, step: float = 1e-7) -> float:
    """Single full scan of the whole grid; slow, for validating the staging."""
    k_max = int(math.floor((1.0 - q) / step))
    ks = np.arange(0, k_max + 1)
    vals = kl_vec(q, q + ks * step)
    good = np.flatnonzero(vals <= b)
    return float(q + ks[good[-1]] * step)


def kl_gaussian_quadrature(mean: float, std: float, prior_std: float) -> float:
    """KL between 1-D Gaussians by numerical integration of the integrand."""
    rho = stats.norm(mean, std)
    pi = stats.norm(0.0, prior_std)

    def integrand(x):
        return rho.pdf(x) * (rho.logpdf(x) - pi.logpdf(x))

    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    return val


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Argmin of a unimodal scalar function by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def ewa_forecaster_losses(loss_matrices: np.ndarray, eta: float) -> np.ndarray:
    """Cumulative EWA loss for a batch of loss matrices, uniform prior.

    loss_matrices has shape (batch, T, M); returns (batch,) forecaster
    totals, computed with the straightforward multiplicative update.
    """
    batch, horizon, m = loss_matrices.shape
    logw = np.zeros((batch, m))
    total = np.zeros(batch)
    for t in range(horizon):
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        total += np.einsum("bm,bm->b", w, loss_matrices[:, t, :])
        logw -= eta * loss_matrices[:, t, :]
    return total


def ewa_exhaustive_max_regret(m: int, horizon: int, eta: float) -> float:
    """Max regret over every binary loss matrix in {0,1}^{T x M}, by enumeration."""
    bits = m * horizon
    count = 1 << bits
    idx = np.arange(count, dtype=np.uint64)
    mats = np.zeros((count, horizon, m))
    for b in range(bits):
        mats[:, b // m, b % m] = (idx >> np.uint64(b)) & np.uint64(1)
    totals = ewa_forecaster_losses(mats, eta)
    best = mats.sum(axis=1).min(axis=1)
    return float(np.max(totals - best))


def ewa_dp_max_regret(m: int, horizon: int, eta: float) -> float:
    """Exact max regret over all binary loss sequences, by dynamic programming.

    The forecaster's weights depend only on the vector of cumulative expert
    losses (up to a common shift), so sequences can be enumerated exactly by
    a DP over shift-canonicalized integer states; the common shift is folded
    into the value, which then equals forecaster loss minus best expert loss.
    Agrees with brute-force enumeration wherever that is feasible.
    """
    loss_vectors = [np.array(v) for v in np.ndindex(*([2] * m))]
    states = {tuple([0] * m): 0.0}
    for _ in range(horizon):
        nxt = {}
        for state, value in states.items():
            arr = np.asarray(state, dtype=float)
            w = np.exp(-eta * arr)
            w /= w.sum()
            for ell in loss_vectors:
                inc = float(w @ ell)
                raw = arr + ell
                shift = raw.min()
                key = tuple((raw - shift).astype(int))
                cand = value + inc - float(shift)
                if cand > nxt.get(key, -np.inf):
                    nxt[key] = cand
        states = nxt
    return max(states.values())


def rho_family_inf_loop(pi, R, extra_betas, objective, against=None) -> float:
    """inf of objective(E_rho[R], KL(rho || against)) one candidate at a time.

    The scalar scan the laboratory ran before its array pass and, later, its
    closed form: rho ranges over the Gibbs reweightings pi_{-beta R} on a
    141-point beta grid in [1e-6, 1e8], beta = 0 and extra_betas (normalized
    with scipy's logsumexp), and the Dirac masses on pi's support, each with
    its own KL sum; candidates with infinite KL are skipped.  pi and against
    are weight vectors.
    """
    from scipy.special import logsumexp

    pi = np.asarray(pi, dtype=float)
    q = pi if against is None else np.asarray(against, dtype=float)
    R = np.asarray(R, dtype=float)
    with np.errstate(divide="ignore"):
        logpi = np.log(pi)
    betas = np.concatenate([[0.0], np.geomspace(1e-6, 1e8, 141), np.asarray(extra_betas, float)])
    candidates = []
    for beta in betas:
        logw = logpi - beta * R
        w = np.exp(logw - logsumexp(logw))
        candidates.append(w / w.sum())
    for j in np.flatnonzero(pi > 0):
        dirac = np.zeros(pi.size)
        dirac[j] = 1.0
        candidates.append(dirac)
    best = math.inf
    for rho in candidates:
        mask = rho > 0
        if np.any(q[mask] == 0):
            continue
        kl = max(float(np.sum(rho[mask] * np.log(rho[mask] / q[mask]))), 0.0)
        best = min(best, float(objective(float(np.dot(rho, R)), kl)))
    return best


def mp_oracle_rhs(variant, pi, R, C, n, *, lam=None, eps=None, K=None, digits: int = 60):
    """oracle_lab's oracle right-hand sides from the Donsker-Varadhan formula in mpmath.

    inf_rho {E_rho[g] + KL(rho || pi)/beta} = -log E_pi[e^{-beta g}]/beta,
    E_pi a direct sum over pi's masses divided by their sum, at ``digits``
    digits.  "fast" is that at beta = n/max(2K, C) and g = R - R*, doubled;
    "localized" gives (value, closed_form) at lam = n/max(2K, C):
    (4/lam) [log E_pi e^{-(lam/4) g} - log E_pi e^{-lam g}] and the Dirac
    choice (4/lam) [log E_pi e^{-(lam/4) g} - log pi(theta*)].  pi and R are
    float vectors; every input enters exactly, and the result is rounded once.
    """
    import mpmath as mp

    with mp.workdps(digits):
        w = [mp.mpf(float(x)) for x in pi]
        total = mp.fsum(w)
        risks = [mp.mpf(float(x)) for x in R]
        star = int(np.argmin(R))
        gaps = [r - risks[star] for r in risks]

        def log_mgf(beta, r):
            return mp.log(mp.fsum(wj * mp.exp(-beta * rj) for wj, rj in zip(w, r) if wj) / total)

        C, n = mp.mpf(C), mp.mpf(n)
        if variant == "expectation":
            lam = mp.mpf(lam)
            return float(lam * C**2 / (8 * n) - log_mgf(lam, risks) / lam)
        if variant == "probability":
            lam = mp.mpf(lam)
            return float(lam * C**2 / (4 * n) - 2 * log_mgf(lam / 2, risks) / lam
                         + 2 * mp.log(2 / mp.mpf(eps)) / lam)
        temp = n / max(2 * mp.mpf(K), C)
        if variant == "fast":
            return float(-2 * log_mgf(temp, gaps) / temp)
        assert variant == "localized", variant
        local = log_mgf(temp / 4, gaps)
        closed = 4 * (local - mp.log(w[star] / total)) / temp if w[star] else mp.inf
        return float(4 * (local - log_mgf(temp, gaps)) / temp), float(closed)


def pi_dimension_loop(pi, true_risk, C):
    """oracle_lab.pi_dimension with one scalar objective call per grid point.

    The scan pi_dimension ran before its blocked row pass, on the library's
    own primitives: the same 1000-point grid, the same golden-section
    refinement and the same "never overshoots" pick.  pi is a
    DiscreteDistribution.
    """
    from pacbayes.divergences import _log_gibbs, _safe_log
    from pacbayes.oracle_lab import _golden_max

    R = np.asarray(true_risk, dtype=float)
    gaps = R - R.min()
    if np.all(gaps == 0):
        return 0.0, math.nan
    logpi = _safe_log(pi.weights)

    def objective(beta):
        return beta * float(np.dot(np.exp(_log_gibbs(logpi, -beta * gaps)), gaps))

    grid = np.geomspace(1e-6, 1e8, 1000)
    grid_vals = np.array([objective(b) for b in grid])
    k = int(np.argmax(grid_vals))
    beta_g, val_g = _golden_max(objective, grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    if grid_vals[k] > val_g:
        beta_g, val_g = float(grid[k]), float(grid_vals[k])
    return float(val_g), float(beta_g)


def ewa_run_loop(losses, eta, pi, record_weights=False):
    """posteriors.ewa_run with one loop step per round.

    The forecaster ewa_run ran before its blocked row passes: at each round
    the max-shifted, renormalized weights, the np.dot loss added to a float
    in round order and logw - eta * loss_t.  pi is a DiscreteDistribution;
    returns (OnlineState, regret) as ewa_run does.
    """
    from pacbayes.divergences import DiscreteDistribution, _safe_log
    from pacbayes.posteriors import OnlineState

    ell = np.asarray(losses, dtype=float)
    logw = _safe_log(pi.weights)
    history = [] if record_weights else None
    cum_loss = 0.0
    for t in range(ell.shape[0]):
        w = np.exp(logw - logw.max())
        w /= w.sum()
        if record_weights:
            history.append(DiscreteDistribution(w))
        cum_loss += float(np.dot(w, ell[t]))
        logw = logw - eta * ell[t]
    w = np.exp(logw - logw.max())
    w /= w.sum()
    cum_best = ell.sum(axis=0)
    state = OnlineState(DiscreteDistribution(w), eta, cum_loss, cum_best, history)
    return state, cum_loss - float(cum_best.min())


def mp_union_bound_value(log_M, n, eps, digits: int = 60):
    """Arbitrary-precision sqrt((log M + log(1/eps)) / (2n)) via mpmath."""
    import mpmath as mp

    with mp.workdps(digits):
        val = mp.sqrt((mp.mpf(log_M) + mp.log(1 / mp.mpf(eps))) / (2 * mp.mpf(n)))
        return float(val)


def mp_kl_inverse_upper(q: float, b: float, digits: int = 40):
    """The upper kl inverse sup{p in [q, 1] : kl(q|p) <= b} as a 40-digit mpmath number.

    Bisects in mpmath on [q, 1] for 130 steps, far below a float's spacing;
    a point whose 1 - p rounds to zero counts as over budget.
    """
    import mpmath as mp

    with mp.workdps(digits):
        q, b = mp.mpf(q), mp.mpf(b)

        def kl(p):
            if p >= 1:
                return mp.inf
            out = (1 - q) * mp.log((1 - q) / (1 - p)) if q < 1 else mp.mpf(0)
            return out + (q * mp.log(q / p) if q > 0 else 0)

        lo, hi = q, mp.mpf(1)
        for _ in range(130):
            mid = (lo + hi) / 2
            if kl(mid) <= b:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class TwoPassLogisticSurrogate:
    """The logistic surrogate as the optimizer saw it before its fused pass.

    loss and grad each recompute the margins and the clipped loss with
    np.logaddexp, and reparam_pass takes the optimizer's old per-draw step:
    theta = m + s z, the per-draw gradients G = grad(theta), then G.mean(0)
    and mean(sum(G z)) s.
    """

    def __init__(self, x, y):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.asarray(y, dtype=float).reshape(-1)
        self.dim = self.x.shape[1]

    @property
    def n(self) -> int:
        return int(self.y.size)

    def _margins(self, theta):
        return self.y[None, :] * (theta @ self.x.T)

    def loss(self, theta):
        raw = np.logaddexp(0.0, -self._margins(theta)) / math.log(2.0)
        return np.minimum(raw, 1.0).mean(axis=1)

    def coef(self, theta):
        """d loss_i / d margin_i per draw and example, times y_i: 0 where clipped."""
        m = self._margins(theta)
        raw = np.logaddexp(0.0, -m) / math.log(2.0)
        sig = 1.0 / (1.0 + np.exp(m))
        return -(sig * (raw < 1.0)) * self.y[None, :] / math.log(2.0)

    def grad(self, theta):
        return (self.coef(theta) @ self.x) / self.n

    def reparam_pass(self, m, s, z):
        theta = m[None, :] + s * z
        grads = self.grad(theta)
        return self.loss(theta), grads.mean(axis=0), float(np.mean(np.sum(grads * z, axis=1)) * s)

    def subset(self, idx):
        return TwoPassLogisticSurrogate(self.x[idx], self.y[idx])

    def prior_mean(self, steps: int = 25, step_size: float = 0.5):
        theta = np.zeros((1, self.dim))
        for _ in range(steps):
            theta = theta - step_size * self.grad(theta)
        return theta[0]


def optimize_gaussian_posterior_loop(objective_data, prior_std, cfg, lam, eps, C=1.0,
                                     certificate="linear"):
    """posteriors.optimize_gaussian_posterior as it was before reparam_pass.

    Each step forms theta = m + s z, takes the per-draw losses and gradients
    G from the objective's _loss_grad(theta), and reads the mean's gradient
    off G.mean(0) and the log s derivative off mean(sum(G z)) s; the KL comes
    from kl_gaussian_diag on a DiagonalGaussian built every step.
    """
    from dataclasses import replace

    from pacbayes import bounds
    from pacbayes._util import child_rng, child_rngs
    from pacbayes.bounds import BoundInput
    from pacbayes.divergences import DiagonalGaussian, kl_gaussian_diag
    from pacbayes.posteriors import OptimizationDiverged

    d = objective_data.dim
    sigma = float(prior_std)
    if cfg.split_fraction > 0:
        perm = child_rng(cfg.seed, 0).permutation(objective_data.n)
        n_prior = max(1, int(round(cfg.split_fraction * objective_data.n)))
        prior_part = objective_data.subset(perm[:n_prior])
        work = objective_data.subset(perm[n_prior:])
        prior_mean = np.asarray(prior_part.prior_mean(), dtype=float)
    else:
        work = objective_data
        prior_mean = np.zeros(d)
    n_cert = work.n

    def kl_term(m, s):
        return kl_gaussian_diag(DiagonalGaussian(mean=m - prior_mean, std=s), sigma)

    cert_data = bounds.BoundData(None, n_cert, eps, C)
    m = prior_mean.copy()
    log_s = math.log(sigma)

    def mc_objective_and_grads(m, log_s, rng, n_draws):
        s = math.exp(log_s)
        if not (0.0 < s < math.inf) or not np.all(np.isfinite(m)):
            raise OptimizationDiverged(f"posterior parameters left the feasible region ({s!r})")
        z = rng.standard_normal((n_draws, d))
        theta = m[None, :] + s * z
        losses, grads = work._loss_grad(theta)
        risk = float(losses.mean())
        obj = bounds._catoni_linear(risk, kl_term(m, s), lam, cert_data)[0]
        grad_m = grads.mean(axis=0) + (m - prior_mean) / (sigma**2 * lam)
        grad_logs = float(np.mean(np.sum(grads * z, axis=1)) * s) + d * (
            (s / sigma) ** 2 - 1.0
        ) / lam
        return obj, risk, grad_m, grad_logs

    best_obj, best_params, best_risk = math.inf, (m.copy(), log_s), math.nan
    initial_obj, bad_streak = None, 0
    rngs = child_rngs(cfg.seed, [(1, it) for it in range(cfg.max_iters)])
    for it, rng_it in enumerate(rngs):
        obj, risk, grad_m, grad_logs = mc_objective_and_grads(m, log_s, rng_it, cfg.mc_samples)
        if not (np.all(np.isfinite(grad_m)) and math.isfinite(grad_logs) and math.isfinite(obj)):
            raise OptimizationDiverged(f"non-finite objective or gradient at iteration {it}")
        if initial_obj is None:
            initial_obj = obj
        if obj < best_obj:
            best_obj, best_params, best_risk, bad_streak = obj, (m.copy(), log_s), risk, 0
        elif obj > max(10.0 * abs(initial_obj), initial_obj + 10.0):
            bad_streak += 1
            if bad_streak > cfg.patience:
                raise OptimizationDiverged(f"objective stuck for {cfg.patience} iterations")
        m = m - cfg.step_size * grad_m
        log_s = log_s - cfg.step_size * grad_logs

    m, log_s = best_params
    s = math.exp(log_s)
    gauss = DiagonalGaussian(mean=m, std=s)
    z = child_rng(cfg.seed, 2).standard_normal((10 * cfg.mc_samples, d))
    mc_risk = float(work.loss(m[None, :] + s * z).mean())
    kl = kl_term(m, s)
    extra = {"kl": kl, "mc_risk": mc_risk, "train_mc_risk": best_risk, "n_cert": n_cert}
    if certificate == "linear":
        inner = bounds.bound_catoni_linear(BoundInput(mc_risk, kl, n_cert, eps, C), lam)
    else:
        inner = bounds.bound_seeger_maurer(
            BoundInput(emp_risk=min(mc_risk, 1.0), kl=kl, n=n_cert, eps=eps, C=1.0))
    return gauss, replace(inner, details={**inner.details, **extra})


def kl_log_prior_loop(r, logp):
    """divergences._kl_log_prior as it was before it skipped the zeroing of
    zero weights' terms: the terms of every r = 0 are set to 0 by one masked
    copy, whatever logp holds."""
    terms = np.empty(r.shape)
    off = ~(r > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(r + off, out=terms)
        terms -= logp
        terms *= r
    np.copyto(terms, 0.0, where=off)
    kl = np.maximum(terms.sum(axis=-1), 0.0)
    return float(kl) if kl.ndim == 0 else kl


def subgaussian_by_hand(emp, kl, n, eps, C, lam):
    """The sub-Gaussian bound emp + lam C^2/n + (KL + log(1/eps))/lam written out.

    The body bounds.bound_subgaussian had before the one linear evaluator,
    returning (value, terms, lam, vacuous) from the same float operations in
    the same order; KL = inf gives the vacuous +inf certificate.
    """
    if not (lam > 0):
        raise ValueError("lambda must be positive")
    if math.isinf(kl):
        return math.inf, {"empirical": emp, "complexity": math.inf, "slack": 0.0}, lam, True
    slack = lam * C**2 / n
    complexity = (kl + math.log(1.0 / eps)) / lam
    value = emp + slack + complexity
    return value, {"empirical": emp, "complexity": complexity, "slack": slack}, lam, value >= C


def single_draw_by_hand(pi, rho, theta_idx, emp, n, eps, C, lam):
    """The single-draw certificate r + lam C^2/(8n) + (log(rho/pi) + log(1/eps))/lam.

    The body posteriors.single_draw_certificate had before the one linear
    evaluator, on weight vectors pi and rho, returning (value, terms, lam,
    vacuous, log_ratio).
    """
    log_ratio = math.log(rho[theta_idx] / pi[theta_idx])
    slack = lam * C**2 / (8.0 * n)
    complexity = (log_ratio + math.log(1.0 / eps)) / lam
    value = emp + slack + complexity
    terms = {"empirical": emp, "complexity": complexity, "slack": slack}
    return value, terms, lam, value >= C, log_ratio


def truncated_risks_loop(losses, n, lam):
    """Per-hypothesis truncated empirical risks, one loss column at a time.

    The loop BoundData.truncated_risks ran before its one row pass.
    """
    from pacbayes.bounds import truncated_empirical_risk

    return np.array([truncated_empirical_risk(column, n, lam) for column in losses.T])


def compare_bounds_loop(task, eps=None):
    """cli.compare_bounds one certificate at a time.

    The loop compare ran before its column pass: every (lambda, candidate)
    pair of a bound is certified on its own, each candidate a
    DiscreteDistribution, and min() keeps the first smallest certificate.
    """
    from dataclasses import replace

    from pacbayes import bounds
    from pacbayes.cli import _prior_distribution
    from pacbayes.divergences import (DiscreteDistribution, _gibbs_family, _kl_log_prior,
                                      _safe_log)

    if eps is not None:
        task = {**task, "eps": eps}
    n, eps, C = task["n"], task["eps"], task["C"]
    emp_vec = task["emp_risk"]
    if emp_vec is None:
        raise ValueError("compare needs the emp_risk field")
    pi = _prior_distribution(task)
    m = emp_vec.size
    logpi = task["log_prior"]
    erm = int(np.argmin(emp_vec))
    dirac = DiscreteDistribution.dirac(m, erm)
    stats = [(DiscreteDistribution(row), emp, kl)
             for w, emps, kls in _gibbs_family(_safe_log(pi.weights), emp_vec,
                                               bounds.lambda_grid_geometric(n), logpi)
             for row, emp, kl in zip(w, emps.tolist(), kls.tolist())]
    stats.append((dirac, float(emp_vec[erm]), _kl_log_prior(dirac.weights, logpi)))
    stats = [s for s in stats if not math.isinf(s[2])]
    rt = task["risk_table"]
    data = bounds.BoundData(emp_vec, n, eps, C, prior=pi, kappa=task["kappa"],
                            losses=None if rt is None else rt.losses, log_M=task["log_M"],
                            xi=bounds.LOCALIZED_XI_DEFAULT)

    results = []
    for entry in bounds.BOUND_TABLE.values():
        lams = entry.search(n, m, eps, C)
        if not lams or entry.missing(data, dirac):
            continue
        priced = replace(data, eps=eps / len(lams))
        posts = stats if "posterior" in entry.requires else [(None, None, None)]
        results.append(min(
            (entry.certify(priced, rho, emp, kl, lam) for lam in lams for rho, emp, kl in posts),
            key=lambda c: c.value,
        ))
    results.sort(key=lambda c: c.value)
    return results


def bernstein_ratios_loop(gaps, second, theta_star):
    """(K, ratios) of the Bernstein condition, one hypothesis at a time.

    The loop oracle_lab.estimate_bernstein_constant ran before its array
    pass: a zero gap gives inf when the second moment exceeds 1e-12 and is
    skipped (NaN) otherwise; K is the largest ratio, starting from 0.
    """
    ratios = np.full(len(gaps), math.nan)
    K = 0.0
    for j in range(len(gaps)):
        if j == theta_star:
            continue
        if gaps[j] <= 0:
            if second[j] > 1e-12:
                ratios[j] = math.inf
                K = math.inf
            continue
        ratios[j] = second[j] / gaps[j]
        K = max(K, ratios[j])
    return float(K), ratios


def stacked_draws_loop(task, n, rngs) -> np.ndarray:
    """The (trials x M) matrix of empirical-risk draws, one generator at a time.

    The per-trial loop oracle_lab._stacked_draws ran before the block
    sampler.  A threshold-margin trial keeps the two-sort count it replaced:
    the sorted inputs and the sorted label-1 inputs are each searched for
    every threshold.  Any other task takes its one-trial sample_emp_risk.
    """
    from pacbayes.oracle_lab import ThresholdMarginTask

    rows = []
    for rng in rngs:
        if isinstance(task, ThresholdMarginTask):
            x, y = task._sample_xy(n, rng)
            ones = x[y]
            k = np.sort(x).searchsorted(task.thresholds)
            below = np.sort(ones).searchsorted(task.thresholds)
            rows.append(((n - k) - (ones.size - below) + below) / n)
        else:
            rows.append(task.sample_emp_risk(n, rng))
    return np.array(rows, dtype=float)


def _build_posterior_loop(rule, pi, r, lam_value, fixed_rho):
    from pacbayes.divergences import DiscreteDistribution
    from pacbayes.posteriors import gibbs_posterior

    if rule == "gibbs":
        return gibbs_posterior(pi, r, lam_value)
    if rule == "erm_dirac":
        return DiscreteDistribution.dirac(r.size, int(np.argmin(r)))
    if rule == "fixed_rho":
        return fixed_rho if fixed_rho is not None else pi
    raise ValueError(f"unknown posterior rule {rule!r}")


def violation_experiment_loop(task, bound_id, posterior_rule, n, eps, trials, seed, *,
                              lam="closed_form", xi=0.0, pi=None, fixed_rho=None,
                              corruption=1.0):
    """oracle_lab.violation_experiment one trial at a time.

    The loop the laboratory ran before its blocked pass: each trial builds
    its posterior through the scalar path (gibbs_posterior, a Dirac, or
    fixed_rho) and runs its own minimize_bound_grid for lambda_grid.
    """
    from pacbayes import bounds
    from pacbayes._util import child_rng
    from pacbayes.divergences import DiscreteDistribution, _kl_log_prior, _safe_log
    from pacbayes.oracle_lab import ExperimentReport, oracle_bound_rhs
    from pacbayes.posteriors import RiskTable, minimize_bound_grid

    pi = pi or DiscreteDistribution.uniform(task.m)
    R = task.true_risk
    oracle = bound_id == "oracle_probability"
    entry = None if oracle else bounds.BOUND_TABLE[bound_id]
    C = task.C if math.isfinite(task.C) else 1.0
    kind = "free" if oracle else entry.lam_kind
    lam_value = None
    if kind == "free" or (posterior_rule == "gibbs" and kind != "grid"):
        lam_value = bounds.resolve_lambda(lam, math.log(task.m), n, eps, C)
    lam_bound = lam_value if kind == "free" else (
        None if lam in (None, "closed_form") else float(lam))
    if oracle:
        oracle_value = oracle_bound_rhs(task, pi, lam_value, "probability", n=n, eps=eps)
    if kind == "grid":
        grid = bounds.lambda_grid_geometric(n)
    logpi = _safe_log(pi.weights)

    rows = []
    for t in range(trials):
        r = task.sample_emp_risk(n, child_rng(seed, t))
        if kind == "grid":
            rho, cert = minimize_bound_grid(pi, RiskTable(r, n, C), grid, eps)
            value = cert.value
        else:
            rho = _build_posterior_loop(posterior_rule, pi, r, lam_value, fixed_rho)
            if oracle:
                value = oracle_value
            else:
                data = bounds.BoundData(r, n, eps, C, prior=pi, xi=xi,
                                        kappa=getattr(task, "kappa", None))
                emp, kl = float(np.dot(rho.weights, r)), _kl_log_prior(rho.weights, logpi)
                value = entry.certify(data, rho, emp, kl, lam_bound).value
        true = float(np.dot(rho.weights, R))
        corrupted = corruption * value
        rows.append({
            "n": n,
            "seed": seed,
            "excess_risk": true - task.risk_star,
            "bound_value": corrupted,
            "violated": bool(true > corrupted),
        })
    violations = sum(row["violated"] for row in rows)
    rate = violations / trials
    return ExperimentReport(
        trials=trials,
        violations=violations,
        violation_rate=rate,
        se=math.sqrt(rate * (1.0 - rate) / trials),
        mean_bound=float(np.mean([row["bound_value"] for row in rows])),
        mean_true_risk=float(np.mean([row["excess_risk"] + task.risk_star for row in rows])),
        rows=rows,
        details={"bound_id": bound_id, "posterior_rule": posterior_rule, "eps": eps,
                 "lambda": lam_value, "corruption": corruption},
    )


def rate_experiment_loop(task, n_grid, reps, seed, *, rule="fast", eps=0.05, K=None, pi=None):
    """oracle_lab.rate_experiment one rep at a time.

    The loop the laboratory ran before its matrix pass: each rep's log Gibbs
    weights and log excess risk are one vector call each.
    """
    from pacbayes import bounds
    from pacbayes._util import child_rng
    from pacbayes.divergences import DiscreteDistribution, _log_gibbs, _logsumexp, _safe_log
    from pacbayes.oracle_lab import ExperimentReport, estimate_bernstein_constant

    n_grid = [int(v) for v in n_grid]
    pi = pi or DiscreteDistribution.uniform(task.m)
    C = task.C
    if rule == "fast" and K is None:
        K = estimate_bernstein_constant(task).K
    logpi = _safe_log(pi.weights)
    others = np.flatnonzero(np.arange(task.m) != task.theta_star)
    log_gaps = _safe_log(task.gaps[others]) if others.size else None

    rows = []
    log_means = []
    for i, n in enumerate(n_grid):
        lam = (n / max(2.0 * K, C) if rule == "fast"
               else bounds.select_lambda_closed_form(math.log(task.m), n, eps, C))
        log_excess = []
        for rep in range(reps):
            r = task.sample_emp_risk(n, child_rng(seed, i, rep))
            logw = _log_gibbs(logpi, -lam * r)
            log_excess.append(-math.inf if log_gaps is None
                              else _logsumexp(logw[others] + log_gaps))
        if all(math.isinf(v) for v in log_excess):
            log_mean = -math.inf
        else:
            log_mean = _logsumexp(log_excess) - math.log(reps)
        log_means.append(log_mean)
        rows.append({
            "n": n,
            "seed": seed,
            "excess_risk": math.exp(log_mean) if math.isfinite(log_mean) else 0.0,
            "bound_value": math.nan,
            "violated": math.nan,
        })
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
