"""The benchmark's workloads: seeded inputs, op mixes and output checks.

An op is the unit one latency sample times.  Each workload builds its
inputs from the seed and returns a fixed list of ops that the runner cycles
through in a closed loop.  ``Op.call`` is the timed part: one CLI process,
or one call into the library.  ``Op.render`` runs untimed after it: it turns
the result into the text a user would see (or a canonical JSON rendering of
a library result), checks the invariants, and returns that text with the
numbers the reference check compares.  A broken invariant raises
``CheckFailed``.

The benchmark calls the library through module attributes
(``oracle_lab.violation_experiment``, not a name imported at load time), so
the traced run's shims see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pacbayes import bounds, cli, divergences, oracle_lab, posteriors
from probes import child_env

#: Certificates must decompose exactly; see ``bounds.Certificate``.
TERMS_TOL = 1e-12


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's invariants."""


@dataclass
class Op:
    """One entry of a workload's mix.

    units/unit count the work inside the call: violation trials ("trial"),
    rate reps ("rep"), optimizer iterations ("iter") or EWA rounds
    ("round").  Trials and reps feed ``trials_per_s``; all of them feed the
    per-unit layer metrics of the traced run.  ``tag`` names the bound of a
    violation op.
    """

    name: str
    call: Callable[[], object]
    render: Callable[[object], tuple[str, dict]]
    units: int = 0
    unit: str = ""
    tag: str = ""


@dataclass
class Workload:
    name: str
    ops: list
    input_bytes: int
    inputs: dict = field(default_factory=dict)


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def write_json(path: Path, doc) -> int:
    text = json.dumps(doc)
    path.write_text(text)
    return len(text)


def cert_doc(cert: bounds.Certificate) -> dict:
    return {"bound": cert.bound_id, "value": cert.value, "terms": dict(cert.terms),
            "vacuous": cert.vacuous, "lambda": cert.lam}


def check_certificate(doc: dict, C: float) -> None:
    """Terms sum to the value and the vacuous flag matches value >= C."""
    value = doc["value"]
    check(math.isfinite(value), f"{doc['bound']}: value {value!r} is not finite")
    total = math.fsum(doc["terms"].values())
    check(abs(total - value) <= TERMS_TOL * max(1.0, abs(value)),
          f"{doc['bound']}: terms sum to {total!r}, value is {value!r}")
    check(doc["vacuous"] == (value >= C),
          f"{doc['bound']}: vacuous={doc['vacuous']} but value={value!r}, C={C!r}")


def check_ranked(docs: list, C: float) -> None:
    for doc in docs:
        check_certificate(doc, C)
    values = [d["value"] for d in docs]
    check(values == sorted(values), "compare results are not sorted by value")


def violation_limit(eps: float, trials: int) -> float:
    """eps plus three binomial standard errors: the acceptance line for a rate."""
    return eps + 3.0 * math.sqrt(eps * (1.0 - eps) / trials)


def as_json(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# cli_roundtrip: one fresh `pacbayes` process per op
# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from pacbayes.cli import main; sys.exit(main())"


def subprocess_cli(src: Path) -> Callable:
    """Run the console entry point in a fresh interpreter, as a user would."""
    env = child_env(src)

    def run(argv):
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                              capture_output=True, text=True, env=env, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def in_process_cli(argv):
    """Run ``cli.main`` in this process with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_roundtrip(seed: int, workdir: Path, run_cli: Callable) -> Workload:
    """Certify, compare, violate and rates on small task files, plus two errors."""
    rng = np.random.default_rng(seed)
    size = 0

    m = 100  # the reference instance: 100 classifiers, best empirical risk 0.26
    emp = np.sort(rng.uniform(0.26, 0.8, m))
    emp[0] = 0.26
    ref = workdir / "reference_instance.json"
    size += write_json(ref, {"schema": 1, "n": 1000, "eps": 0.05, "C": 1.0,
                             "prior": [1.0 / m] * m, "emp_risk": emp.tolist()})
    bad = workdir / "bad_prior.json"  # prior sums to 0.9: documented exit 2
    size += write_json(bad, {"schema": 1, "n": 1000, "eps": 0.05, "C": 1.0,
                             "prior": [0.9 / m] * m, "emp_risk": emp.tolist()})

    gen_eps = 0.1  # the 20-hypothesis risk-table instance, with a generative task
    p = np.sort(rng.uniform(0.3, 0.6, 20))
    gen = workdir / "risk_table_instance.json"
    size += write_json(gen, {"schema": 1, "n": 500, "eps": gen_eps, "C": 1.0,
                             "prior": [0.05] * 20, "emp_risk": [0.4] * 20,
                             "task": {"kind": "risk_table", "p": p.tolist()}})

    n, k = 40, 8  # per-example losses and a variance bound: truncated, chi_square
    losses = (rng.random((n, k)) < rng.uniform(0.2, 0.6, k)).astype(float)
    small = workdir / "losses_instance.json"
    size += write_json(small, {"schema": 1, "n": n, "eps": 0.05, "C": 1.0,
                               "prior": [1.0 / k] * k,
                               "emp_risk": losses.mean(axis=0).tolist(),
                               "losses": losses.tolist(), "kappa": 0.25})

    exp_seed = str(seed)
    violate_out = workdir / "violate.csv"
    rates_out = workdir / "rates.csv"
    trials, reps, grid = 200, 50, "100,200,400,800,1600"

    def call(argv, out=None):
        def go():
            code, stdout, stderr = run_cli([str(a) for a in argv])
            return code, stdout, stderr, out.read_text() if out is not None and code == 0 else ""
        return go

    def expect(code, res):
        check(res[0] == code, f"exit code {res[0]}, expected {code}: {res[2].strip()[-200:]}")

    def certificate(res):
        expect(0, res)
        doc = json.loads(res[1])
        check_certificate(doc, 1.0)
        return res[1], {"values": [doc["value"]]}

    def compare(res):
        expect(0, res)
        doc = json.loads(res[1])
        check_ranked(doc["results"], 1.0)
        check(doc["tightest"] == doc["results"][0]["bound"], "tightest is not the first result")
        return res[1], {"values": [r["value"] for r in doc["results"]]}

    def violate(res):
        expect(0, res)
        rows = [line for line in res[3].splitlines()[1:] if not line.startswith("#")]
        check(len(rows) == trials, f"{len(rows)} CSV rows for {trials} trials")
        fields = dict(kv.split("=", 1) for kv in res[1].splitlines()[1][2:].split())
        rate, violations = float(fields["violation_rate"]), int(fields["violations"])
        check(rate <= violation_limit(gen_eps, trials), f"seeger violation rate {rate}")
        return res[1] + res[3], {"values": [float(fields["mean_bound"])], "counts": [violations]}

    def rates(res):
        expect(0, res)
        slope = res[1].splitlines()[1].split("slope=", 1)[1]
        check(slope != "NA" and math.isfinite(float(slope)), f"rates slope {slope}")
        return res[1] + res[3], {"values": [float(slope)]}

    def error(code):
        def render(res):
            expect(code, res)
            return f"{res[0]}\n{res[2]}", {"counts": [res[0]]}
        return render

    def certify(path, bound, *flags):
        return call(["certify", path, "--bound", bound, *flags])

    ops = [
        Op("certify.union_finite", certify(ref, "union_finite"), certificate),
        Op("certify.seeger", certify(ref, "seeger"), certificate),
        Op("certify.catoni_linear", certify(ref, "catoni_linear", "--posterior", "dirac:0",
                                            "--lambda", "closed_form"), certificate),
        Op("certify.lambda_grid", certify(ref, "lambda_grid"), certificate),
        Op("certify.truncated", certify(small, "truncated", "--lambda", "10"), certificate),
        Op("certify.localized_empirical", certify(ref, "localized_empirical", "--lambda", "5",
                                                  "--xi", "0.5"), certificate),
        Op("certify.chi_square", certify(small, "chi_square"), certificate),
        Op("compare", call(["compare", ref]), compare),
        Op("violate.seeger", call(["violate", gen, "--bound", "seeger", "--trials", trials,
                                   "--seed", exp_seed, "--out", violate_out], violate_out),
           violate, units=trials, unit="trial", tag="seeger"),
        Op("rates", call(["rates", gen, "--n-grid", grid, "--reps", reps, "--seed", exp_seed,
                          "--out", rates_out], rates_out),
           rates, units=5 * reps, unit="rep"),
        Op("error.schema_prior_sum", certify(bad, "union_finite"), error(2)),
        Op("error.semantic_chi_square_no_kappa", certify(ref, "chi_square"), error(3)),
    ]
    return Workload("cli_roundtrip", ops, size)


# ---------------------------------------------------------------------------
# mc_lab: small-M Monte Carlo and oracle evaluations, in process
# ---------------------------------------------------------------------------


def report_render(eps: float):
    """Render a violation_experiment report; every bound here is uncorrupted."""

    def render(rep):
        check(rep.violation_rate <= violation_limit(eps, rep.trials),
              f"{rep.details['bound_id']}: violation rate {rep.violation_rate}")
        doc = {"violations": rep.violations, "violation_rate": rep.violation_rate,
               "se": rep.se, "mean_bound": rep.mean_bound, "mean_true_risk": rep.mean_true_risk,
               "rows": hashlib.sha256(as_json(rep.rows).encode()).hexdigest()[:16]}
        return as_json(doc), {"values": [rep.mean_bound], "counts": [rep.violations]}

    return render


def render_rates(rep):
    check(rep.slope is not None and math.isfinite(rep.slope), f"rate slope {rep.slope}")
    doc = {"slope": rep.slope, "log_mean_excess": rep.details["log_mean_excess"]}
    return as_json(doc), {"values": [rep.slope]}


def render_scalars(result):
    """Render a float or tuple of floats, each required finite and >= 0."""
    values = [float(v) for v in np.atleast_1d(result)]
    check(all(math.isfinite(v) and v >= 0 for v in values), f"bad values {values}")
    return as_json(values), {"values": values}


def render_cert(cert):
    doc = cert_doc(cert)
    check_certificate(doc, 1.0)
    return as_json(doc), {"values": [doc["value"]]}


def render_gaussian(result):
    gauss, cert = result
    text, summary = render_cert(cert)
    return text + digest(gauss.mean), summary


def ewa_render(rounds: int):
    """Regret within C sqrt(T log(M) / 2), the bound at the horizon-tuned eta (C = 1)."""

    def render(result):
        state, regret = result
        limit = math.sqrt(rounds * math.log(state.cum_best.size) / 2.0)
        check(regret <= limit, f"EWA regret {regret!r} exceeds {limit!r}")
        return as_json([regret, state.cum_loss]), {"values": [regret]}

    return render


def render_localized(res):
    check(res.value <= res.closed_form + 1e-12,
          f"localized value {res.value!r} exceeds its closed form {res.closed_form!r}")
    values = [res.value, res.closed_form]
    return as_json(values), {"values": values}


def render_bernstein(est):
    check(est.K > 0 and math.isfinite(est.K), f"Bernstein constant {est.K}")
    return as_json(est.K), {"values": [est.K]}


def render_moment(rep):
    check(rep.hoeffding_ok and rep.bernstein_ok, "exponential-moment inequality failed")
    values = [row["mgf_hat"] for row in rep.rows]
    return as_json(values), {"values": values}


def mc_lab(seed: int, workdir: Path) -> Workload:
    """Every violation-testable bound, rates, pi-dimension and oracle RHS at M <= 41."""
    rng = np.random.default_rng(seed)
    p = np.sort(rng.uniform(0.3, 0.6, 20))
    risk = oracle_lab.make_synthetic_task("risk_table", {"p": p.tolist()}, seed)
    margin = oracle_lab.make_synthetic_task(
        "threshold_margin",
        {"tau": 0.2, "grid_size": 41, "star_index": int(rng.integers(10, 31))}, seed)
    heavy = oracle_lab.make_synthetic_task(
        "heavy_tail", {"means": np.sort(rng.uniform(0.5, 0.9, 20)).tolist(), "sds": 0.5,
                       "tail_shape": 2.5}, seed)
    moment_p = float(rng.uniform(0.1, 0.9))
    pi20 = divergences.DiscreteDistribution.uniform(20)
    pi41 = divergences.DiscreteDistribution.uniform(41)
    K_margin = 1.0 / (2.0 * margin.tau)
    n, eps, trials, reps = 500, 0.05, 100, 50
    grid = [100, 200, 400, 800, 1600]

    def violation(bound_id, rule, task=risk, n=n, eps=eps, **kw):
        return Op(f"violation.{bound_id}.{rule}.{task.kind}",
                  lambda: oracle_lab.violation_experiment(task, bound_id, rule, n, eps,
                                                          trials, seed, **kw),
                  report_render(eps), units=trials, unit="trial", tag=bound_id)

    def rates(task, rule):
        return Op(f"rates.{rule}.{task.kind}",
                  lambda: oracle_lab.rate_experiment(task, grid, reps, seed, rule=rule, eps=eps),
                  render_rates, units=len(grid) * reps, unit="rep")

    ops = [
        violation("union_finite", "erm_dirac"),
        violation("catoni_linear", "gibbs"),
        violation("lambda_grid", "gibbs"),
        violation("mcallester", "gibbs"),
        violation("seeger", "gibbs"),
        violation("tolstikhin_seldin", "gibbs"),
        violation("thiemann", "gibbs", lam=1.0),
        violation("catoni_phi", "gibbs"),
        violation("subgaussian", "gibbs"),
        violation("chi_square", "fixed_rho", task=heavy, n=300, eps=0.1),
        violation("localized_empirical", "gibbs", lam=5.0, xi=0.5),
        violation("oracle_probability", "gibbs", lam=100.0),
        violation("seeger", "gibbs", task=margin),
        rates(margin, "fast"),
        rates(risk, "slow"),
        rates(margin, "slow"),
        Op("pi_dimension.risk_table",
           lambda: oracle_lab.pi_dimension(pi20, risk.true_risk, 1.0), render_scalars),
        Op("pi_dimension.threshold_margin",
           lambda: oracle_lab.pi_dimension(pi41, margin.true_risk, 1.0), render_scalars),
        Op("oracle_bound_rhs.expectation",
           lambda: oracle_lab.oracle_bound_rhs(risk, pi20, 100.0, "expectation", n=n),
           render_scalars),
        Op("oracle_bound_rhs.probability",
           lambda: oracle_lab.oracle_bound_rhs(risk, pi20, 100.0, "probability", n=n, eps=eps),
           render_scalars),
        Op("oracle_bound_rhs.fast",
           lambda: oracle_lab.oracle_bound_rhs(margin, pi41, None, "fast", n=n),
           render_scalars),
        Op("localized_oracle_rhs",
           lambda: oracle_lab.localized_oracle_rhs(margin, pi41, K_margin, n), render_localized),
        Op("bernstein.statistical",
           lambda: oracle_lab.estimate_bernstein_constant(margin, "statistical", 20_000, seed),
           render_bernstein),
        Op("bernstein.exact", lambda: oracle_lab.estimate_bernstein_constant(margin),
           render_bernstein),
        Op("exponential_moment",
           lambda: oracle_lab.verify_exponential_moment(
               {"kind": "bernoulli", "p": moment_p, "n": 10}, [0.1, 0.5, 1.0, 2.0], 20_000, seed),
           render_moment),
    ]
    return Workload("mc_lab", ops, 8 * (p.size + 41 + 2 * 20))


# ---------------------------------------------------------------------------
# wide_class: the same layers on large inputs
# ---------------------------------------------------------------------------


def wide_class(seed: int, workdir: Path) -> Workload:
    """A 1e5-hypothesis task file, M=1e4 pi-dimension, n x M sampling, BLAS and EWA."""
    rng = np.random.default_rng(seed)
    M, n, eps = 100_000, 10_000, 0.05
    emp = rng.integers(1000, 6001, M) / n
    emp[int(rng.integers(M))] = 0.05
    path = workdir / "wide_task.json"
    size = write_json(path, {"schema": 1, "n": n, "eps": eps, "C": 1.0, "kappa": 0.25,
                             "log_prior_mass": rng.normal(0.0, 1.0, M).tolist(),
                             "emp_risk": emp.tolist()})
    task = cli.load_task_file(str(path))
    pi = cli._prior_distribution(task)
    lam = bounds.select_lambda_closed_form(math.log(M), n, eps)
    gibbs = posteriors.gibbs_posterior(pi, task["emp_risk"], lam)
    dirac = divergences.DiscreteDistribution.dirac(M, int(np.argmin(emp)))
    lam_grid = bounds.lambda_grid_geometric(n)

    M4 = 10_000
    pi4 = divergences.DiscreteDistribution.from_weights(rng.random(M4) + 0.1)
    risk4 = rng.uniform(0.1, 0.6, M4)
    risk4[int(rng.integers(M4))] = 0.05

    margin = oracle_lab.make_synthetic_task("threshold_margin", {"tau": 0.2, "grid_size": 1001},
                                            seed)
    pi1001 = divergences.DiscreteDistribution.uniform(1001)
    n_margin, trials = 5000, 50

    n_log, d = 4000, 50
    x = rng.normal(size=(n_log, d))
    y = np.where(x @ rng.normal(size=d) + rng.normal(size=n_log) > 0, 1.0, -1.0)
    surrogate = posteriors.LogisticSurrogate(x, y)
    iters = 200
    cfg = posteriors.VariationalConfig(max_iters=iters, split_fraction=0.5, seed=seed)

    T, E = 5000, 1000
    ewa_losses = rng.random((T, E))
    eta = posteriors.ewa_eta_theorem(E, T)
    pi_e = divergences.DiscreteDistribution.uniform(E)
    size += x.nbytes + y.nbytes + ewa_losses.nbytes + risk4.nbytes + pi4.weights.nbytes

    def render_task(t):
        check(t["emp_risk"].size == M and t["log_prior"].size == M, "task file lost entries")
        values = [float(t["emp_risk"].min()), float(t["log_prior"].max())]
        return digest(t["emp_risk"], t["log_prior"]), {"values": values}

    def render_compare(certs):
        docs = [cert_doc(c) for c in certs]
        check_ranked(docs, 1.0)
        return as_json(docs), {"values": [d["value"] for d in docs]}

    def render_grid(result):
        return render_cert(result[1])

    def evaluate(bound_id, rho=gibbs, lam=lam, xi=0.0, label="gibbs"):
        return Op(f"evaluate_bound.{bound_id}.{label}",
                  lambda: cli.evaluate_bound(task, bound_id, rho, lam, xi=xi), render_cert)

    def violation(bound_id):
        return Op(f"violation.{bound_id}.threshold_margin",
                  lambda: oracle_lab.violation_experiment(margin, bound_id, "gibbs", n_margin,
                                                          eps, trials, seed),
                  report_render(eps), units=trials, unit="trial", tag=bound_id)

    def oracle(variant, lam=None):
        return Op(f"oracle_bound_rhs.{variant}",
                  lambda: oracle_lab.oracle_bound_rhs(margin, pi1001, lam, variant, n=n_margin,
                                                      eps=eps),
                  render_scalars)

    ops = [
        Op("load_task_file", lambda: cli.load_task_file(str(path)), render_task),
        Op("compare_bounds", lambda: cli.compare_bounds(task), render_compare),
        evaluate("union_finite"),
        evaluate("catoni_linear"),
        evaluate("mcallester"),
        evaluate("seeger"),
        evaluate("tolstikhin_seldin"),
        evaluate("thiemann", lam=1.0),
        evaluate("catoni_phi"),
        evaluate("subgaussian"),
        evaluate("lambda_grid"),
        evaluate("chi_square"),
        evaluate("localized_empirical", lam=5.0, xi=0.5),
        evaluate("seeger", rho=dirac, label="erm_dirac"),
        evaluate("mcallester", rho=dirac, label="erm_dirac"),
        Op("minimize_bound_grid",
           lambda: posteriors.minimize_bound_grid(pi, task["risk_table"], lam_grid, eps),
           render_grid),
        Op("pi_dimension", lambda: oracle_lab.pi_dimension(pi4, risk4, 1.0), render_scalars),
        violation("seeger"),
        violation("catoni_linear"),
        oracle("fast"),
        oracle("expectation", lam=500.0),
        oracle("probability", lam=500.0),
        Op("localized_oracle_rhs",
           lambda: oracle_lab.localized_oracle_rhs(margin, pi1001, 1.0 / (2.0 * margin.tau),
                                                   n_margin),
           render_localized),
        Op("optimize_gaussian_posterior",
           lambda: posteriors.optimize_gaussian_posterior(surrogate, 1.0, cfg, lam=1000.0,
                                                          eps=eps),
           render_gaussian, units=iters, unit="iter"),
        Op("ewa_run", lambda: posteriors.ewa_run(ewa_losses, eta, pi_e), ewa_render(T),
           units=T, unit="round"),
    ]
    return Workload("wide_class", ops, size, {"task_file": path})


def posterior_probe(seed: int) -> Workload:
    """Small optimizer and EWA calls, for the traced run's probe pass."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(400, 5))
    y = np.where(x @ rng.normal(size=5) > 0, 1.0, -1.0)
    surrogate = posteriors.LogisticSurrogate(x, y)
    iters, T, E = 50, 500, 20
    cfg = posteriors.VariationalConfig(max_iters=iters, split_fraction=0.5, seed=seed)
    losses = rng.random((T, E))
    eta = posteriors.ewa_eta_theorem(E, T)
    pi = divergences.DiscreteDistribution.uniform(E)
    ops = [
        Op("optimize_gaussian_posterior",
           lambda: posteriors.optimize_gaussian_posterior(surrogate, 1.0, cfg, lam=100.0, eps=0.05),
           render_gaussian, units=iters, unit="iter"),
        Op("ewa_run", lambda: posteriors.ewa_run(losses, eta, pi), ewa_render(T),
           units=T, unit="round"),
    ]
    return Workload("posterior_probe", ops, x.nbytes + losses.nbytes)


def build(name: str, seed: int, workdir: Path, src: Path, in_process: bool = False) -> Workload:
    """Generate a workload's inputs under ``workdir`` and return its op mix.

    ``in_process`` runs the CLI workload through ``cli.main`` in this
    process (the traced run and ``cli.main_ms``) instead of one fresh
    interpreter per op.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cli_roundtrip":
        return cli_roundtrip(seed, workdir, in_process_cli if in_process else subprocess_cli(src))
    if name == "mc_lab":
        return mc_lab(seed, workdir)
    if name == "wide_class":
        return wide_class(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
