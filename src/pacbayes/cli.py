"""Command-line front end.

Four subcommands drive the library on JSON task files and emit
machine-readable reports:

  certify   evaluate one bound for one posterior -> JSON certificate
  compare   evaluate every applicable bound at its best in-catalog
            configuration -> sorted JSON table
  violate   Monte Carlo violation experiment on a generative task -> CSV
  rates     excess-risk rate measurement over an n-grid -> CSV

The laboratory (``oracle_lab``) is imported only by the commands that run
it, violate and rates.

Exit codes: 0 success, 2 schema violation (malformed file or flags, with a
field diagnostic), 3 semantic mismatch (e.g. a bound whose required inputs
are absent).  The rule between them: a check on a named field or flag exits
2, and exit 3 is any ValueError that no field-named check claimed, raised by
the library or by this module.  The task file's n/eps/C, emp_risk, losses,
kappa and log_M rules are the library's, read through _checked.  A reader
that closes stdout early (``pacbayes compare F | head -3``) gives exit 1,
as Python itself does on a broken pipe, with no traceback.

All randomness flows from --seed.  Certificates are strict JSON with
full-precision floats (17 significant digits round-trip) and null for a
non-finite value (an infinite certificate or lambda); experiments are CSV
with one row per trial plus '#'-prefixed summary lines.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import bounds
from .bounds import Certificate
from .divergences import DiscreteDistribution, _gibbs_family, _kl_log_prior, _logsumexp, _safe_log
from .posteriors import RiskTable, gibbs_posterior

SCHEMA_VERSION = 1

#: The top-level fields of a task file; any other key is refused.
_TASK_FILE_FIELDS = ("schema", "n", "eps", "C", "emp_risk", "prior", "log_prior_mass", "losses",
                    "kappa", "log_M", "task")


class SchemaError(Exception):
    """Task-file or flag contents violate the schema (exit 2)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# Task files
# ---------------------------------------------------------------------------


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise SchemaError(field, message)


def _checked(field: Optional[str], check, *args):
    """check(*args), a library check, with its ValueError as a SchemaError on
    field; field None names the parameter the library's message opens with."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SchemaError(field or str(exc).split(None, 1)[0], str(exc))


def load_task_file(path: str) -> dict:
    """Parse and validate a JSON task file.

    Returns a dict with numpy arrays for vector fields, plus derived
    entries: "log_prior" (normalized log prior masses) when a prior is
    expressible, and "risk_table" when emp_risk is present.  A key outside
    _TASK_FILE_FIELDS is refused; the parameters of the "task" object are
    checked against its kind when violate or rates builds it.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("file", f"no such file: {path}")
    except OSError as exc:  # a directory, say
        raise SchemaError("file", f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise SchemaError("file", "top-level JSON value must be an object")
    for key in raw:
        _require(key in _TASK_FILE_FIELDS, key,
                 "unknown field; a task file takes " + ", ".join(_TASK_FILE_FIELDS))

    out = {"schema": raw.get("schema", 1)}
    _require(out["schema"] == SCHEMA_VERSION, "schema", f"expected {SCHEMA_VERSION}")

    def scalar(name):
        """The JSON number raw[name] (no bool or string) as a float."""
        v = raw[name]
        _require(type(v) is float or (type(v) is int and abs(v) < 2**1023), name,
                 "must be a number in float range")
        return float(v)

    for name in ("n", "eps", "C"):
        _require(name in raw, name, "required field is missing")
        out[name] = scalar(name)
    _checked(None, bounds._check_inputs, out["n"], out["eps"], out["C"])
    out["n"] = int(out["n"])

    def vector(name):
        v = raw.get(name)
        if v is None:
            return None
        try:
            arr = np.asarray(v, dtype=float)
        except (TypeError, ValueError):
            raise SchemaError(name, "must be an array of numbers")
        _require(arr.ndim == 1 and arr.size > 0, name, "must be a nonempty 1-D array")
        _require(bool(np.all(np.isfinite(arr))), name, "entries must be finite")
        return arr

    emp = vector("emp_risk")
    prior = vector("prior")
    log_prior_mass = vector("log_prior_mass")

    lengths = {name: a.size for name, a in
               (("emp_risk", emp), ("prior", prior), ("log_prior_mass", log_prior_mass))
               if a is not None}
    if len(set(lengths.values())) > 1:
        raise SchemaError("/".join(lengths), f"array lengths disagree: {lengths}")

    if prior is not None:
        _require(bool(np.all(prior >= 0)), "prior", "entries must be nonnegative")
        _require(abs(float(prior.sum()) - 1.0) <= 1e-9, "prior",
                 f"must sum to 1 within 1e-9, got {prior.sum()!r}")
        out["log_prior"] = _safe_log(prior)
    elif log_prior_mass is not None:
        # a mass that underflows to 0 has log mass -inf, not a warning
        with np.errstate(over="ignore"):
            out["log_prior"] = log_prior_mass - _logsumexp(log_prior_mass)
    else:
        out["log_prior"] = None

    losses = raw.get("losses")
    _require(emp is not None or losses is None, "losses",
             "needs the emp_risk field, whose values its column means must reproduce")
    if losses is not None:
        try:
            losses = np.asarray(losses, dtype=float)
        except (TypeError, ValueError):
            raise SchemaError("losses", "must be a numeric matrix")
    # RiskTable checks the emp_risk range and the losses shape, range and means
    out["risk_table"] = None if emp is None else _checked(None, RiskTable, emp, out["n"],
                                                          out["C"], losses)
    out["emp_risk"] = emp

    out["kappa"] = scalar("kappa") if "kappa" in raw else None
    if out["kappa"] is not None:
        _checked("kappa", bounds._check_kappa, out["kappa"])
    out["log_M"] = scalar("log_M") if "log_M" in raw else None
    if out["log_M"] is not None:
        _checked("log_M", bounds._check_kl, out["log_M"])

    task_spec = raw.get("task")
    if task_spec is not None:
        _require(isinstance(task_spec, dict), "task", "must be an object")
        _require("kind" in task_spec, "task.kind", "required field is missing")
    out["task"] = task_spec
    return out


def _log_prior(task: dict) -> np.ndarray:
    if task["log_prior"] is None:
        raise ValueError("this operation needs a prior ('prior' or 'log_prior_mass')")
    return task["log_prior"]


def _prior_distribution(task: dict) -> DiscreteDistribution:
    return DiscreteDistribution.from_weights(np.exp(_log_prior(task)))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _resolve_posterior(task: dict, spec: str, lam_flag: Optional[str]):
    """Build (rho, lam) from the --posterior and --lambda flags."""
    emp = task["emp_risk"]
    m = emp.size
    if spec == "gibbs":
        # a-priori pick: the closed-form minimizer at the Dirac complexity
        # log M, independent of the data
        lam = bounds.resolve_lambda(lam_flag, math.log(m), task["n"], task["eps"], task["C"])
        return gibbs_posterior(_prior_distribution(task), emp, lam), lam
    if spec.startswith("dirac:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise SchemaError("--posterior", "dirac index must be an integer")
        rho = _checked("--posterior", DiscreteDistribution.dirac, m, k)
    elif spec.startswith("weights:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path) as fh:
                w = np.asarray(json.load(fh), dtype=float)
        except FileNotFoundError:
            raise SchemaError("--posterior", f"no such weights file: {path}")
        except OSError as exc:
            raise SchemaError("--posterior", f"cannot read weights file {path}: {exc.strerror}")
        except (json.JSONDecodeError, TypeError, ValueError):
            raise SchemaError("--posterior", "weights file must be a JSON number array")
        _require(w.ndim == 1 and w.size == m, "--posterior",
                 f"weights length must be {m}")
        rho = _checked("--posterior", DiscreteDistribution.from_weights, w)
    else:
        raise SchemaError("--posterior", f"unknown posterior spec {spec!r}")
    kl = _kl_log_prior(rho.weights, _log_prior(task))
    return rho, bounds.resolve_lambda(lam_flag, kl, task["n"], task["eps"], task["C"])


def _bound_data(task: dict, prior, xi: float) -> bounds.BoundData:
    """The BoundData of a task."""
    rt = task.get("risk_table")
    return bounds.BoundData(task["emp_risk"], task["n"], task["eps"], task["C"], prior=prior,
                            kappa=task["kappa"], losses=None if rt is None else rt.losses,
                            log_M=task["log_M"], xi=xi)


def evaluate_bound(task: dict, bound_id: str, rho, lam, xi: float = 0.0) -> Certificate:
    """Evaluate one catalog bound for posterior rho (None for bounds that take none)."""
    entry = _catalog_entry(bound_id)
    emp = kl = None
    if "posterior" in entry.requires and rho is not None:
        emp = float(np.dot(rho.weights, task["emp_risk"]))
        kl = _kl_log_prior(rho.weights, _log_prior(task))
    prior = _prior_distribution(task) if "prior" in entry.requires else None
    return entry.certify(_bound_data(task, prior, xi), rho, emp, kl, lam)


def certificate_json(cert: Certificate) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "bound": cert.bound_id,
        "value": cert.value,
        "terms": dict(cert.terms),
        "vacuous": cert.vacuous,
    }
    if cert.lam is not None:
        doc["lambda"] = cert.lam
    if cert.details:
        doc["details"] = {
            k: v for k, v in cert.details.items() if isinstance(v, (int, float, str, bool))
        }
    return doc


def _finite_or_null(value):
    """value with every non-finite float replaced by None (JSON null), recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit_json(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _catalog_entry(bound_id: str) -> bounds.CatalogEntry:
    if bound_id not in bounds.BOUND_TABLE:
        raise ValueError(f"unknown bound id {bound_id!r}")
    return bounds.BOUND_TABLE[bound_id]


def cmd_certify(args) -> int:
    task = load_task_file(args.task_file)
    entry = _catalog_entry(args.bound)
    rho, lam = None, None
    if ("posterior" in entry.requires and task["emp_risk"] is not None
            and task["log_prior"] is not None):
        rho, lam = _resolve_posterior(task, args.posterior, args.lam)
    cert = evaluate_bound(task, args.bound, rho, entry.run_lambda(args.lam, lam), xi=args.xi)
    doc = certificate_json(cert)
    _emit_json(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_bounds(task: dict, eps: Optional[float] = None) -> list[Certificate]:
    """Every applicable bound at its best in-catalog configuration.

    Candidate posteriors are the Gibbs family on the geometric lambda grid
    plus the Dirac mass at the empirical minimizer; candidates with infinite
    KL are skipped.  Each bound is minimized over the candidates and over
    the lambdas its catalog policy searches, paying the log(card) union
    price over those lambdas by splitting eps; the localized empirical
    bound enters only inside bounds.LOCALIZED_LAMBDA_RANGE, which the
    violation harness does not validate (see there).

    The family is built once.  One pass over its row blocks takes each
    row's E_rho[r], its KL to the task's prior and its KL to pi itself,
    stacked in the family's workspace; lambda_grid is certified from the
    unfiltered grid columns of that pass by bounds.bound_lambda_grid, the
    call minimize_bound_grid ends in, so it keeps that function's bits.
    chi_square and localized_empirical read chi^2 and the localized KL off
    each block in their own values calls.  A bound scores each block at its
    whole search list with one ``CatalogEntry.values`` call; the first
    minimum in (lambda, candidate) order wins, and only it is certified, for
    its terms.
    """
    if eps is not None:
        task = {**task, "eps": eps}
    n, eps, C = task["n"], task["eps"], task["C"]
    emp_vec = task["emp_risk"]
    if emp_vec is None:
        raise ValueError("compare needs the emp_risk field")
    pi = _prior_distribution(task)
    m = emp_vec.size
    logpi = task["log_prior"]
    logpi_w = _safe_log(pi.weights)  # the family's and minimize_bound_grid's log prior
    grid = bounds.lambda_grid_geometric(n)
    family, grid_kl = [], []
    for w, e, (k, k_pi) in _gibbs_family(logpi_w, emp_vec, grid, np.stack([logpi, logpi_w])):
        family.append((w, e, k))
        grid_kl.append(k_pi)
    grid_emp = np.concatenate([e for _, e, _ in family])
    erm = int(np.argmin(emp_vec))
    dirac = DiscreteDistribution.dirac(m, erm).weights[None, :]
    family.append((dirac, emp_vec[[erm]], np.array([_kl_log_prior(dirac[0], logpi)])))
    # the candidates stay in the row blocks _gibbs_family yields, then the ERM
    # Dirac, with infinite-KL candidates dropped: at M = 1e5 one matrix of
    # them all is an 8.8 MB heap chunk that stayed resident after compare
    # and raised the benchmark's peak RSS by as much
    blocks = [b if keep.all() else tuple(x[keep] for x in b)
              for b in family for keep in [~np.isinf(b[2])] if keep.any()]
    rows = [row for w, _, _ in blocks for row in w]
    emp, kl = (np.concatenate([b[i] for b in blocks]) for i in (1, 2))
    data = _bound_data(task, pi, bounds.LOCALIZED_XI_DEFAULT)

    results = []
    for entry in bounds.BOUND_TABLE.values():
        lams = entry.search(n, m, eps, C)
        if not lams or entry.missing(data, rows):
            continue
        if not (eps / len(lams) > 0):
            raise ValueError(f"eps = {eps!r} split over the {len(lams)} lambdas that "
                             f"{entry.bound_id} searches underflows to 0")
        # one BoundData per bound at its priced eps, so its values calls share
        # the truncated risks of each lambda and the localized prior
        priced = replace(data, eps=eps / len(lams))
        if entry.lam_kind == "grid":
            entries = list(zip(grid.tolist(), grid_emp.tolist(), np.concatenate(grid_kl).tolist()))
            results.append(bounds.bound_lambda_grid(entries, n, priced.eps, C))
            continue
        if "posterior" not in entry.requires:
            results.append(entry.certify(priced))
            continue
        # every candidate at every lambda, one values call per block: row j of
        # scores holds lams[j], so the first minimum in (lambda, candidate)
        # order wins, as min() over the grid takes
        scores = np.hstack([np.atleast_2d(entry.values(priced, w, e, k, lams))
                            for w, e, k in blocks])
        j, i = divmod(int(np.argmin(scores)), len(rows))
        # each row is a checked Gibbs row or the ERM Dirac
        results.append(entry.certify(priced, DiscreteDistribution(rows[i], _checked=True),
                                     float(emp[i]), float(kl[i]), lams[j]))
    results.sort(key=lambda c: c.value)
    return results


def cmd_compare(args) -> int:
    task = load_task_file(args.task_file)
    results = compare_bounds(task, eps=args.eps)
    doc = {
        "schema": SCHEMA_VERSION,
        "eps": args.eps if args.eps is not None else task["eps"],
        "tightest": results[0].bound_id,
        "results": [certificate_json(c) for c in results],
    }
    _emit_json(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# violate / rates
# ---------------------------------------------------------------------------


def _build_task(task: dict):
    from .oracle_lab import make_synthetic_task

    spec = task["task"]
    if spec is None:
        raise ValueError("this command needs a generative 'task' object")
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return make_synthetic_task(spec["kind"], params, seed=0)
    except KeyError as exc:
        raise SchemaError(f"task.{exc.args[0]}", "required parameter is missing")
    except (TypeError, ValueError) as exc:
        raise SchemaError("task", str(exc))


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(v)
    return str(v)


def _write_csv(rows, summary_lines, out: Optional[str]) -> None:
    buf = io.StringIO()
    buf.write("n,seed,excess_risk,bound_value,violated\n")
    for row in rows:
        buf.write(",".join(_format_cell(row[k])
                           for k in ("n", "seed", "excess_risk", "bound_value", "violated")))
        buf.write("\n")
    for line in summary_lines:
        buf.write("# " + line + "\n")
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write("".join("# " + line + "\n" for line in summary_lines))


def cmd_violate(args) -> int:
    from .oracle_lab import violation_experiment

    task_doc = load_task_file(args.task_file)
    task = _build_task(task_doc)
    eps = args.eps if args.eps is not None else task_doc["eps"]
    report = violation_experiment(
        task,
        args.bound,
        args.posterior_rule,
        task_doc["n"],
        eps,
        args.trials,
        args.seed,
        lam=args.lam,
        xi=args.xi,
        corruption=args.corruption,
    )
    summary = [
        f"schema={SCHEMA_VERSION} command=violate bound={args.bound} "
        f"posterior={args.posterior_rule} eps={eps!r} trials={args.trials} seed={args.seed}",
        f"violation_rate={report.violation_rate!r} se={report.se!r} "
        f"violations={report.violations} mean_bound={report.mean_bound!r}",
    ]
    _write_csv(report.rows, summary, args.out)
    return 0


def _parse_n_grid(text: str):
    from .oracle_lab import validate_geometric_grid

    try:
        grid = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SchemaError("--n-grid", "must be a comma-separated integer list")
    _checked("--n-grid", validate_geometric_grid, grid)
    return grid


def cmd_rates(args) -> int:
    from .oracle_lab import rate_experiment

    task_doc = load_task_file(args.task_file)
    grid = _parse_n_grid(args.n_grid)
    task = _build_task(task_doc)
    eps = args.eps if args.eps is not None else task_doc["eps"]
    report = rate_experiment(
        task, grid, args.reps, args.seed, rule=args.rule, eps=eps
    )
    slope_txt = "NA" if report.slope is None or math.isnan(report.slope) else repr(report.slope)
    summary = [
        f"schema={SCHEMA_VERSION} command=rates rule={args.rule} reps={args.reps} "
        f"seed={args.seed} eps={eps!r}",
        f"slope={slope_txt}",
    ]
    _write_csv(report.rows, summary, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacbayes",
        description="Compute, compare and stress-test PAC-Bayes generalization certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("task_file")
    common.add_argument("--out", default=None)

    certify = sub.add_parser("certify", parents=[common],
                             help="evaluate one bound, emit a JSON certificate")
    certify.add_argument("--bound", required=True)
    certify.add_argument("--lambda", dest="lam", default=None,
                         help="positive float or 'closed_form'")
    certify.add_argument("--posterior", default="gibbs",
                         help="gibbs | dirac:K | weights:FILE")
    certify.add_argument("--xi", type=float, default=0.0,
                         help="localization strength for localized_empirical")
    certify.set_defaults(fn=cmd_certify)

    compare = sub.add_parser("compare", parents=[common], help="evaluate every applicable bound")
    compare.add_argument("--eps", type=float, default=None)
    compare.set_defaults(fn=cmd_compare)

    violate = sub.add_parser("violate", parents=[common],
                             help="Monte Carlo bound-violation experiment")
    violate.add_argument("--bound", required=True)
    violate.add_argument("--posterior-rule", default="gibbs",
                         choices=["gibbs", "erm_dirac", "fixed_rho"])
    violate.add_argument("--lambda", dest="lam", default=None)
    violate.add_argument("--xi", type=float, default=0.0)
    violate.add_argument("--trials", type=int, required=True)
    violate.add_argument("--seed", type=int, default=0)
    violate.add_argument("--eps", type=float, default=None)
    violate.add_argument("--corruption", type=float, default=1.0,
                         help="multiply the bound by this factor (harness sensitivity control)")
    violate.set_defaults(fn=cmd_violate)

    rates = sub.add_parser("rates", parents=[common],
                           help="excess-risk convergence-rate experiment")
    rates.add_argument("--n-grid", required=True,
                       help="comma-separated geometric grid, >= 5 points")
    rates.add_argument("--reps", type=int, default=200)
    rates.add_argument("--rule", choices=["fast", "slow"], default="fast")
    rates.add_argument("--seed", type=int, default=0)
    rates.add_argument("--eps", type=float, default=None)
    rates.set_defaults(fn=cmd_rates)
    return parser


#: Numeric flags with the range each must lie in: attribute -> (flag, test, range).
_FLAG_RANGES = {
    "xi": ("--xi", lambda v: 0 <= v < 1, "[0, 1)"),
    "trials": ("--trials", lambda v: v >= 1, "[1, inf)"),
    "reps": ("--reps", lambda v: v >= 1, "[1, inf)"),
    "corruption": ("--corruption", lambda v: 0 < v < math.inf, "(0, inf)"),
}


def _check_flags(args) -> None:
    """Parse --lambda and range-check the numeric flags before any work."""
    entry = bounds.BOUND_TABLE.get(getattr(args, "bound", None))
    lam, upper = getattr(args, "lam", None), getattr(entry, "lam_upper", math.inf)
    if lam not in (None, "closed_form"):
        try:
            args.lam = float(lam)
            bounds._check_lambda(args.lam, upper)
        except ValueError:
            raise SchemaError("--lambda", f"must be 'closed_form' or a number in (0, {upper:g}), "
                                          f"got {lam!r}")
    _checked("--eps", bounds._check_inputs, 1, getattr(args, "eps", None))  # None: not given
    for attr, (flag, ok, interval) in _FLAG_RANGES.items():
        value = getattr(args, attr, None)
        _require(not isinstance(value, (int, float)) or ok(value), flag,
                 f"must lie in {interval}, got {value!r}")
    posterior = getattr(args, "posterior", "gibbs")
    if entry and posterior != "gibbs" and "posterior" not in entry.requires:
        raise SchemaError("--posterior", f"{entry.bound_id} takes no posterior, got {posterior!r}")
    if entry:
        _checked("--posterior-rule", entry.check_search, getattr(args, "posterior_rule", "gibbs"))
        _checked("--lambda", entry.check_search, "gibbs", args.lam)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a refusal, the library's or this module's, that no field-named check claimed
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the exit's
        # flush of what is left cannot raise again (the Python signal docs' recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
