"""Byte-for-byte CLI outputs on fixed task files.

``golden_cli.json`` holds the exit code, stdout and ``--out`` file of every
case below, recorded with the CLI as it stood before the bound catalog was
gathered into one table (``bounds.BOUND_TABLE``).  The weights_inf cases of
catoni_linear, catoni_phi, subgaussian and localized_empirical were
re-recorded when infinite KL stopped giving them a NaN value, and every case
that printed Infinity or NaN was re-recorded when non-finite values became
null.  The seeger-backed cases were re-recorded when the kl inverse began
rounding up, the localized_empirical cases when KL moved onto log prior
masses, and the lambda_grid and union_finite cases with a posterior other
than gibbs when certify began rejecting one (exit 2).  In their last
digits, the certify.full Gibbs-posterior cases of catoni_linear, catoni_phi
and subgaussian (gibbs, lam_closed_form) and of localized_empirical (gibbs,
lam5_xi0.5) were re-recorded when the discrete KL began summing every
weight's term, zeros included; and certify.full.lambda_grid.gibbs,
compare.full, compare.full.eps0.01 and violate.lambda_grid when the Gibbs
candidates began coming from one blocked row pass, whose E_rho[r] is a
matrix-vector product.  certify.range2.mcallester.{dirac:4,gibbs} and
compare.range2 were re-recorded when the McAllester-Maurer radius began
scaling with C, which at C = 2 it had not, so the certificate was no upper
bound.  certify, compare,
violate and rates must keep producing the same bytes.  Re-record only the cases a deliberate output change touches, naming
them (an unknown id exits non-zero and writes nothing); with no ids every
case is re-recorded:

    PYTHONPATH=src python tests/test_cli_golden.py CASE_ID ...
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pacbayes import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

# Eight hypotheses on n = 60 examples.  Column j of the 0-1 loss matrix is 1
# on exactly 3 * K[j] rows, so emp_risk = K / 20 with its minimum at index 1,
# where the prior puts no mass: every candidate posterior that charges it
# has infinite KL.
K = [5, 3, 7, 9, 11, 6, 13, 15]
LOSSES = [[1.0 if (7 * i + 13 * j) % 20 < k else 0.0 for j, k in enumerate(K)]
          for i in range(60)]
FIXTURES = {
    "full.json": {
        "schema": 1, "n": 60, "eps": 0.05, "C": 1.0, "kappa": 0.25,
        "prior": [0.2, 0.0, 0.1, 0.15, 0.05, 0.2, 0.1, 0.2],
        "emp_risk": [k / 20 for k in K],
        "losses": LOSSES,
    },
    "range2.json": {
        "schema": 1, "n": 400, "eps": 0.05, "C": 2.0,
        "prior": [0.2] * 5, "emp_risk": [0.6, 1.4, 0.9, 1.1, 0.2],
    },
    "log_m.json": {
        "schema": 1, "n": 10000, "eps": 0.05, "C": 1.0,
        "emp_risk": [0.0], "log_M": 1000100 * math.log(2),
    },
    "noiseless.json": {
        "schema": 1, "n": 2000, "eps": 0.05, "C": 1.0, "prior": [0.1] * 10,
        "emp_risk": [0.0] + [0.3 + 0.3 * j / 8 for j in range(9)],
    },
    "generative.json": {
        "schema": 1, "n": 500, "eps": 0.1, "C": 1.0,
        "prior": [0.05] * 20, "emp_risk": [0.4] * 20,
        "task": {"kind": "risk_table", "p": [0.3 + 0.3 * j / 19 for j in range(20)]},
    },
    "heavy.json": {
        "schema": 1, "n": 300, "eps": 0.1, "C": 1.0,
        "task": {"kind": "heavy_tail", "means": [0.5 + 0.02 * j for j in range(12)],
                 "sds": 0.5, "tail_shape": 2.5},
    },
    "rates.json": {
        "schema": 1, "n": 100, "eps": 0.05, "C": 1.0,
        "task": {"kind": "risk_table", "p": [0.1, 0.3, 0.4, 0.5]},
    },
    # posterior weight files for full.json; the second charges index 1
    "w.json": [0.5, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0],
    "w_inf.json": [0.4, 0.2, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0],
}

ALL_BOUNDS = ("union_finite", "catoni_linear", "lambda_grid", "mcallester", "seeger",
              "tolstikhin_seldin", "catoni_phi", "germain_generic", "subgaussian",
              "chi_square", "truncated", "localized_empirical", "not_a_bound")


def _cases():
    cases = {}
    for post in ("gibbs", "dirac:0", "weights:{dir}/w.json", "weights:{dir}/w_inf.json"):
        label = post.split(":")[0] + ("_inf" if "w_inf" in post else "")
        for bound in ALL_BOUNDS:
            cases[f"certify.full.{bound}.{label}"] = [
                "certify", "{dir}/full.json", "--bound", bound, "--posterior", post]
        for lam in ("0.5", "1.0", "1.9"):
            cases[f"certify.full.thiemann.{label}.lam{lam}"] = [
                "certify", "{dir}/full.json", "--bound", "thiemann", "--posterior", post,
                "--lambda", lam]
    for bound in ("catoni_linear", "catoni_phi", "subgaussian", "truncated", "mcallester"):
        for lam in ("5", "closed_form"):
            cases[f"certify.full.{bound}.lam_{lam}"] = [
                "certify", "{dir}/full.json", "--bound", bound, "--lambda", lam]
    cases["certify.full.localized_empirical.lam5_xi0.5"] = [
        "certify", "{dir}/full.json", "--bound", "localized_empirical",
        "--lambda", "5", "--xi", "0.5"]
    for post in ("gibbs", "dirac:4"):
        for bound in ALL_BOUNDS:
            cases[f"certify.range2.{bound}.{post}"] = [
                "certify", "{dir}/range2.json", "--bound", bound, "--posterior", post]
        cases[f"certify.range2.thiemann.{post}.lam1.0"] = [
            "certify", "{dir}/range2.json", "--bound", "thiemann", "--posterior", post,
            "--lambda", "1.0"]
    for bound in ("union_finite", "seeger", "lambda_grid"):
        cases[f"certify.log_m.{bound}"] = ["certify", "{dir}/log_m.json", "--bound", bound]
    cases["certify.full.seeger.out"] = [
        "certify", "{dir}/full.json", "--bound", "seeger", "--out", "{out}"]

    cases["compare.full"] = ["compare", "{dir}/full.json"]
    cases["compare.full.eps0.01"] = ["compare", "{dir}/full.json", "--eps", "0.01"]
    cases["compare.range2"] = ["compare", "{dir}/range2.json"]
    cases["compare.noiseless"] = ["compare", "{dir}/noiseless.json", "--out", "{out}"]
    cases["compare.log_m"] = ["compare", "{dir}/log_m.json"]

    violate = ["violate", "{dir}/generative.json", "--trials", "30", "--seed", "3",
               "--out", "{out}", "--bound"]
    for bound in ("union_finite", "catoni_linear", "lambda_grid", "mcallester", "seeger",
                  "tolstikhin_seldin", "thiemann", "catoni_phi", "subgaussian",
                  "localized_empirical", "chi_square", "germain_generic", "truncated",
                  "not_a_bound"):
        cases[f"violate.{bound}"] = violate + [bound]
    cases["violate.oracle_probability"] = violate + ["oracle_probability"]
    for rule in ("erm_dirac", "fixed_rho"):
        cases[f"violate.oracle_probability.{rule}"] = violate + [
            "oracle_probability", "--posterior-rule", rule]
        for bound in ("union_finite", "mcallester", "seeger", "catoni_phi"):
            cases[f"violate.{bound}.{rule}"] = violate + [bound, "--posterior-rule", rule]
    cases["violate.thiemann.lam0.5"] = violate + ["thiemann", "--lambda", "0.5"]
    cases["violate.catoni_linear.lam40"] = violate + ["catoni_linear", "--lambda", "40"]
    cases["violate.localized_empirical.lam5_xi0.5"] = violate + [
        "localized_empirical", "--lambda", "5", "--xi", "0.5"]
    cases["violate.seeger.eps0.05_corrupted"] = violate + [
        "seeger", "--eps", "0.05", "--corruption", "0.5"]
    for rule in ("fixed_rho", "gibbs"):
        cases[f"violate.heavy.chi_square.{rule}"] = [
            "violate", "{dir}/heavy.json", "--trials", "30", "--seed", "4", "--out", "{out}",
            "--bound", "chi_square", "--posterior-rule", rule]

    grid = "100,200,400,800,1600"
    for rule in ("fast", "slow"):
        cases[f"rates.{rule}"] = ["rates", "{dir}/rates.json", "--n-grid", grid, "--reps", "20",
                                  "--rule", rule, "--seed", "2", "--out", "{out}"]
    cases["rates.slow.eps0.01"] = ["rates", "{dir}/generative.json", "--n-grid", grid,
                                   "--reps", "10", "--rule", "slow", "--eps", "0.01",
                                   "--out", "{out}"]
    return cases


CASES = _cases()


def write_fixtures(directory: Path) -> None:
    for name, doc in FIXTURES.items():
        (directory / name).write_text(json.dumps(doc))


def run_case(directory: Path, case_id: str) -> dict:
    """Run one case in-process; returns its exit code, stdout and --out file."""
    out = directory / f"{case_id}.out"
    argv = [a.format(dir=directory, out=out) for a in CASES[case_id]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return {
        "rc": rc,
        "stdout": stdout.getvalue(),
        "out": out.read_text() if out.exists() else None,
    }


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_output_is_byte_identical(case_id, fixture_dir, golden):
    assert case_id in golden, f"no recorded output for {case_id}"
    assert run_case(fixture_dir, case_id) == golden[case_id]


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_outputs_are_strict(golden):
    """certify and compare print JSON that strict parsers accept: no NaN or Infinity."""
    texts = [(case_id, text) for case_id, doc in golden.items()
             if CASES[case_id][0] in ("certify", "compare")
             for text in (doc["stdout"], doc["out"]) if text]
    assert texts
    for case_id, text in texts:
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            pytest.fail(f"{case_id}: {exc}")


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs golden cases in a fresh interpreter where any import of scipy fails.
WITHOUT_SCIPY = """
import json, sys, tempfile
from pathlib import Path
sys.modules["scipy"] = None
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import test_cli_golden as g
with tempfile.TemporaryDirectory() as tmp:
    g.write_fixtures(Path(tmp))
    print(json.dumps({case: g.run_case(Path(tmp), case) for case in sys.argv[3:]}))
"""


def test_import_leaves_scipy_unloaded():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pacbayes; " \
           "print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_runs_without_scipy(golden):
    cases = ["certify.full.seeger.gibbs", "violate.seeger", "rates.fast"]
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(SRC), str(Path(__file__).parent), *cases],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {case: golden[case] for case in cases}


def record(case_ids=()) -> None:
    """Rewrite golden_cli.json from the current CLI, for case_ids or, if none, every case.

    Entries not named keep their recorded bytes; cases that raise are left out.
    """
    unknown = sorted(set(case_ids) - set(CASES))
    if unknown:
        sys.exit(f"unknown case ids: {', '.join(unknown)}")
    recorded = json.loads(GOLDEN.read_text()) if case_ids else {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_fixtures(directory)
        for case_id in sorted(case_ids or CASES):
            try:
                recorded[case_id] = run_case(directory, case_id)
            except Exception as exc:  # a crash is not an output to keep
                recorded.pop(case_id, None)
                print(f"skipped {case_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} of {len(CASES)} cases on file", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
