"""Command-line front end: schema/semantic exit codes, golden agreement with
the library (17 significant digits), deterministic CSV output, and the
behavior of certify/compare/violate/rates on reference instances."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pacbayes import bounds, cli, divergences
from pacbayes.bounds import (
    BoundInput,
    bound_seeger_maurer,
    bound_thiemann,
    bound_union_finite,
    select_lambda_closed_form,
)
from pacbayes.divergences import DiscreteDistribution
from pacbayes.posteriors import gibbs_posterior

from oracles import compare_bounds_loop
from test_cli_golden import FIXTURES


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def small_instance(tmp_path):
    """The reference instance: 100 classifiers, best empirical risk 0.26."""
    m = 100
    emp = np.linspace(0.26, 0.8, m)
    doc = {
        "schema": 1,
        "n": 1000,
        "eps": 0.05,
        "C": 1.0,
        "prior": [1.0 / m] * m,
        "emp_risk": emp.tolist(),
    }
    return write_json(tmp_path / "task.json", doc)


@pytest.fixture
def generative_instance(tmp_path):
    doc = {
        "schema": 1,
        "n": 500,
        "eps": 0.1,
        "C": 1.0,
        "prior": [0.05] * 20,
        "emp_risk": [0.4] * 20,
        "task": {"kind": "risk_table", "p": np.linspace(0.3, 0.6, 20).tolist()},
    }
    return write_json(tmp_path / "gen.json", doc)


class TestTaskFileSchema:
    def test_prior_must_sum_to_one(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 10, "eps": 0.1, "C": 1.0,
            "prior": [0.5, 0.4], "emp_risk": [0.1, 0.2],
        })
        with pytest.raises(cli.SchemaError):
            cli.load_task_file(path)

    def test_missing_required_field(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"schema": 1, "eps": 0.1, "C": 1.0})
        with pytest.raises(cli.SchemaError) as err:
            cli.load_task_file(path)
        assert "'n'" in str(err.value)

    def test_length_mismatch(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 10, "eps": 0.1, "C": 1.0,
            "prior": [0.5, 0.5], "emp_risk": [0.1, 0.2, 0.3],
        })
        with pytest.raises(cli.SchemaError):
            cli.load_task_file(path)

    def test_directory_task_path_exits_2(self, tmp_path, capsys):
        assert cli.main(["compare", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "field 'file'" in err and "Traceback" not in err

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  "n": }')
        with pytest.raises(cli.SchemaError) as err:
            cli.load_task_file(str(path))
        assert "line 2" in str(err.value)

    def test_emp_risk_range(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 10, "eps": 0.1, "C": 1.0,
            "prior": [1.0], "emp_risk": [1.5],
        })
        with pytest.raises(cli.SchemaError):
            cli.load_task_file(path)

    def test_subnormal_prior_mass_is_not_clamped(self, tmp_path, capsys):
        # KL(delta_1 || pi) = -log(1e-310); a clamp at 1e-300 would give 690.8
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 1000, "eps": 0.05, "C": 1.0,
            "prior": [1.0, 1e-310], "emp_risk": [0.5, 0.1],
        })
        assert cli.main(["certify", path, "--bound", "catoni_linear",
                         "--posterior", "dirac:1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        kl = -math.log(1e-310)
        lam = select_lambda_closed_form(kl, 1000, 0.05)
        assert doc["lambda"] == pytest.approx(lam, rel=1e-12)
        assert doc["value"] == pytest.approx(0.6986639754911382, rel=1e-12)

    def test_log_prior_mass_that_underflows_certifies(self, tmp_path, capsys):
        # the mass e^{-2e308} of hypothesis 0 underflows to 0, so gibbs is the
        # Dirac mass on hypothesis 1 at KL 0
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 100, "eps": 0.05, "C": 1.0,
            "log_prior_mass": [-1e308, 1e308], "emp_risk": [0.1, 0.2],
        })
        assert cli.main(["certify", path, "--bound", "seeger"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == bound_seeger_maurer(BoundInput(0.2, 0.0, 100, 0.05)).value

    @pytest.mark.parametrize("field, value", [
        ("n", 1.5), ("n", True), ("n", "1000"), ("eps", "0.05"), ("eps", True),
        ("C", "1"), ("kappa", True), ("kappa", "2"), ("log_M", "3.0"), ("log_M", True),
        ("n", 10**400), ("eps", 10**400),
    ])
    def test_scalars_must_be_json_numbers(self, tmp_path, capsys, field, value):
        # a bool, a string, a float overflow or a fractional n is refused, never coerced
        doc = {"schema": 1, "n": 1000, "eps": 0.05, "C": 1.0, "log_M": 3.0, field: value}
        path = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["certify", path, "--bound", "union_finite"]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_integral_float_n_is_accepted(self, tmp_path):
        path = write_json(tmp_path / "t.json", {"schema": 1, "n": 1000.0, "eps": 0.05,
                                                "C": 1.0, "log_M": 3.0})
        n = cli.load_task_file(path)["n"]
        assert n == 1000 and isinstance(n, int)

    def test_losses_must_match_emp_risk(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 2, "eps": 0.1, "C": 1.0,
            "prior": [1.0], "emp_risk": [0.25],
            "losses": [[0.0], [1.0]],
        })
        with pytest.raises(cli.SchemaError):
            cli.load_task_file(path)

    def test_losses_without_emp_risk_names_losses(self, tmp_path, capsys):
        # the loss matrix was dropped with the emp_risk block, and truncated
        # then exited 3 with "truncated needs posterior and losses"
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 4, "eps": 0.1, "C": 1.0, "prior": [0.5, 0.5],
            "losses": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
        })
        assert cli.main(["certify", path, "--bound", "truncated", "--lambda", "2"]) == 2
        assert "field 'losses'" in capsys.readouterr().err

    def test_losses_check_names_losses_at_the_risk_table_tolerance(self, tmp_path, capsys):
        # a 3e-10 gap passed a 1e-9 check here and was then rejected by
        # RiskTable as a fault of emp_risk; both now use one tolerance
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 3, "eps": 0.05, "C": 1.0,
            "emp_risk": [1 / 3 + 3e-10, 1 / 3],
            "losses": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]],
        })
        assert cli.main(["certify", path, "--bound", "mcallester"]) == 2
        assert "field 'losses'" in capsys.readouterr().err


class TestCertify:
    def test_union_finite_reference_value(self, small_instance, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", small_instance, "--bound", "union_finite", "--out", str(out)
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(0.3216, abs=5e-4)
        # golden: byte-exact agreement with the library call
        lib = bound_union_finite(0.26, 1000, 0.05, 1.0, M=100)
        assert doc["value"] == lib.value
        assert doc["vacuous"] is False

    def test_catoni_closed_form_lambda(self, small_instance, tmp_path):
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", small_instance, "--bound", "catoni_linear",
            "--posterior", "dirac:0", "--lambda", "closed_form", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(0.3216, abs=5e-4)
        assert doc["lambda"] == pytest.approx(
            select_lambda_closed_form(math.log(100), 1000, 0.05, 1.0)
        )

    def test_seeger_dirac_matches_library(self, tmp_path):
        m, n, eps = 10, 400, 0.05
        emp = np.concatenate([[0.0], np.linspace(0.2, 0.6, m - 1)])
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": n, "eps": eps, "C": 1.0,
            "prior": [1.0 / m] * m, "emp_risk": emp.tolist(),
        })
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", path, "--bound", "seeger", "--posterior", "dirac:0",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        lib = bound_seeger_maurer(BoundInput(0.0, math.log(m), n, eps))
        assert doc["value"] == lib.value  # exact, 17-digit round trip

    def test_vacuous_log_domain_instance(self, tmp_path):
        path = write_json(tmp_path / "huge.json", {
            "schema": 1, "n": 10000, "eps": 0.05, "C": 1.0,
            "emp_risk": [0.0], "log_M": 1000100 * math.log(2),
        })
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", path, "--bound", "union_finite", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["vacuous"] is True
        assert doc["value"] > 1
        assert math.isfinite(doc["value"])

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "schema": 1, "n": 10, "eps": 0.1, "C": 1.0,
            "prior": [0.5, 0.4], "emp_risk": [0.1, 0.2],
        })
        rc = cli.main(["certify", path, "--bound", "union_finite"])
        assert rc == 2
        assert "prior" in capsys.readouterr().err

    def test_semantic_error_exit_code(self, small_instance, capsys):
        rc = cli.main(["certify", small_instance, "--bound", "chi_square"])
        assert rc == 3

    def test_unknown_bound_exit_code(self, small_instance):
        rc = cli.main(["certify", small_instance, "--bound", "not_a_bound"])
        assert rc == 3

    def test_weights_posterior(self, small_instance, tmp_path):
        w = np.zeros(100)
        w[:2] = [0.75, 0.25]
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(w.tolist()))
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", small_instance, "--bound", "mcallester",
            "--posterior", f"weights:{wfile}", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["bound"] == "mcallester"

    def test_kl_form_rescaling_for_range_c(self, tmp_path):
        # kl-form bounds run on the 0-1 scale; a range-2 task is certified by
        # scaling the risk down and the certificate back up
        path = write_json(tmp_path / "c2.json", {
            "schema": 1, "n": 400, "eps": 0.05, "C": 2.0,
            "prior": [0.5, 0.5], "emp_risk": [0.6, 1.4],
        })
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", path, "--bound", "seeger", "--posterior", "dirac:0",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        lib = bound_seeger_maurer(BoundInput(0.6 / 2.0, math.log(2), 400, 0.05))
        assert doc["value"] == 2.0 * lib.value
        assert doc["details"]["rescaled_by"] == 2.0

    def test_localized_requires_lambda_and_xi(self, small_instance, tmp_path):
        out = tmp_path / "cert.json"
        rc = cli.main([
            "certify", small_instance, "--bound", "localized_empirical",
            "--lambda", "5.0", "--xi", "0.5", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["details"]["xi"] == 0.5


    @pytest.mark.parametrize("bound", ["seeger", "thiemann", "tolstikhin_seldin"])
    def test_kl_form_budget_where_2_sqrt_n_over_eps_overflows(self, bound, tmp_path, capsys):
        # 2 sqrt(2^53) / 1e-300 overflows, but log(2 sqrt(n)/eps) = 709.8 does not:
        # the budget stays finite and the certificate tight
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 2**53, "eps": 1e-300, "C": 1.0,
            "prior": [0.3, 0.3, 0.4], "emp_risk": [0.1, 0.2, 0.3]})
        assert cli.main(["certify", path, "--bound", bound]) == 0
        doc = json.loads(capsys.readouterr().out)
        rho, _ = cli._resolve_posterior(cli.load_task_file(path), "gibbs", None)
        assert doc["value"] is not None and not doc["vacuous"]
        assert doc["value"] >= float(rho.weights @ np.array([0.1, 0.2, 0.3]))

    def test_thiemann_default_lambda(self, small_instance, tmp_path):
        # with no --lambda, thiemann runs at its catalog default 1.0 (the
        # value violate uses), not at the closed-form pick outside (0, 2)
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", small_instance, "--bound", "thiemann", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["lambda"] == 1.0
        emp = np.linspace(0.26, 0.8, 100)
        rho = gibbs_posterior(DiscreteDistribution.uniform(100), emp,
                              select_lambda_closed_form(math.log(100), 1000, 0.05))
        kl = float(np.sum(rho.weights * np.log(rho.weights * 100)))
        lib = bound_thiemann(BoundInput(float(rho.weights @ emp), kl, 1000, 0.05), 1.0)
        assert doc["value"] == pytest.approx(lib.value, rel=1e-12)

        explicit = tmp_path / "explicit.json"
        for argv, path in (([], out), (["--lambda", "1.0"], explicit)):
            assert cli.main(["certify", small_instance, "--bound", "thiemann",
                             "--posterior", "dirac:0", "--out", str(path), *argv]) == 0
        assert out.read_bytes() == explicit.read_bytes()

    def test_thiemann_closed_form_flag_is_the_default(self, small_instance, capsys):
        # thiemann's lambda is fixed; closed_form names no other lambda, as in violate
        outputs = []
        for argv in ([], ["--lambda", "closed_form"]):
            assert cli.main(["certify", small_instance, "--bound", "thiemann", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def task_path(task, request, tmp_path) -> str:
    """The path of the fixture named task, else of a file holding the JSON
    document task (None: a path with no file)."""
    if task in ("small_instance", "generative_instance"):
        return request.getfixturevalue(task)
    path = tmp_path / "odd.json"
    if task is not None:
        path.write_text(json.dumps(task))
    return str(path)


SCALARS = {"schema": 1, "n": 100, "eps": 0.05, "C": 1.0}


@pytest.mark.parametrize("task, argv, field", [
    ("small_instance", ["certify", "--bound", "catoni_linear", "--posterior", "dirac:0",
                        "--lambda", "nan"], "--lambda"),
    ("small_instance", ["certify", "--bound", "catoni_linear", "--posterior", "dirac:0",
                        "--lambda", "-1"], "--lambda"),
    ("small_instance", ["certify", "--bound", "thiemann", "--lambda", "5"], "--lambda"),
    ("small_instance", ["certify", "--bound", "localized_empirical", "--lambda", "5",
                        "--xi", "1.5"], "--xi"),
    ("small_instance", ["compare", "--eps", "1.5"], "--eps"),
    ("generative_instance", ["violate", "--bound", "seeger", "--trials", "5",
                             "--eps", "nan"], "--eps"),
    ("generative_instance", ["rates", "--n-grid", "100,200,400,800,1600", "--reps", "5",
                             "--eps", "1.5", "--rule", "slow"], "--eps"),
    ("generative_instance", ["rates", "--n-grid", "100,200,400,800,1600", "--reps", "0"],
     "--reps"),
    ("generative_instance", ["violate", "--bound", "seeger", "--trials", "0"], "--trials"),
    ("generative_instance", ["violate", "--bound", "seeger", "--trials", "5",
                             "--corruption", "nan"], "--corruption"),
    ("generative_instance", ["violate", "--bound", "thiemann", "--trials", "5",
                             "--lambda", "5"], "--lambda"),
    # bounds that certify no given posterior
    ("small_instance", ["certify", "--bound", "lambda_grid", "--posterior", "dirac:0"],
     "--posterior"),
    ("small_instance", ["certify", "--bound", "union_finite", "--posterior", "dirac:0"],
     "--posterior"),
    # lambda_grid searches its own Gibbs posteriors and lambdas
    ("generative_instance", ["violate", "--bound", "lambda_grid", "--trials", "5",
                             "--posterior-rule", "erm_dirac"], "--posterior-rule"),
    ("generative_instance", ["violate", "--bound", "lambda_grid", "--trials", "5",
                             "--lambda", "7"], "--lambda"),
    ("small_instance", ["certify", "--bound", "lambda_grid", "--lambda", "7"], "--lambda"),
    ("small_instance", ["certify", "--bound", "catoni_linear", "--lambda", "abc"], "--lambda"),
    ("small_instance", ["certify", "--bound", "catoni_linear", "--lambda", "inf"], "--lambda"),
    # task files that break the schema
    (None, ["certify", "--bound", "seeger"], "file"),
    ([0.1, 0.2], ["certify", "--bound", "seeger"], "file"),
    ({**SCALARS, "prior": [0.5, 0.5], "emp_risk": ["a", "b"]}, ["certify", "--bound", "seeger"],
     "emp_risk"),
    ({**SCALARS, "n": 1, "emp_risk": [0.5], "losses": [["a"]]}, ["certify", "--bound", "seeger"],
     "losses"),
    ({**SCALARS, "task": {"kind": "wat"}}, ["violate", "--bound", "seeger", "--trials", "5"],
     "task"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11,
                          "star_index": 50}}, ["violate", "--bound", "seeger", "--trials", "5"],
     "task"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": "0.2", "grid_size": 11}},
     ["violate", "--bound", "seeger", "--trials", "5"], "task"),
    # a grid size that is no whole number once ran at its floor, its number or 1
    *[({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": size}},
       ["violate", "--bound", "seeger", "--trials", "5"], "task") for size in (2.5, "5", True)],
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11,
                          "star_index": True}}, ["violate", "--bound", "seeger", "--trials", "5"],
     "task"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11,
                          "thresholds": [0.1, 0.9]}},
     ["violate", "--bound", "seeger", "--trials", "5"], "task"),
    ({**SCALARS, "task": {"kind": "risk_table"}},
     ["violate", "--bound", "seeger", "--trials", "5"], "task.p"),
    # posteriors that name no distribution
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "dirac:x"], "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "dirac:100"], "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "dirac:-1"], "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "weights:{tmp}/none.json"],
     "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "weights:{task}"],
     "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "weights:{tmp}"],
     "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "uniform"], "--posterior"),
    ("generative_instance", ["rates", "--n-grid", "100,2x0,400,800,1600", "--reps", "5"],
     "--n-grid"),
    # rules the library states once and load_task_file takes from it
    ({**SCALARS, "n": 0}, ["certify", "--bound", "seeger"], "n"),
    ({**SCALARS, "n": 2.5}, ["certify", "--bound", "seeger"], "n"),
    ({**SCALARS, "eps": 1}, ["certify", "--bound", "seeger"], "eps"),
    ({**SCALARS, "C": 0}, ["certify", "--bound", "seeger"], "C"),
    ({**SCALARS, "prior": [1.0], "emp_risk": [1.5]}, ["certify", "--bound", "seeger"],
     "emp_risk"),
    ({**SCALARS, "log_M": -1}, ["certify", "--bound", "union_finite"], "log_M"),
    ({**SCALARS, "n": 2, "emp_risk": [0.5], "losses": [[0.5, 0.5]]},
     ["certify", "--bound", "seeger"], "losses"),
    ({**SCALARS, "log_M": 1.0, "kappa": 0}, ["certify", "--bound", "union_finite"], "kappa"),
    ({**SCALARS, "log_M": 1.0, "kappa": -1}, ["certify", "--bound", "union_finite"], "kappa"),
    # weights that DiscreteDistribution.from_weights refuses
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "weights:{tmp}/inf.json"],
     "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior",
                        "weights:{tmp}/overflow.json"], "--posterior"),
    ("small_instance", ["certify", "--bound", "seeger", "--posterior", "weights:{tmp}/2d.json"],
     "--posterior"),
], ids=["lambda_nan", "lambda_negative", "thiemann_lambda_5", "xi_1.5", "compare_eps_1.5",
        "violate_eps_nan", "rates_eps_1.5", "rates_reps_0", "violate_trials_0",
        "violate_corruption_nan", "violate_thiemann_lambda_5", "lambda_grid_dirac",
        "union_finite_dirac", "violate_lambda_grid_erm_dirac", "violate_lambda_grid_lambda_7",
        "certify_lambda_grid_lambda_7", "lambda_abc", "lambda_inf", "missing_task_file",
        "task_file_not_an_object", "emp_risk_not_numbers", "losses_not_numbers",
        "unknown_task_kind", "star_index_out_of_range", "tau_a_string", "grid_size_2.5",
        "grid_size_a_string", "grid_size_true", "star_index_true",
        "grid_size_and_thresholds", "task_without_p", "dirac_not_an_index", "dirac_past_the_end",
        "dirac_negative", "missing_weights_file",
        "weights_not_an_array", "weights_a_directory", "unknown_posterior", "n_grid_not_integers",
        "n_0", "n_2.5", "eps_1", "C_0", "emp_risk_1.5", "log_M_negative", "losses_wrong_shape",
        "kappa_0", "kappa_negative", "weights_infinity", "weights_sum_overflows", "weights_2d"])
def test_out_of_range_flag_exit_2(task, argv, field, request, tmp_path, capsys):
    path = task_path(task, request, tmp_path)
    # weights files for small_instance's 100 hypotheses
    for name, w in (("inf", [math.inf] + [1.0] * 99), ("overflow", [1e308] * 100),
                    ("2d", [[0.01] * 100])):
        (tmp_path / f"{name}.json").write_text(json.dumps(w))
    command, *flags = argv
    rc = cli.main([command, path, *(f.format(task=path, tmp=tmp_path) for f in flags)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, field, rule, lam", [
    (["violate", "--bound", "lambda_grid", "--trials", "5", "--posterior-rule", "erm_dirac"],
     "--posterior-rule", "erm_dirac", None),
    (["violate", "--bound", "lambda_grid", "--trials", "5", "--lambda", "7"], "--lambda", "gibbs",
     7.0),
    (["certify", "--bound", "lambda_grid", "--lambda", "7"], "--lambda", "gibbs", 7.0),
], ids=["violate_rule", "violate_lambda", "certify_lambda"])
def test_lambda_grid_refusals_are_the_catalogs(argv, field, rule, lam, generative_instance,
                                               capsys):
    # the grid row's refusals have one home, CatalogEntry.check_search
    with pytest.raises(ValueError) as refusal:
        bounds.BOUND_TABLE["lambda_grid"].check_search(rule, lam)
    command, *flags = argv
    assert cli.main([command, generative_instance, *flags]) == 2
    assert f"field '{field}': {refusal.value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("task, argv, named", [
    # lambda/n beyond expm1's range overflows the localized denominator
    ("small_instance", ["certify", "--bound", "localized_empirical", "--lambda", "1e6"],
     "lambda = 1000000.0"),
    ("generative_instance", ["violate", "--bound", "localized_empirical", "--lambda", "1e6",
                             "--trials", "5"], "lambda = 1000000.0"),
    ({**SCALARS, "prior": [0.5, 0.5]}, ["compare"], "emp_risk"),
    ("generative_instance", ["rates", "--n-grid", "100,200,400,800,1600", "--reps", "5",
                             "--seed", "-1"], "seed"),
    # the closed-form lambda sqrt(8 n log(M/eps))/C overflows to +inf at C = 1e-310
    ({**SCALARS, "C": 1e-310, "prior": [0.5, 0.5], "emp_risk": [0.0, 0.0]},
     ["certify", "--bound", "seeger"], "lambda"),
    # the closed-form lambda is about 5.7e301 at C = 1e-300, and its square overflows
    ({**SCALARS, "C": 1e-300, "prior": [0.3, 0.3, 0.4], "emp_risk": [1e-301, 2e-301, 3e-301]},
     ["certify", "--bound", "localized_empirical"], "overflows the localized bound's denominator"),
    # eps / 19 underflows to 0 where thiemann prices its lambda search
    ({**SCALARS, "eps": 5e-324, "prior": [0.3, 0.3, 0.4], "emp_risk": [0.1, 0.2, 0.3]},
     ["compare"], "eps = 5e-324 split over the 19 lambdas that thiemann searches underflows to 0"),
    # past what one trial's draw may allocate, or past the int64 range of n
    ({**SCALARS, "n": 1e308, "task": {"kind": "risk_table", "p": [0.2, 0.4]}},
     ["violate", "--bound", "seeger", "--trials", "5"], "n must be at most 2**63 - 1"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 2**53}},
     ["violate", "--bound", "seeger", "--trials", "5"],
     "grid_size must be at most 2**27, the entries one trial's draw may hold, got "
     "9007199254740992"),
    ({**SCALARS, "n": 2**53, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11}},
     ["violate", "--bound", "seeger", "--trials", "5"],
     "n = 9007199254740992 asks one trial's draw of the threshold_margin task"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11}},
     ["rates", "--n-grid", "10000000,20000000,40000000,80000000,160000000", "--reps", "2"],
     "n_grid entry = 160000000 asks one trial's draw"),
    # past the 2**22 trials or 2**26 reps an experiment runs: 10**12, and the
    # first count past
    ("generative_instance", ["violate", "--bound", "seeger", "--trials", "1000000000000"],
     "trials = 1000000000000 asks for 1000000000000 trials; an experiment runs at most 2**22"),
    ("generative_instance", ["violate", "--bound", "seeger", "--trials", str(2**22 + 1)],
     "trials = 4194305 asks for 4194305 trials"),
    ("generative_instance", ["rates", "--n-grid", "100,200,400,800,1600", "--reps",
                             "1000000000000"], "reps = 1000000000000 asks for 5000000000000 reps"),
    ("generative_instance", ["rates", "--n-grid", "100,200,400,800,1600", "--reps",
                             str(2**26 // 5 + 1)], "reps = 13421773 asks for 67108865 reps"),
], ids=["certify_localized_lambda_1e6", "violate_localized_lambda_1e6", "compare_no_emp_risk",
        "rates_seed_negative", "certify_gibbs_lambda_inf", "certify_localized_lambda_squared_inf",
        "compare_eps_split_underflows", "violate_risk_table_n_1e308",
        "violate_margin_grid_size_2_53", "violate_margin_n_2_53", "rates_margin_n_1.6e8",
        "violate_trials_1e12", "violate_trials_2_22_plus_1", "rates_reps_1e12",
        "rates_reps_past_2_26"])
def test_semantic_error_exit_3(task, argv, named, request, tmp_path, capsys):
    command, *flags = argv
    rc = cli.main([command, task_path(task, request, tmp_path), *flags])
    err = capsys.readouterr().err
    assert rc == 3
    assert named in err
    assert "Traceback" not in err


#: One field of a schema-valid task file at a time at an edge of the float range.
EXTREMES = [("C", 1e-300), ("C", 1e154), ("C", 1e300), ("eps", 5e-324), ("eps", 1e-300),
            ("eps", 1 - 1e-16), ("n", 1), ("n", 2), ("n", 2**53)]


@pytest.mark.parametrize("argv", [["certify", "--bound", b] for b in bounds.BOUND_IDS]
                         + [["compare"]], ids=[*bounds.BOUND_IDS, "compare"])
@pytest.mark.parametrize("field, value", EXTREMES, ids=[f"{f}_{v!r}" for f, v in EXTREMES])
def test_extreme_valid_input_exits_cleanly(field, value, argv, tmp_path, capsys):
    # a certificate (null where it overflows) or a diagnostic, never an
    # exception or a warning; the risks scale with C
    doc = {**SCALARS, "kappa": 0.25, "prior": [0.3, 0.3, 0.4], field: value}
    doc["emp_risk"] = [r * doc["C"] for r in (0.1, 0.2, 0.3)]
    command, *flags = argv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, write_json(tmp_path / "t.json", doc), *flags])
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3), err
    if rc == 0:
        json.loads(out)
    if field == "C" and value == 1e300 and argv[-1] in ("catoni_linear", "subgaussian",
                                                         "lambda_grid"):
        assert rc == 0 and json.loads(out)["value"] is None
    # log(1/eps) = 744.4 is finite at eps = 5e-324, where 1/eps overflows, so
    # every row certifies, vacuously, but two: log(2 sqrt(n)/eps) and log(2/eps)
    # are finite too, so seeger's kl inverse stays just below 1 and
    # localized_empirical gives its formula's value.  truncated needs losses,
    # and compare's eps split over thiemann's lambdas underflows
    # (test_semantic_error_exit_3)
    if field == "eps" and value == 5e-324 and argv[-1] not in ("truncated", "compare"):
        cert = json.loads(out)
        assert rc == 0, err
        if argv[-1] in ("seeger", "localized_empirical"):
            assert cert["value"] is not None and not cert["vacuous"]
        else:
            assert cert["vacuous"] is True, err


def test_kl_rescale_past_the_float_range_warns_nothing(tmp_path, capsys):
    # compare rescales each kl-row candidate by C; at C = 1e308 some overflow
    # to +inf, which only makes them vacuous.  The digest is the stdout that
    # came with a RuntimeWarning before the rescale ran under errstate
    doc = {"schema": 1, "n": 1000, "eps": 0.05, "C": 1e308, "prior": [0.5, 0.5],
           "emp_risk": [0.2, 0.3]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["compare", write_json(tmp_path / "t.json", doc)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2ca3def944d53242b865cd865e3463426322327bffb8db1364d5dfc88685f81")


@pytest.mark.parametrize("argv, name", [
    (["violate", "--bound", "seeger", "--trials", "0"], "trials"),
    (["rates", "--n-grid", "100,200,400,800,1600", "--reps", "0"], "reps"),
])
def test_count_flags_take_the_library_count_rule(argv, name, generative_instance, capsys):
    command, *flags = argv
    assert cli.main([command, generative_instance, *flags]) == 2
    assert capsys.readouterr().err == (
        f"schema error: field '--{name}': {name} must be an integer >= 1, got 0\n")


@pytest.mark.parametrize("doc, argv, named", [
    ({**SCALARS, "log_M": 1.0, "true_risk": [0.5]}, ["certify", "--bound", "union_finite"],
     "field 'true_risk': unknown field"),
    ({**SCALARS, "prior": [0.5, 0.5], "emp_risk": [0.1, 0.2], "Eps": 0.1}, ["compare"],
     "field 'Eps': unknown field"),
    ({**SCALARS, "task": {"kind": "heavy_tail", "means": [0.5, 0.6], "sd": 0.01}},
     ["violate", "--bound", "chi_square", "--trials", "5"],
     "unknown heavy_tail task parameter 'sd'"),
    ({**SCALARS, "task": {"kind": "risk_table", "p": [0.2, 0.4], "shared": True}},
     ["violate", "--bound", "seeger", "--trials", "5"],
     "unknown risk_table task parameter 'shared'"),
    ({**SCALARS, "task": {"kind": "threshold_margin", "tau": 0.2, "grid_size": 11,
                          "star": 3}},
     ["rates", "--n-grid", "100,200,400,800,1600", "--reps", "5"],
     "unknown threshold_margin task parameter 'star'"),
], ids=["top_level_true_risk", "top_level_Eps", "heavy_tail_sd", "risk_table_shared",
        "threshold_margin_star"])
def test_unknown_keys_exit_2(doc, argv, named, tmp_path, capsys):
    # a misspelt key is refused by name instead of leaving its default in place
    command, *flags = argv
    rc = cli.main([command, write_json(tmp_path / "t.json", doc), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, loaded", [
    (["certify", "{task}", "--bound", "seeger"], False),
    (["compare", "{task}"], False),
    (["violate", "{gen}", "--bound", "seeger", "--trials", "3"], True),
], ids=["certify", "compare", "violate"])
def test_only_violate_and_rates_load_the_lab(argv, loaded, small_instance, generative_instance):
    src = str(Path(cli.__file__).parents[1])
    args = [a.format(task=small_instance, gen=generative_instance) for a in argv]
    code = ("import sys; from pacbayes.cli import main; assert main(sys.argv[1:]) == 0; "
            "print('pacbayes.oracle_lab' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == str(loaded)


def test_run_as_a_module_warns_nothing(small_instance):
    # runpy warns when the package import has already loaded pacbayes.cli
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pacbayes.cli", "certify", small_instance,
                           "--bound", "seeger"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


def test_closed_stdout_exits_1_without_traceback(small_instance):
    # the reader of the pipe is gone before the first write, as in
    # ``pacbayes compare F | head -0``: exit 1, as Python gives, and no traceback
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "pacbayes.cli", "compare", small_instance],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


class TestCompare:
    def test_noiseless_fast_regime_ordering(self, tmp_path):
        m, n = 10, 2000
        emp = np.concatenate([[0.0], np.linspace(0.3, 0.6, m - 1)])
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": n, "eps": 0.05, "C": 1.0,
            "prior": [1.0 / m] * m, "emp_risk": emp.tolist(),
        })
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", path, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        values = {r["bound"]: r["value"] for r in doc["results"]}
        # zero empirical risk: kl-inversion bounds land on the 1/n scale,
        # McAllester stays on the sqrt(1/n) scale
        assert values["seeger"] < 0.02
        assert values["tolstikhin_seldin"] < 0.02
        assert values["thiemann"] < 0.05
        assert values["mcallester"] > 0.08
        assert doc["tightest"] == doc["results"][0]["bound"]
        assert values[doc["tightest"]] == min(values.values())

    def test_single_hypothesis_reduces_to_kl_zero(self, tmp_path):
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 400, "eps": 0.05, "C": 1.0,
            "prior": [1.0], "emp_risk": [0.3],
        })
        out = tmp_path / "cmp.json"
        assert cli.main(["compare", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        values = {r["bound"]: r["value"] for r in doc["results"]}
        lib = bound_seeger_maurer(BoundInput(0.3, 0.0, 400, 0.05))
        assert values["seeger"] == lib.value

    def test_no_bound_beats_empirical_risk(self, small_instance, tmp_path):
        out = tmp_path / "cmp.json"
        assert cli.main(["compare", small_instance, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for r in doc["results"]:
            assert r["value"] >= 0.26

    def test_agrees_with_certify_on_a_tiny_log_prior_mass(self, tmp_path, capsys):
        # exp(-1000) underflows to 0, but the log prior keeps the Dirac's KL finite
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 100_000, "eps": 0.05, "C": 1.0,
            "log_prior_mass": [0.0, -1000.0, 0.0], "emp_risk": [0.5, 0.1, 0.6],
        })
        assert cli.main(["certify", path, "--bound", "mcallester", "--posterior", "dirac:1"]) == 0
        certified = json.loads(capsys.readouterr().out)["value"]
        assert cli.main(["compare", path]) == 0
        compared = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
        kl = 1000.0 + math.log(2.0)
        expected = 0.1 + math.sqrt((kl + math.log(20.0) + 2.5 * math.log(1e5) + 8.0) / 199_999)
        assert certified == pytest.approx(expected, rel=1e-12)
        assert compared["mcallester"] == certified
        assert certified == pytest.approx(0.1721, abs=1e-4)

    def test_eps_override(self, small_instance, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["compare", small_instance, "--out", str(out1)])
        cli.main(["compare", small_instance, "--eps", "0.01", "--out", str(out2)])
        v1 = json.loads(out1.read_text())["results"][0]["value"]
        v2 = json.loads(out2.read_text())["results"][0]["value"]
        assert v2 > v1  # tighter confidence costs slack


class TestCompareColumns:
    """compare scores each bound's (lambda x candidate) grid as columns and gives
    the certificates of the loop that certified every pair, by repr."""

    @staticmethod
    def task(tmp_path, doc):
        return cli.load_task_file(write_json(tmp_path / "t.json", doc))

    def same(self, task, eps=None):
        assert repr(cli.compare_bounds(task, eps)) == repr(compare_bounds_loop(task, eps))

    @pytest.mark.parametrize("name", ["full.json", "range2.json", "noiseless.json",
                                      "generative.json"])
    @pytest.mark.parametrize("block", [None, 3], ids=["one_block", "blocks"])
    def test_golden_fixtures(self, name, block, tmp_path, monkeypatch):
        # full.json: the ERM Dirac charges a zero prior mass (infinite KL);
        # range2.json: C = 2; block 3: one weight row per block
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        task = self.task(tmp_path, FIXTURES[name])
        self.same(task)
        self.same(task, eps=0.01)

    def exact_ties(self, C, tmp_path):
        # equal risks under a uniform prior: every Gibbs candidate is the
        # prior, so each bound ties across all of them and every lambda
        task = self.task(tmp_path, {"schema": 1, "n": 300, "eps": 0.05, "C": C, "kappa": 0.3,
                                    "prior": [0.2] * 5, "emp_risk": [0.4 * C] * 5})
        self.same(task)

    @pytest.mark.parametrize("C", [1.0, 2.0])
    def test_exact_ties(self, C, tmp_path, monkeypatch):
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 10)
        self.exact_ties(C, tmp_path)

    @pytest.mark.parametrize("C", [1.0, 2.0])
    def test_exact_ties_one_row_per_block(self, C, tmp_path, monkeypatch):
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 1)
        self.exact_ties(C, tmp_path)

    def losses_and_skipped_dirac(self, tmp_path):
        losses = (np.random.default_rng(3).random((50, 6)) < 0.4).astype(float)
        task = self.task(tmp_path, {"schema": 1, "n": 50, "eps": 0.1, "C": 1.0, "kappa": 0.5,
                                    "prior": [0.0, 0.3, 0.2, 0.2, 0.2, 0.1],
                                    "emp_risk": losses.mean(axis=0).tolist(),
                                    "losses": losses.tolist()})
        self.same(task)

    def test_losses_and_skipped_dirac(self, tmp_path):
        self.losses_and_skipped_dirac(tmp_path)

    def test_losses_and_skipped_dirac_one_row_per_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 1)
        self.losses_and_skipped_dirac(tmp_path)

    @pytest.mark.parametrize("name", ["full.json", "noiseless.json"])
    @pytest.mark.parametrize("block", [None, 1], ids=["one_block", "row_blocks"])
    def test_each_gibbs_candidate_is_built_once(self, block, name, tmp_path, monkeypatch):
        # every Gibbs measure is normalized by one _logsumexp row: compare makes
        # one per candidate lambda, lambda_grid reading the same family, and the
        # localized prior pi_{-xi r} is made twice, for the values calls and in
        # the winner's certificate (bound_localized_empirical); full.json drops
        # the ERM Dirac for its infinite KL, noiseless.json keeps it
        if block is not None:
            monkeypatch.setattr(divergences, "_FAMILY_BLOCK", block)
        task = self.task(tmp_path, FIXTURES[name])
        rows, real = [], divergences._logsumexp
        monkeypatch.setattr(divergences, "_logsumexp",
                            lambda a, *work: rows.append(np.shape(a)[:-1]) or real(a, *work))
        certs = cli.compare_bounds(task)
        assert "lambda_grid" in [c.bound_id for c in certs]
        built = sum(int(np.prod(shape)) for shape in rows)
        assert built == bounds.lambda_grid_geometric(task["n"]).size + 2

    def test_truncated_risks_once_per_lambda(self, tmp_path, monkeypatch):
        # one weight row per block: every block's values call and the winner's
        # certify share the bound's BoundData, so each lambda's truncated
        # risks are computed once
        losses = (np.random.default_rng(4).random((60, 5)) < 0.3).astype(float)
        task = self.task(tmp_path, {"schema": 1, "n": 60, "eps": 0.1, "C": 1.0,
                                    "prior": [0.2] * 5, "emp_risk": losses.mean(axis=0).tolist(),
                                    "losses": losses.tolist()})
        monkeypatch.setattr(divergences, "_FAMILY_BLOCK", 5)
        calls = []
        real = bounds.truncated_empirical_risk
        monkeypatch.setattr(bounds, "truncated_empirical_risk",
                            lambda losses, n, lam: calls.append(lam) or real(losses, n, lam))
        cli.compare_bounds(task)
        lams = bounds.BOUND_TABLE["truncated"].search(60, 5, 0.1, 1.0)
        assert len(lams) > 1
        assert sorted(calls) == sorted(lams)


class TestViolate:
    def test_guarantee_and_summary(self, generative_instance, tmp_path, capsys):
        out = tmp_path / "v.csv"
        rc = cli.main([
            "violate", generative_instance, "--bound", "seeger",
            "--trials", "300", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,seed,excess_risk,bound_value,violated"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 300
        summary = [l for l in lines if l.startswith("#")]
        rate = float(summary[1].split("violation_rate=")[1].split(" ")[0])
        se = math.sqrt(0.1 * 0.9 / 300)
        assert rate <= 0.1 + 3 * se

    def test_same_seed_byte_identical(self, generative_instance, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc = cli.main([
                "violate", generative_instance, "--bound", "catoni_linear",
                "--trials", "100", "--seed", "9", "--out", str(out),
            ])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_trials_exit_2(self, generative_instance, capsys):
        rc = cli.main([
            "violate", generative_instance, "--bound", "seeger", "--trials", "0",
        ])
        assert rc == 2

    def test_unknown_bound_exit_3(self, generative_instance):
        rc = cli.main([
            "violate", generative_instance, "--bound", "wat", "--trials", "5",
        ])
        assert rc == 3

    def test_heavy_tail_bounded_loss_bound_exit_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "heavy.json", {
            "schema": 1, "n": 300, "eps": 0.1, "C": 1.0,
            "task": {"kind": "heavy_tail", "means": [0.5, 0.6, 0.7], "sds": 0.5},
        })
        rc = cli.main(["violate", path, "--bound", "seeger", "--trials", "5"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "seeger" in err and "heavy_tail" in err

    def test_missing_task_spec_exit_3(self, small_instance):
        rc = cli.main([
            "violate", small_instance, "--bound", "seeger", "--trials", "5",
        ])
        assert rc == 3

    def test_corruption_control(self, generative_instance, tmp_path):
        out = tmp_path / "c.csv"
        rc = cli.main([
            "violate", generative_instance, "--bound", "seeger",
            "--trials", "200", "--seed", "1", "--corruption", "0.5",
            "--out", str(out),
        ])
        assert rc == 0
        summary = [l for l in out.read_text().splitlines() if l.startswith("#")]
        rate = float(summary[1].split("violation_rate=")[1].split(" ")[0])
        assert rate > 0.5


class TestRates:
    def test_fast_rule_summary_slope(self, tmp_path):
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 100, "eps": 0.05, "C": 1.0,
            "prior": [0.25] * 4, "emp_risk": [0.0] * 4,
            "task": {"kind": "risk_table", "p": [0.0, 0.3, 0.4, 0.5]},
        })
        out = tmp_path / "r.csv"
        rc = cli.main([
            "rates", path, "--n-grid", "100,200,400,800,1600", "--reps", "40",
            "--rule", "fast", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 5
        slope_line = [l for l in lines if l.startswith("# slope=")][0]
        slope = float(slope_line.split("slope=")[1])
        assert slope <= -0.8

    def test_single_hypothesis_sentinel(self, tmp_path):
        path = write_json(tmp_path / "t.json", {
            "schema": 1, "n": 100, "eps": 0.05, "C": 1.0,
            "prior": [1.0], "emp_risk": [0.4],
            "task": {"kind": "risk_table", "p": [0.4]},
        })
        out = tmp_path / "r.csv"
        rc = cli.main([
            "rates", path, "--n-grid", "100,200,400,800,1600", "--reps", "5",
            "--out", str(out),
        ])
        assert rc == 0
        assert "# slope=NA" in out.read_text()

    def test_heavy_tail_exit_3(self, tmp_path, capsys):
        # C = inf set both rules' lambda to 0: every rep measured the prior
        path = write_json(tmp_path / "heavy.json", {
            "schema": 1, "n": 300, "eps": 0.1, "C": 1.0,
            "task": {"kind": "heavy_tail", "means": [0.5, 0.6, 0.7], "sds": 0.5},
        })
        for rule in ("fast", "slow"):
            rc = cli.main(["rates", path, "--n-grid", "100,200,400,800,1600", "--reps", "5",
                           "--rule", rule])
            assert rc == 3
            assert "heavy_tail" in capsys.readouterr().err

    def test_malformed_grid_exit_2(self, generative_instance):
        rc = cli.main([
            "rates", generative_instance, "--n-grid", "100,150,400,800,1600",
            "--reps", "5",
        ])
        assert rc == 2
        rc = cli.main(["rates", generative_instance, "--n-grid", "100,200", "--reps", "5"])
        assert rc == 2
