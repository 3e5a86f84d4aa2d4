"""Per-layer metrics from the traced run's spans.

Each metric reads the spans of the workload's own traced loop.  When the
workload's mix never calls the function a metric names (``ewa_run`` on
``mc_lab``, say), the metric reads the spans of the probe pass instead: one
in-process cycle of the ``cli_roundtrip`` and ``mc_lab`` mixes plus small
posterior calls, traced the same way.  Layer-wide figures (self time, calls
into ``bounds``, errors) always come from the loop.  Counts are per op, so
they do not depend on how many ops fit in the run.
"""

from __future__ import annotations

import numpy as np

from tracing import INFINITE, LAYERS, OP_SPAN, Spans


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so the ``_util`` module reports as ``util``."""
    return layer.lstrip("_")


class Source:
    """The spans of one traced pass and the Op behind each op id."""

    def __init__(self, tracer, ops_by_id: list, fallbacks: int = 0):
        self.spans = Spans(tracer)
        self.ops = ops_by_id
        self.n_ops = max(1, len(ops_by_id))
        self.fallbacks = fallbacks

    def units(self, ids) -> int:
        return sum(self.ops[op].units for op in self.spans.op[ids])


def layer_metrics(loop: Source, probe: Source) -> dict:
    """Every span-derived per-layer metric as {name: (value, unit)}."""

    def pick(select):
        """(source, ids) from the loop when select() finds spans there, else the probe."""
        ids = select(loop)
        return (loop, ids) if ids.size else (probe, select(probe))

    def named(name, tag=None):
        def select(src):
            ids = src.spans.ids(name)
            if tag is not None:
                ids = np.array([i for i in ids if src.ops[src.spans.op[i]].tag == tag], dtype=int)
            return ids
        return pick(select)

    def mean_ms(name):
        src, ids = named(name)
        return float(src.spans.dur[ids].mean()) * 1e3 if ids.size else float("nan")

    def per_op(name):
        src, ids = named(name)
        return ids.size / src.n_ops

    def per_unit_us(name, tag=None):
        src, ids = named(name, tag)
        return float(src.spans.dur[ids].sum()) / max(1, src.units(ids)) * 1e6

    out = {}
    for fn, key in (("load_task_file", "load_task_file_ms"), ("compare_bounds", "compare_bounds_ms"),
                    ("evaluate_bound", "evaluate_bound_ms")):
        out[f"cli.{key}"] = (mean_ms(f"cli.{fn}"), "ms")

    out["oracle_lab.violation_experiment.us_per_trial"] = (
        per_unit_us("oracle_lab.violation_experiment"), "us")
    for tag in ("seeger", "lambda_grid"):
        out[f"oracle_lab.violation_experiment.{tag}.us_per_trial"] = (
            per_unit_us("oracle_lab.violation_experiment", tag), "us")
    out["oracle_lab.rate_experiment.us_per_rep"] = (per_unit_us("oracle_lab.rate_experiment"), "us")
    out["oracle_lab.sample_emp_risk.us_per_call"] = (
        mean_ms("oracle_lab.SyntheticTask.sample_emp_risk") * 1e3, "us")
    for fn in ("pi_dimension", "oracle_bound_rhs", "localized_oracle_rhs"):
        out[f"oracle_lab.{fn}.ms_per_call"] = (mean_ms(f"oracle_lab.{fn}"), "ms")
    src, ids = named("oracle_lab.pi_dimension")
    out["oracle_lab.pi_dimension.grid_fallbacks"] = (src.fallbacks / max(1, ids.size), "1/call")

    out["posteriors.gibbs_posterior.calls"] = (per_op("posteriors.gibbs_posterior"), "1/op")
    out["posteriors.gibbs_posterior.us_per_call"] = (
        mean_ms("posteriors.gibbs_posterior") * 1e3, "us")
    out["posteriors.minimize_bound_grid.ms_per_call"] = (
        mean_ms("posteriors.minimize_bound_grid"), "ms")
    out["posteriors.optimize_gaussian_posterior.ms_per_iter"] = (
        per_unit_us("posteriors.optimize_gaussian_posterior") / 1e3, "ms")
    out["posteriors.ewa_run.us_per_round"] = (per_unit_us("posteriors.ewa_run"), "us")

    for fn in ("bound_seeger_maurer", "bound_localized_empirical"):
        out[f"bounds.{fn}.us_per_call"] = (mean_ms(f"bounds.{fn}") * 1e3, "us")

    for fn in ("gibbs_reweight", "kl_discrete", "kl_inverse_upper"):
        out[f"divergences.{fn}.calls"] = (per_op(f"divergences.{fn}"), "1/op")
        out[f"divergences.{fn}.us_per_call"] = (mean_ms(f"divergences.{fn}") * 1e3, "us")
    src, ids = named("divergences.kl_discrete")
    out["divergences.kl_discrete.inf_frac"] = (
        float(np.mean(src.spans.status[ids] == INFINITE)) if ids.size else 0.0, "ratio")
    src, inv = named("divergences.kl_inverse_upper")
    steps = np.isin(src.spans.parent[src.spans.ids("divergences.kl_bernoulli")], inv).sum()
    out["divergences.kl_bernoulli.calls_per_inverse"] = (steps / max(1, inv.size), "1/call")
    ctor = "divergences.DiscreteDistribution.__post_init__"
    out["divergences.DiscreteDistribution.constructions"] = (per_op(ctor), "1/op")
    out["divergences.DiscreteDistribution.us_per_construction"] = (mean_ms(ctor) * 1e3, "us")

    out["util.child_rng.calls"] = (per_op("_util.child_rng"), "1/op")
    out["util.child_rng.us_per_call"] = (mean_ms("_util.child_rng") * 1e3, "us")

    bounds_in = loop.spans.layer_entries("bounds")
    out["bounds.calls"] = (bounds_in.size / loop.n_ops, "1/op")
    out["bounds.us_per_call"] = (float(loop.spans.dur[bounds_in].mean()) * 1e6, "us")
    for layer, ms in self_breakdown(loop).items():
        if layer in LAYERS and layer != "cli":  # mc_lab's loop never enters cli
            out[f"{metric_prefix(layer)}.self_ms"] = (ms, "ms/op")
    errors = loop.spans.errors()
    for layer in LAYERS:
        out[f"{metric_prefix(layer)}.errors"] = (
            int(np.sum(loop.spans.layer[errors] == layer)) / loop.n_ops, "1/op")

    spans = loop.spans
    ops = spans.ids(OP_SPAN)
    out["trace.op_ms"] = (float(spans.dur[ops].mean()) * 1e3, "ms")
    out["trace.unattributed_ms"] = (float(spans.self_time[ops].mean()) * 1e3, "ms")
    out["trace.accounting_max_rel_err"] = (spans.accounting_error(), "ratio")
    return out


def self_breakdown(loop: Source) -> dict:
    """Mean self ms per op for each layer and for the benchmark's own remainder.

    The values add up to the mean traced op wall time.
    """
    spans = loop.spans
    in_op = spans.op >= 0
    out = {}
    for layer in (*LAYERS, "bench"):
        mask = in_op & (spans.layer == layer)
        out[layer] = float(spans.self_time[mask].sum()) / loop.n_ops * 1e3
    return out
