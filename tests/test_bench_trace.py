"""The traced benchmark reads a span of every public function it names.

``perfbench/run.py --trace 1`` exits 1 when a per-layer metric is not
finite, and a metric is NaN when neither the workload's loop nor the probe
pass calls the function it names (routing ``_lambda_grid`` around
``minimize_bound_grid`` did that once).  This runs the traced pass in
miniature: one in-process cycle of a workload as the loop, the probe mixes
once, and every metric of ``layers.layer_metrics`` must be finite.  The
benchmark's modules are imported from ``perfbench/`` and left unchanged.
"""

import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = BENCH.parent / "src"


def traced_pass(tracer, workload, ops_by_id):
    tracer.install()
    try:
        for op in workload.ops:
            ops_by_id.append(op)
            tracer.run_op(len(ops_by_id) - 1, op.call)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", ["cli_roundtrip", "mc_lab"])
def test_every_layer_metric_is_finite(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from layers import Source, layer_metrics
    from tracing import Tracer

    def build(which):
        return workloads.build(which, 0, tmp_path / which, SRC, in_process=True)

    loop_tracer, loop_ops = Tracer(), []
    traced_pass(loop_tracer, build(name), loop_ops)
    probe_tracer, probe_ops = Tracer(), []
    for probe in (build("cli_roundtrip"), build("mc_lab"), workloads.posterior_probe(0)):
        traced_pass(probe_tracer, probe, probe_ops)

    metrics = layer_metrics(Source(loop_tracer, loop_ops), Source(probe_tracer, probe_ops))
    assert not [key for key, (value, _) in metrics.items() if not math.isfinite(value)]
