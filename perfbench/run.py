"""pacbayes benchmark: three seeded workloads driven by one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_lab --seed 0 --seconds 25 --trace 0

One client issues one op at a time; the next op starts when the previous one
has finished.  The runner cycles through the workload's op mix in whole
cycles until ``--seconds`` have passed, checks every op's output, and prints
a table of metrics followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, with every time in reference seconds: wall time scaled
by a calibration kernel timed next to it, so that the shared host's changes
of speed cancel (hostspeed.py).  The table prints the wall-clock figures
beside them.  ``--trace 1`` reports the per-layer metrics of a traced run,
in wall time.  See README.md in this directory for the workloads and metrics.

The launcher pins OpenBLAS to one thread and leaves PACBAYES_THREADS unset
(the library default, 1); both settings are printed with the provenance.
The benchmark's other modules import numpy, so they are imported only after
those settings are made.  Everything the run writes goes under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"
DEFAULT_SEED = 0
SETUP_REPS = 3
#: Kernel runs per calibration mark around a set-up (its median is the sample).
SETUP_KERNEL_RUNS = 5
TIME_UNITS = {"ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
              "trials_per_s": "1/s", "cpu_s_per_op": "s", "setup_s": "s"}
WORKLOAD_NAMES = ("cli_roundtrip", "mc_lab", "wide_class")
TRIAL_UNITS = ("trial", "rep")


def pin_environment() -> dict:
    """Fix the thread settings before numpy loads; return what the environment had."""
    seen = {key: os.environ.get(key) for key in ("PACBAYES_THREADS", "OPENBLAS_NUM_THREADS")}
    os.environ.pop("PACBAYES_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return seen


@dataclass
class Loop:
    """What one closed-loop pass measured.

    ``ops``, ``latency`` (wall s), ``cpu`` (CPU s) and ``scale`` (reference
    seconds per wall second, see hostspeed.py) hold one entry per op run.
    """

    ops: list
    latency: list
    cpu: list
    scale: list
    minor_faults: int

    @classmethod
    def merge(cls, loops: list) -> "Loop":
        return cls(*([x for loop in loops for x in getattr(loop, f)]
                     for f in ("ops", "latency", "cpu", "scale")),
                   sum(loop.minor_faults for loop in loops))


class Checker:
    """Correctness gate: invariants, determinism within the run, reference values."""

    def __init__(self, reference):
        self.reference = reference
        self.first: dict = {}
        self.summaries: dict = {}
        self.attempted = 0
        self.failures: list = []

    def __call__(self, workload: str, op, result, error) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        key = (workload, op.name)
        try:
            if error is not None:
                raise CheckFailed(f"raised {type(error).__name__}: {error}")
            text, summary = op.render(result)
            if self.first.setdefault(key, text) != text:
                raise CheckFailed("output differs from the op's first output in this run")
            self.summaries.setdefault(workload, {}).setdefault(op.name, summary)
            if self.reference is not None and workload in self.reference:
                match_reference(summary, self.reference[workload].get(op.name))
        except Exception as exc:  # a failed op is counted and the run goes on
            self.failures.append(f"{workload}/{op.name}: {exc}")


def match_reference(summary: dict, want) -> None:
    """Values within a relative 1e-6 of the recorded ones, counts exactly."""
    from workloads import CheckFailed

    if want is None:
        raise CheckFailed("no reference value recorded for this op")
    got, expected = summary.get("values", []), want.get("values", [])
    if len(got) != len(expected) or not all(
            math.isclose(g, e, rel_tol=1e-6) for g, e in zip(got, expected)):
        raise CheckFailed(f"values {got} differ from the reference {expected}")
    if summary.get("counts", []) != want.get("counts", []):
        raise CheckFailed(f"counts {summary.get('counts')} differ from {want.get('counts')}")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_loop(workload, seconds: float, checker: Checker, tracer=None, ops_by_id=None,
             clock=None, child_cpu: bool = False) -> Loop:
    """Cycle through the mix in whole cycles until ``seconds`` have passed.

    With a tracer, each op runs inside an op span whose id indexes
    ``ops_by_id``.  With a ``HostClock``, the calibration kernel runs before
    each op and after the last, untimed.  ``child_cpu`` times the CPU of
    child processes instead of this one's.
    """
    ran, latency, cpu = [], [], []
    cpu_now = children_cpu_s if child_cpu else process_time
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    deadline = perf_counter() + seconds
    while True:
        for op in workload.ops:
            if clock is not None:
                clock.mark()
            c0, t0 = cpu_now(), perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    ops_by_id.append(op)
                    result = tracer.run_op(len(ops_by_id) - 1, op.call)
                error = None
            except Exception as exc:
                result, error = None, exc
            latency.append(perf_counter() - t0)
            cpu.append(cpu_now() - c0)
            ran.append(op)
            checker(workload.name, op, result, error)
        if perf_counter() >= deadline:
            break
    if clock is not None:
        clock.mark()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    scale = clock.scales() if clock is not None else [1.0] * len(ran)
    return Loop(ran, latency, cpu, scale, faults)


def set_up(name: str, seed: int, in_process: bool, reps: int, calibrate: bool = False):
    """Import, input generation and warm-up, ``reps`` times.

    Returns the workload and, per set-up, (wall s, reference s).  Import is
    timed in a fresh interpreter, since this one has imported the package
    already.  Warm-up runs every op of the mix once; for the CLI workload it
    runs one process, which is all a fresh process can reuse.  With
    ``calibrate``, the calibration kernel runs between the steps, untimed,
    and each step's time is scaled like an op's (see hostspeed.py).
    """
    import probes
    import workloads
    from hostspeed import HostClock

    def warm_up(op):
        try:
            op.call()
        except Exception:  # the loop runs the op again and counts the failure
            pass

    times = []
    for _ in range(reps):
        clock = HostClock()
        steps = []

        def step(fn, returns_seconds=False):
            if calibrate:
                clock.mark(SETUP_KERNEL_RUNS)
            start = perf_counter()
            result = fn()
            steps.append(result if returns_seconds else perf_counter() - start)
            return result

        step(lambda: probes.fresh_import_s(SRC), returns_seconds=True)
        wl = step(lambda: workloads.build(name, seed, WORK / name, SRC, in_process))
        for op in wl.ops[:1] if name == "cli_roundtrip" and not in_process else wl.ops:
            step(lambda: warm_up(op))
        if calibrate:
            clock.mark(SETUP_KERNEL_RUNS)
        scale = clock.scales() if calibrate else [1.0] * len(steps)
        times.append((sum(steps), sum(t * k for t, k in zip(steps, scale))))
    return wl, times


def timing_metrics(loop: Loop, scale: list, setup: list) -> dict:
    """The end-to-end time metrics, with each op's times multiplied by its ``scale``.

    The latency percentiles are taken over the ops of the mix, each op
    represented by its median latency in the run.  ``setup`` holds the
    seconds of each set-up, in the same time.
    """
    lat = [t * k for t, k in zip(loop.latency, scale)]
    trial = [(op.units, t) for op, t in zip(loop.ops, lat) if op.unit in TRIAL_UNITS]
    by_op: dict = {}
    for op, t in zip(loop.ops, lat):
        by_op.setdefault(op.name, []).append(t)
    typical = [statistics.median(v) for v in by_op.values()]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_ms_p50": statistics.median(typical) * 1e3,
        "latency_ms_p90": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3,
        "trials_per_s": sum(u for u, _ in trial) / sum(t for _, t in trial),
        "cpu_s_per_op": sum(c * k for c, k in zip(loop.cpu, scale)) / len(lat),
        "setup_s": statistics.median(setup),
    }


def end_to_end(loop: Loop, setup: list, cli_processes: bool) -> tuple[dict, dict, dict]:
    """The untraced metrics in reference time, the same in wall time, and their samples.

    Reference time (see hostspeed.py) cancels the host's changes of speed;
    the wall-clock figures are printed beside it for reading, not reported.
    """
    n = len(loop.latency)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli_processes else resource.RUSAGE_SELF)
    reference = timing_metrics(loop, loop.scale, [ref for _, ref in setup])
    wall = timing_metrics(loop, [1.0] * n, [w for w, _ in setup])
    metrics = {name: (value, TIME_UNITS[name]) for name, value in reference.items()}
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
    trial_ops = sum(op.unit in TRIAL_UNITS for op in loop.ops)
    mix = len({op.name for op in loop.ops})
    samples = {name: f"{n} ops" for name in metrics}
    samples.update(latency_ms_p50=f"{mix} op medians of {n // mix}",
                   latency_ms_p90=f"{mix} op medians of {n // mix}",
                   trials_per_s=f"{trial_ops} ops", setup_s=f"median of {len(setup)}",
                   peak_rss_mb="")
    return metrics, wall, samples


def save_loop(loop: Loop, clock, path: Path) -> None:
    """Write each op's name, wall and CPU seconds and scale, and the kernel samples."""
    path.write_text(json.dumps({
        "ops": [op.name for op in loop.ops], "latency_s": loop.latency, "cpu_s": loop.cpu,
        "scale": loop.scale, "kernel_s": clock.samples}))


class FallbackCounter(logging.Handler):
    """Counts pi_dimension's golden-section/grid disagreement warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("pi_dimension"):
            self.count += 1


def traced(args, seen_env: dict, checker: Checker):
    """Per-layer metrics: the workload's loop, direct probes, then a traced probe pass.

    Returns (metrics, workload).
    """
    import probes
    import workloads
    from layers import Source, layer_metrics, self_breakdown
    from tracing import Tracer

    name, seed = args.workload, args.seed
    wl, _ = set_up(name, seed, in_process=True, reps=1)
    others = {name: wl}
    for other in WORKLOAD_NAMES:
        if other != name:
            others[other] = workloads.build(other, seed, WORK / name / "probe" / other, SRC, True)
    # Untraced and traced cycles alternate, so both see the same host speed.
    counter = FallbackCounter()
    logging.getLogger("pacbayes.oracle_lab").addHandler(counter)
    loop_tracer, loop_ops = Tracer(), []
    plain_cycles, traced_cycles, loop_fallbacks = [], [], 0
    deadline = perf_counter() + args.seconds
    while not plain_cycles or perf_counter() < deadline:
        plain_cycles.append(run_loop(wl, 0, checker))
        before = counter.count
        loop_tracer.install()
        try:
            traced_cycles.append(run_loop(wl, 0, checker, loop_tracer, loop_ops))
        finally:
            loop_tracer.uninstall()
        loop_fallbacks += counter.count - before
    plain, traced_loop = Loop.merge(plain_cycles), Loop.merge(traced_cycles)

    cli_main = plain if name == "cli_roundtrip" else run_loop(others["cli_roundtrip"], 0, checker)
    metrics = {
        "cli.import_ms": (statistics.median(
            probes.fresh_import_s(SRC, "pacbayes.cli") for _ in range(3)) * 1e3, "ms"),
        "cli.main_ms": (statistics.median(cli_main.latency) * 1e3, "ms"),
        "process.cpu_util": (sum(plain.cpu) / sum(plain.latency), "ratio"),
        "process.minor_faults_per_op": (plain.minor_faults / len(plain.latency), "1/op"),
        "util.run_trials.threads2_speedup": (probes.threads2_speedup(others["mc_lab"].ops), "ratio"),
    }
    metrics.update(probes.roadmap_baselines())
    wide = others["wide_class"]
    compare_op = next(op for op in wide.ops if op.name == "compare_bounds")
    cpu, blas_default_threads = probes.compare_cpu_util(
        compare_op, wide.inputs["task_file"], SRC, seen_env["OPENBLAS_NUM_THREADS"])
    metrics.update(cpu)
    print(f"# BLAS threads with the environment's own setting: {blas_default_threads}")

    fallbacks_before_probe = counter.count
    probe_tracer, probe_ops = Tracer(), []
    probe_tracer.install()
    try:
        for probe in (others["cli_roundtrip"], others["mc_lab"], workloads.posterior_probe(seed)):
            run_loop(probe, 0, checker, probe_tracer, probe_ops)
    finally:
        probe_tracer.uninstall()
    loop_tracer.save(WORK / name / "spans_loop.npz")
    probe_tracer.save(WORK / name / "spans_probe.npz")

    loop = Source(loop_tracer, loop_ops, loop_fallbacks)
    metrics.update(layer_metrics(loop, Source(probe_tracer, probe_ops,
                                              counter.count - fallbacks_before_probe)))
    metrics["trace.overhead"] = (
        (len(plain.latency) / sum(plain.latency))
        / (len(traced_loop.latency) / sum(traced_loop.latency)), "ratio")
    breakdown = self_breakdown(loop)
    print("# traced op wall (ms/op) = layer self times + benchmark remainder: "
          + " + ".join(f"{k} {v:.4f}" for k, v in breakdown.items())
          + f" = {sum(breakdown.values()):.4f}")
    return metrics, wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record this run's results as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)
    if not (SRC / "pacbayes" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")

    seen_env = pin_environment()
    sys.path.insert(0, str(SRC))
    import pacbayes

    if Path(pacbayes.__file__).resolve().parent != (SRC / "pacbayes").resolve():
        print(f"perfbench: imported pacbayes from {pacbayes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes
    from hostspeed import HostClock

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())
    checker = Checker(reference)

    if args.trace:
        metrics, wl = traced(args, seen_env, checker)
        wall, samples = {}, {}
    else:
        cli_processes = args.workload == "cli_roundtrip"
        wl, setup = set_up(args.workload, args.seed, False, SETUP_REPS, calibrate=True)
        clock = HostClock()
        loop = run_loop(wl, args.seconds, checker, clock=clock, child_cpu=cli_processes)
        metrics, wall, samples = end_to_end(loop, setup, cli_processes)
        save_loop(loop, clock, WORK / args.workload / "loop.json")
    if args.write_reference:
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        doc[args.workload] = checker.summaries[args.workload]
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    env_seen = {
        "PACBAYES_THREADS": seen_env["PACBAYES_THREADS"] or "unset (library default 1)",
        "OPENBLAS_NUM_THREADS": f"1, pinned by the launcher (environment: "
                                f"{seen_env['OPENBLAS_NUM_THREADS'] or 'unset'})",
    }
    print("# provenance " + json.dumps(
        probes.provenance(ROOT, env_seen, args.workload, args.seed, wl.input_bytes)))
    for failure in checker.failures[:20]:
        print(f"# FAILED {failure}")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    failed = len(checker.failures)
    print(f"# {'metric':58s} {'reference':>16s} {'unit':8s} {'wall-clock':>16s} samples")
    for key, (value, unit) in metrics.items():
        wall_text = f"{wall[key]:16.6f}" if key in wall else " " * 16
        print(f"# {key:58s} {value:16.6f} {unit:8s} {wall_text} {samples.get(key, '')}")
    print(f"# {'failed_frac':58s} {failed / max(1, checker.attempted):16.6f} {'ratio':8s} "
          f"{checker.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
