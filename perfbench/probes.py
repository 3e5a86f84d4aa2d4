"""Direct measurements with no shims installed, and the run's provenance.

These give the traced run the numbers spans cannot: interpreter import,
the first layer-by-layer baseline (the figures ROADMAP item 1 quotes), the
thread-pool speedup of ``_util.run_trials`` and the CPU use of
``compare_bounds`` at M=1e5 under both BLAS thread settings.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
)

COMPARE_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from pacbayes import cli
from probes import blas_info
task = cli.load_task_file(sys.argv[1])
cli.compare_bounds(task)
cpu, t = time.process_time(), time.perf_counter()
for _ in range(3):
    cli.compare_bounds(task)
wall = time.perf_counter() - t
print(json.dumps([(time.process_time() - cpu) / wall, wall / 3, blas_info()["blas_threads"]]))
"""


def child_env(src: Path, **overrides) -> dict:
    """This process's environment with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def fresh_import_s(src: Path, module: str = "pacbayes") -> float:
    """Seconds a fresh interpreter spends in ``import module``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET.format(module=module)],
                          capture_output=True, text=True, env=child_env(src), timeout=120,
                          check=True)
    return float(proc.stdout)


def blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    info = {"blas": "unknown", "blas_threads": -1}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return {"blas": config().decode(), "blas_threads": threads()}
    return info


def cache_bytes() -> dict:
    """L2 and L3 sizes of CPU 0, from sysfs."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(root: Path, env_seen: dict, workload: str, seed: int, input_bytes: int) -> dict:
    import pacbayes
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "pacbayes": pacbayes.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "PACBAYES_THREADS": env_seen["PACBAYES_THREADS"],
        "OPENBLAS_NUM_THREADS": env_seen["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(root),
        **cache_bytes(),
        "input_bytes": {workload: input_bytes},
    }


def mean_call_s(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls


def roadmap_baselines() -> dict:
    """ROADMAP item 1's layer numbers, at its sizes: the M=20, n=500 risk table."""
    from pacbayes import divergences, oracle_lab

    p = np.linspace(0.3, 0.6, 20)
    task = oracle_lab.make_synthetic_task("risk_table", {"p": p.tolist()}, 0)
    pi = divergences.DiscreteDistribution.uniform(20)
    h = -50.0 * p
    rng = np.random.default_rng(0)
    pairs = list(zip(rng.uniform(0.0, 0.9, 200).tolist(), rng.uniform(0.001, 0.5, 200).tolist()))

    def inversions():
        for q, b in pairs:
            divergences.kl_inverse_upper(q, b)

    def per_trial(bound_id, trials):
        return mean_call_s(lambda: oracle_lab.violation_experiment(
            task, bound_id, "gibbs", 500, 0.05, trials, 7), 1) / trials

    return {
        "baseline.gibbs_reweight_m20.us_per_call":
            (mean_call_s(lambda: divergences.gibbs_reweight(pi, h), 2000) * 1e6, "us"),
        "baseline.kl_inverse_upper.us_per_call": (mean_call_s(inversions, 5) / 200 * 1e6, "us"),
        "baseline.violation_seeger_m20.us_per_trial": (per_trial("seeger", 300) * 1e6, "us"),
        "baseline.violation_lambda_grid_m20.us_per_trial":
            (per_trial("lambda_grid", 100) * 1e6, "us"),
        "baseline.pi_dimension_m20.ms_per_call":
            (mean_call_s(lambda: oracle_lab.pi_dimension(pi, p, 1.0), 3) * 1e3, "ms"),
        "baseline.oracle_bound_rhs_m20.ms_per_call":
            (mean_call_s(lambda: oracle_lab.oracle_bound_rhs(
                task, pi, 100.0, "expectation", n=500), 5) * 1e3, "ms"),
    }


def threads2_speedup(ops) -> float:
    """mc_lab trials per second with PACBAYES_THREADS=2 over the rate with 1."""
    trial_ops = [op for op in ops if op.unit in ("trial", "rep")]
    rates = {"1": [], "2": []}
    try:
        for threads in ("1", "2", "2", "1"):
            os.environ["PACBAYES_THREADS"] = threads
            start = perf_counter()
            for op in trial_ops:
                op.call()
            rates[threads].append(sum(op.units for op in trial_ops) / (perf_counter() - start))
    finally:
        os.environ.pop("PACBAYES_THREADS", None)
    return statistics.median(rates["2"]) / statistics.median(rates["1"])


def compare_cpu_util(compare_op, task_path: Path, src: Path, blas_default) -> tuple[dict, int]:
    """CPU seconds over wall seconds of compare_bounds at M=1e5.

    In this process (one BLAS thread, set by the launcher) and in a child
    that keeps the environment's own BLAS setting; also returns the child's
    BLAS thread count.
    """
    compare_op.call()
    cpu, start = process_time(), perf_counter()
    for _ in range(3):
        compare_op.call()
    util = (process_time() - cpu) / (perf_counter() - start)
    proc = subprocess.run(
        [sys.executable, "-c", COMPARE_SNIPPET, str(task_path), str(HERE)],
        capture_output=True, text=True, timeout=170, check=True,
        env=child_env(src, OPENBLAS_NUM_THREADS=blas_default))
    util_default, ms_default, threads_default = json.loads(proc.stdout)
    return {
        "process.cpu_util.compare_m1e5": (util, "ratio"),
        "process.cpu_util.compare_m1e5_blas_default": (util_default, "ratio"),
        "cli.compare_bounds_m1e5_blas_default_ms": (ms_default * 1e3, "ms"),
    }, threads_default
