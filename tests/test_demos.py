"""Byte-for-byte standard output of the narrative demos.

``golden_demos.json`` maps each demo below to the stdout it printed when it
was recorded.  Each demo runs in a fresh interpreter that imports pacbayes
from this checkout's ``src``.  demos/03_violation_lab.py, the slowest, runs
its 16,000 violation trials in about 2 s since the lab stacks them into
blocked array passes (about 4 s one trial at a time).  Re-record only the
demos a deliberate output change touches, naming them (an unknown name exits
non-zero and writes nothing); with no names every demo is re-recorded:

    python tests/test_demos.py DEMO ...
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_demos.json")
DEMOS = (
    "01_bound_catalog.py",
    "02_posterior_constructions.py",
    "03_violation_lab.py",
    "04_rates_and_localization.py",
    "05_gaussian_variational.py",
    "06_online_forecaster.py",
)


def run_demo(name: str) -> str:
    """The stdout of demos/<name>, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return proc.stdout


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_demo(golden):
    assert sorted(golden) == sorted(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_byte_identical(name, golden):
    assert run_demo(name) == golden[name]


def record(names=()) -> None:
    """Rewrite golden_demos.json from the current demos, for names or, if none, every demo."""
    unknown = sorted(set(names) - set(DEMOS))
    if unknown:
        sys.exit(f"unknown demos: {', '.join(unknown)}")
    recorded = json.loads(GOLDEN.read_text()) if names else {}
    for name in names or DEMOS:
        recorded[name] = run_demo(name)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} of {len(DEMOS)} demos on file", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
