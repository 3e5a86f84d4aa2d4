"""Host-speed reference: a fixed calibration kernel timed next to every op.

The reference machine is a 2-vCPU guest on a shared host. The host changes
the guest's speed by up to 2.4x, for seconds to minutes at a time, and the
guest cannot see it: CPU time tracks wall time and there is almost no steal
time (see README.md, Noise). A wall-clock figure from one 25 s run therefore
says as much about the host as about the program.

So the untraced runs time a fixed kernel before every op and after the last
one. The kernel does the kinds of work the workloads do: interpreter
bytecode, small numpy calls and a pass over an array that fits in the L2
cache. It never touches ``pacbayes``, so a change to the library cannot
change its time; only the host can. Each op's wall time (and CPU time) is
multiplied by ``REF_KERNEL_S`` over the median kernel time around it. The
result is in *reference seconds*: the time the op would take on a host that
runs the kernel in exactly ``REF_KERNEL_S``. The reference machine runs it
in about that time when its host is fast, so a reference millisecond there
is about a wall millisecond in a fast spell.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The kernel's time on the reference host when it runs fast.
REF_KERNEL_S = 0.0033
#: Kernel samples on each side of an op that its scale is taken over.
HALF_WINDOW = 3

_LOOP = 15_000
_NUMPY_CALLS = 200
_SMALL = np.linspace(0.1, 0.9, 20)
_LARGE = np.linspace(0.1, 0.9, 200_000)
_EXPECTED = sum(i * i for i in range(_LOOP))


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    start = perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    acc = 0.0
    for _ in range(_NUMPY_CALLS):
        w = np.exp(-3.0 * _SMALL)
        w /= w.sum()
        acc += float(np.log(w) @ w)
    acc += float(np.log1p(np.exp(-3.0 * _LARGE)).sum())
    elapsed = perf_counter() - start
    if total != _EXPECTED or not np.isfinite(acc):
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


class HostClock:
    """Kernel samples taken between timed intervals, and the scale of each interval.

    Call ``mark()`` before each interval and once after the last; interval
    ``i`` then lies between samples ``i`` and ``i + 1``.
    """

    def __init__(self):
        self.samples: list = []

    def mark(self, runs: int = 1) -> None:
        """Take one sample: the median time of ``runs`` kernel runs."""
        self.samples.append(statistics.median(kernel_s() for _ in range(runs)))

    def scales(self) -> list:
        """Reference seconds per wall second of each interval.

        An interval's scale uses the median of the ``HALF_WINDOW`` samples
        on each side of it.
        """
        out = []
        for i in range(len(self.samples) - 1):
            window = self.samples[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
            out.append(REF_KERNEL_S / statistics.median(window))
        return out
