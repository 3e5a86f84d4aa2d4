"""Spans around every public function of the library, for the traced run.

``install`` wraps each public function of the six modules in a shim and
puts the shim on every module attribute that names the function
(``oracle_lab`` imports ``gibbs_reweight`` by name, for example), plus
``DiscreteDistribution.__post_init__`` and the tasks' ``sample_emp_risk``.
Nested calls therefore record child spans.  A span holds a name, start,
end, parent span, the op it belongs to and a status (returned, raised, or
returned an infinite float).  Spans stay in flat arrays in memory and are
written when the run ends.

Self time is a span's duration minus the time its direct children cover.
The benchmark opens one ``op`` span around each timed call; its self time
is the part of the op no library span covers, so for each op the layer
self times plus that remainder add up to the op's wall time.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import math
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "oracle_lab", "posteriors", "bounds", "divergences", "_util")
OK, RAISED, INFINITE = 0, 1, 2
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store; one per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.status = array.array("b")
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.status.append(OK)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Call fn() inside an op span tagged op_id; returns fn's result."""
        self._op = op_id
        idx = self._open(self.name_id(OP_SPAN))
        try:
            return fn()
        except BaseException:
            self.status[idx] = RAISED
            raise
        finally:
            self._close(idx)
            self._op = -1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.status[idx] = RAISED
                raise
            finally:
                self._close(idx)
            if type(result) is float and math.isinf(result):
                self.status[idx] = INFINITE
            return result

        return shim

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Shim every public function of the layers wherever it is named."""
        modules = [importlib.import_module(f"pacbayes.{layer}") for layer in LAYERS]
        shims = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    shims[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module("pacbayes"), *modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in shims:
                    self._patch(mod, attr, shims[obj])

        divergences, oracle_lab = modules[4], modules[1]
        dist = divergences.DiscreteDistribution
        self._patch(dist, "__post_init__",
                    self.wrap("divergences.DiscreteDistribution.__post_init__",
                              dist.__post_init__))
        sampler = "oracle_lab.SyntheticTask.sample_emp_risk"
        for cls in (oracle_lab.SyntheticTask, oracle_lab.RiskTableTask,
                    oracle_lab.ThresholdMarginTask, oracle_lab.HeavyTailTask):
            if "sample_emp_risk" in vars(cls):
                self._patch(cls, "sample_emp_risk", self.wrap(sampler, vars(cls)["sample_emp_risk"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Read-only view of a tracer's spans with per-span self time and layer."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.op, self.status = a["name"], a["parent"], a["op"], a["status"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        cover = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - cover
        layer_of_name = np.array([n.split(".", 1)[0] for n in self.names] or [""], dtype=object)
        self.layer = layer_of_name[self.name] if self.dur.size else np.array([], dtype=object)
        parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], "")
        #: a span whose caller is in another layer (or the benchmark) enters its layer
        self.entry = self.layer != parent_layer

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans called ``name``."""
        if name not in self.names:
            return np.array([], dtype=int)
        return np.flatnonzero(self.name == self.names.index(name))

    def layer_entries(self, layer: str) -> np.ndarray:
        return np.flatnonzero(self.entry & (self.layer == layer))

    def errors(self) -> np.ndarray:
        """Spans where an exception left a public function, once per exception and layer.

        A raise that passes through several public functions of one layer
        counts at the outermost of them.
        """
        raised = self.status == RAISED
        has_parent = self.parent >= 0
        up = np.maximum(self.parent, 0)
        carried = has_parent & raised[up] & (self.layer[up] == self.layer)
        return np.flatnonzero(raised & ~carried)

    def accounting_error(self) -> float:
        """Largest |sum of self times in an op - op wall| over op wall, over all ops."""
        ops = self.ids(OP_SPAN)
        if ops.size == 0:
            return 0.0
        in_op = self.op >= 0
        per_op = np.bincount(self.op[in_op], weights=self.self_time[in_op],
                             minlength=int(self.op.max()) + 1)
        wall = self.dur[ops]
        return float(np.max(np.abs(per_op[self.op[ops]] - wall) / wall))
