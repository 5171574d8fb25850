"""Span tracer that wraps homsums' public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, op id) in
flat in-memory arrays; the spans are written out once, when the run ends.
Installing the tracer replaces *every* binding of a wrapped function in the
loaded ``homsums`` modules, so calls that go through ``from .contract import
weighted_sum``-style imports are seen as well as calls through the package.

Besides spans, a few counts are taken at the same boundaries:

* a partition-class build is the first call of ``contract.grouped_types``
  with given arguments in a process (later calls hit its cache); its class
  size is the sum of the returned multiplicities;
* a distinct contraction is a ``KernelContractor.type_value`` call whose
  (contractor, k, type) was not seen before in the same op;
* Monte Carlo samples drawn, and bytes per sample *computed* from the array
  shapes ``estimate_moment`` builds (not measured).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

SETUP, OPS = "setup", "ops"


def _functions():
    """(span name, owner, attribute, hook name) for every traced callable."""
    from homsums import classical, contract, diagnostics, free, kernels, montecarlo, verify

    return [
        ("partitions.grouped_types", contract, "grouped_types", "_on_class"),
        ("contract.type_value", contract.KernelContractor, "type_value", "_on_type_value"),
        ("contract.weighted_sum", contract, "weighted_sum", None),
        ("kernels.int_entries", kernels.Kernel, "int_entries", None),
        ("kernels.slice_kernel", kernels, "slice_kernel", None),
        ("kernels.contraction_square_sum", kernels, "contraction_square_sum", None),
        ("classical.gaussian_fourth_moment", classical, "gaussian_fourth_moment", None),
        ("classical.formula", classical, "classical_fourth_moment_formula", None),
        ("classical.oracle", classical, "classical_fourth_moment_oracle", None),
        ("free.formula", free, "free_fourth_moment", None),
        ("free.oracle", free, "free_fourth_moment_oracle", None),
        ("free.semicircular_moment", free, "semicircular_moment", None),
        ("free.contraction_identity", free, "semicircular_fourth_moment_contraction", None),
        ("diagnostics.analyze_family", diagnostics, "analyze_family", None),
        ("verify.run_verification", verify, "run_verification", None),
        ("montecarlo.estimate_moment", montecarlo, "estimate_moment", "_on_estimate"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()  # (count name, phase) -> value
        self.builds: list[tuple[int, float, int]] = []  # (op id, seconds, class size)
        self._stack: list[int] = []
        self._seen_classes: set = set()
        self._op_types: set = set()
        self._op_contractors: list = []  # keeps ids in _op_types unique within an op
        self._restore: list[tuple[object, str, object]] = []

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        self._op_types.clear()
        self._op_contractors.clear()

    @property
    def _phase(self) -> str:
        return OPS if self.op_id >= 0 else SETUP

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in loaded homsums modules."""
        modules = [m for k, m in sys.modules.items() if k == "homsums" or k.startswith("homsums.")]
        for span, owner, attr, hook in _functions():
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, getattr(self, hook) if hook else None)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, span: str, fn, hook):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks -----------------------------------------------------------------

    def _on_class(self, args, kwargs, result, seconds) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._seen_classes:
            return
        self._seen_classes.add(key)
        self.builds.append((self.op_id, seconds, sum(entry[-1] for entry in result)))

    def _on_type_value(self, args, kwargs, result, seconds) -> None:
        contractor, rest = args[0], args[1:] + tuple(sorted(kwargs.items()))
        key = (id(contractor), rest)
        if key not in self._op_types:
            self._op_types.add(key)
            self._op_contractors.append(contractor)
            self.counts["contract.type_value_distinct", self._phase] += 1

    def _on_estimate(self, args, kwargs, result, seconds) -> None:
        kernel = args[0] if args else kwargs["kernel"]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        support = kernel.support_size
        # float64 arrays per sample row: entries (n), gathered factors
        # (support x d), their products (support), Q and Q**order (2).
        per_sample = 8 * (kernel.n + support * kernel.d + support + 2)
        self.counts["montecarlo.samples", self._phase] += spec.sample_count
        self.counts["montecarlo.bytes_computed", self._phase] += per_sample * spec.sample_count

    def count(self, name: str, value: float) -> None:
        self.counts[name, self._phase] += value

    # -- child processes -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the spans, names and counts to ``path`` (a ``.npz`` file)."""
        extras = {
            "counts": [[k, ph, v] for (k, ph), v in self.counts.items()],
            "builds": self.builds,
        }
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            extras=np.array(json.dumps(extras)),
        )

    def absorb(self, path: str) -> None:
        """Append a child process's saved trace as part of the current op."""
        with np.load(path) as data:
            names = [str(x) for x in data["names"]]
            base = len(self.start)
            for nid, t0, t1, par in zip(data["name"], data["start"], data["end"], data["parent"]):
                span = names[nid]
                if span not in self.names:
                    self.names.append(span)
                self.name.append(self.names.index(span))
                self.start.append(float(t0))
                self.end.append(float(t1))
                self.parent.append(int(par) + base if par >= 0 else -1)
                self.op.append(self.op_id)
            extras = json.loads(str(data["extras"]))
        for key, _phase, value in extras["counts"]:
            self.counts[key, self._phase] += value
        self.builds.extend((self.op_id, s, size) for _op, s, size in extras["builds"])

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name over the op phase: (calls, total seconds, self seconds).
        Self time is the span's duration minus its direct children's."""
        name = np.array(self.name, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        op = np.array(self.op, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        in_ops = op >= 0
        k = len(self.names)
        calls = np.bincount(name[in_ops], minlength=k)
        total = np.bincount(name[in_ops], weights=dur[in_ops], minlength=k)
        selft = np.bincount(name[in_ops], weights=own[in_ops], minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(selft[i])) for i, n in enumerate(self.names)
        }
