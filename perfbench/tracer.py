"""Outside-in tracing of the wedderburn pipeline, from the benchmark's files.

Tracer.install() replaces the public functions of the pipeline modules, and
the public methods of Algebra, with timing wrappers.  Code inside the package
reaches them through module globals (linalg.matmul_mod, self.lmat), so the
wrappers also see internal calls; import-time aliases such as poly.mat_kernel
and the top-level wedderburn.full_isomorphism are rebound to the same
wrappers.  uninstall() puts every original back, so traced and untraced
passes can alternate in one process.

Every call becomes a span (name, start, end, parent, operation id), kept in
flat arrays and written out at the end.  Self time is a span's duration minus
that of its wrapped children; inclusive time counts only the outermost of
nested calls to one name.
"""

import inspect
import json
import sys
from array import array
from collections import Counter
from functools import partial
from time import perf_counter

import numpy as np

MODULES = ("linalg", "poly", "algebra", "radical", "idempotents", "blocks", "cli")

_FLOAT_SAFE = 2**53  # matmul_mod stays on float64 BLAS below this bound


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack = []
        self._child = []
        self._active = Counter()
        self._installed = []
        self._reports_seen = set()
        self.reset()

    def reset(self):
        """Zero the aggregate counters; spans are kept."""
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.extra = Counter()

    def begin_op(self, op_id):
        self.op_id = op_id
        self._reports_seen.clear()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._id(name)
        t = self

        def wrapper(*args, **kwargs):
            idx = len(t.start)
            t.start.append(0.0)
            t.end.append(0.0)
            t.name.append(nid)
            t.parent.append(t._stack[-1] if t._stack else -1)
            t.op.append(t.op_id)
            t._stack.append(idx)
            t._child.append(0.0)
            t._active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                t.start[idx] = t0
                t.end[idx] = t1
                t._stack.pop()
                dur = t1 - t0
                self_time = dur - t._child.pop()
                if t._child:
                    t._child[-1] += dur
                t._active[nid] -= 1
                t.calls[nid] += 1
                t.self_s[nid] += self_time
                if not t._active[nid]:
                    t.incl[nid] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_matmul(self, args, kwargs, result):
        m, k = np.shape(args[0])
        p = int(args[2] if len(args) > 2 else kwargs["p"])
        self.extra["matmul.flops"] += 2 * m * k * result.shape[1]
        if k * (p - 1) * (p - 1) >= _FLOAT_SAFE:
            self.extra["matmul.wide_calls"] += 1

    def _after_rref(self, args, kwargs, result):
        R = result[0]
        self.extra["rref.cells"] += R.size

    def _after_split(self, args, kwargs, result):
        if type(result).__name__ == "Split":
            self.extra["split.outcomes"] += 1

    def _after_berlekamp(self, args, kwargs, result):
        if self._active[self._ids["idempotents.split_once"]]:
            self.extra["split.factor_attempts"] += 1

    def _after_radical(self, args, kwargs, result):
        # radical_report is cached per presentation; count each chain once
        if id(result) not in self._reports_seen:
            self._reports_seen.add(id(result))
            self.extra["radical.stages"] += len(result.stage_dims)

    def _after_canonical(self, args, kwargs, result):
        self.extra["cli.report_bytes"] += len(result.encode())

    def install(self):
        import wedderburn
        from wedderburn.algebra import Algebra

        hooks = {
            "linalg.matmul_mod": self._after_matmul,
            "linalg.rref": self._after_rref,
            "idempotents.split_once": self._after_split,
            "poly.berlekamp_factor": self._after_berlekamp,
            "radical.radical_report": self._after_radical,
            "cli.canonical_json": self._after_canonical,
        }
        replaced = {}  # id(original) -> wrapper
        for short in MODULES:
            module = sys.modules[f"wedderburn.{short}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                replaced[id(obj)] = wrapper
                self._set(module, attr, wrapper)
        for attr, obj in list(vars(Algebra).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._set(Algebra, attr, self._wrap(f"algebra.{attr}", obj))
        # import-time aliases (poly.mat_kernel, wedderburn.full_isomorphism)
        modules = [wedderburn] + [sys.modules[f"wedderburn.{m}"] for m in MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def _get(self, counter, name):
        nid = self._ids.get(name)
        return 0 if nid is None else counter[nid]

    def layer_metrics(self):
        """Per-layer numbers accumulated since the last reset()."""
        calls = partial(self._get, self.calls)
        incl = partial(self._get, self.incl)
        own = partial(self._get, self.self_s)
        x = self.extra
        attempts = x["split.factor_attempts"]
        traced = sum(self.self_s.values())
        return {
            "linalg.matmul_mod.calls": calls("linalg.matmul_mod"),
            "linalg.matmul_mod.self_s": own("linalg.matmul_mod"),
            "linalg.matmul_mod.flops": x["matmul.flops"],
            "linalg.matmul_mod.wide_calls": x["matmul.wide_calls"],
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.self_s": own("linalg.rref"),
            "linalg.rref.cells": x["rref.cells"],
            "linalg.char_poly.calls": calls("linalg.char_poly"),
            # a share, not seconds: char_poly never runs when p > dim
            "linalg.char_poly.self_share": (own("linalg.char_poly") / traced
                                            if traced else 0.0),
            "linalg.min_poly.self_s": own("linalg.min_poly"),
            "linalg.inverse.self_s": own("linalg.inverse"),
            "poly.berlekamp_factor.calls": calls("poly.berlekamp_factor"),
            "poly.berlekamp_factor.self_s": own("poly.berlekamp_factor"),
            "algebra.from_doc.s": incl("algebra.from_doc"),
            "algebra.mul_vec.calls": calls("algebra.mul_vec"),
            "algebra.lmat.calls": calls("algebra.lmat"),
            "algebra.corner.calls": calls("algebra.corner"),
            "radical.radical_report.s": incl("radical.radical_report"),
            "radical.stage_count": x["radical.stages"],
            "idempotents.decompose_identity.s": incl("idempotents.decompose_identity"),
            "idempotents.split_once.calls": calls("idempotents.split_once"),
            "idempotents.equivalence_witness.s": incl("idempotents.equivalence_witness"),
            "idempotents.split_yield": (x["split.outcomes"] / attempts
                                        if attempts else 0.0),
            "blocks.full_isomorphism.self_s": own("blocks.full_isomorphism"),
            "blocks.group_by_equivalence.s": incl("blocks.group_by_equivalence"),
            "blocks.matrix_units.s": incl("blocks.matrix_units"),
            "blocks.verify_isomorphism.s": incl("blocks.verify_isomorphism"),
            "blocks.verify_report_doc.self_s": own("blocks.verify_report_doc"),
            "blocks.result_to_doc.s": incl("blocks.result_to_doc"),
            "cli.canonical_json.s": incl("cli.canonical_json"),
            "cli.report_bytes": x["cli.report_bytes"],
        }

    def write_spans(self, path):
        """Write every span as parallel columns (start/end in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            }, fh, separators=(",", ":"))
