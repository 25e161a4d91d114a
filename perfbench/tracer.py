"""Spans around calls into hypalign's public functions, installed from outside.

The benchmark changes nothing under ``src/``.  It replaces each traced
function wherever a hypalign module binds it (modules import names
directly, so ``trainer.entailment_loss`` and ``objectives.exterior_angle``
are separate bindings of one function) and restores every binding when the
tracer is closed.

A span records its name, start, end, parent span and the growth of the
current tape across the call.  The current tape is the most recently built
``autodiff.Tape``; a call that builds a new tape (``trainer.step``) counts
the new tape's whole length.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import gc
import gzip
import os
import sys
import time
from array import array
from collections import defaultdict

#: Traced functions per module, in the order the per-layer metrics list them.
TARGETS = {
    "autodiff": ("backward",),
    "geometry": ("exp_map_origin", "lorentz_distance", "exterior_angle",
                 "half_aperture"),
    "objectives": ("classification_loss", "euclidean_contrastive_loss",
                   "hyperbolic_contrastive_loss", "entailment_loss",
                   "bbox_regression_loss"),
    "fusion": ("cross_modal_attention", "positional_encode", "fuse"),
    "trainer": ("step", "evaluate_retrieval", "hierarchy_report",
                "export_embeddings", "save_state", "load_state"),
    "datasynth": ("synth_corpus", "nms", "caption_noise_metric",
                  "write_corpus", "read_corpus"),
}

#: CLI commands the benchmark calls; their spans are opened by the caller.
CLI_COMMANDS = ("gen-corpus", "noise-metric", "eval", "export-embeddings")

_UNITS = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op",
          "gc_ms": "ms/op", "nodes": "nodes/op", "self_nodes": "nodes/op",
          "bytes": "B/op", "records": "records/op", "failed": "fails/op",
          "active_ratio": "ratio", "kept_ratio": "ratio"}


def _layer_fields():
    spec = [("autodiff.backward", ("calls", "ms", "nodes")),
            ("autodiff.hinge", ("active_ratio",))]
    for name in TARGETS["geometry"]:
        spec.append((f"geometry.{name}", ("calls", "ms", "nodes")))
    for name in TARGETS["objectives"]:
        spec.append((f"objectives.{name}", ("ms", "self_ms", "nodes")))
    for name in TARGETS["fusion"]:
        spec.append((f"fusion.{name}", ("calls", "ms", "nodes")))
    spec += [
        ("trainer.step", ("ms", "self_ms", "self_nodes", "gc_ms", "failed")),
        ("trainer.evaluate_retrieval", ("calls", "ms", "self_ms")),
        ("trainer.hierarchy_report", ("calls", "ms", "self_ms")),
        ("trainer.export_embeddings", ("ms",)),
        ("trainer.save_state", ("ms", "bytes")),
        ("trainer.load_state", ("ms",)),
        ("datasynth.synth_corpus", ("ms", "records")),
        ("datasynth.nms", ("calls", "ms", "kept_ratio")),
        ("datasynth.caption_noise_metric", ("ms",)),
        ("datasynth.write_corpus", ("ms", "bytes")),
        ("datasynth.read_corpus", ("ms", "records")),
    ]
    for cmd in CLI_COMMANDS:
        spec.append((f"cli.{cmd}", ("ms", "self_ms", "failed")))
    return spec


#: (metric name, unit) of every per-layer metric a traced run reports.
LAYER_METRICS = tuple((f"{span}.{field}", _UNITS[field])
                      for span, fields in _layer_fields() for field in fields)


def hypalign_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hypalign"
                                  or name.startswith("hypalign."))]


class Patches:
    """Replaces a function in every hypalign module that binds it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> int:
        count = 0
        for module in hypalign_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    count += 1
        return count

    def set_attr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with per-layer aggregation."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # one entry per span, in opening order; arrays keep a traced run of
        # several hundred thousand spans to a few tens of MB
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nodes = array("q")
        self.failed = array("b")
        self.counters = defaultdict(float)
        self.tape = None
        self.tapes_built = 0
        self._stack: list = []
        self._gc_start = None
        self._patches = Patches()
        self._step_id = self._name_id("trainer.step")
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str):
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.nodes.append(0)
        self.failed.append(0)
        self._stack.append(idx)
        tape = self.tape
        self.start.append(time.perf_counter())
        return idx, tape, (len(tape) if tape is not None else 0)

    def close(self, token, ok: bool = True) -> None:
        end = time.perf_counter()
        idx, tape, before = token
        self.end[idx] = end
        now = self.tape
        if now is not tape:
            self.nodes[idx] = len(now)   # tape built inside this call
        elif now is not None:
            self.nodes[idx] = len(now) - before
        self.failed[idx] = 0 if ok else 1
        self._stack.pop()

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            pause = time.perf_counter() - self._gc_start
            self._gc_start = None
            if any(self.name_of[i] == self._step_id for i in self._stack):
                self.counters["trainer.step.gc_ms"] += pause * 1e3

    def _shim(self, name, fn, before=None, after=None):
        tracer = self

        def shim(*args, **kwargs):
            if before is not None:
                before(args)
            token = tracer.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.close(token, ok)
            if after is not None:
                after(args, result)
            return result

        shim.__name__ = getattr(fn, "__name__", name)
        shim.__doc__ = getattr(fn, "__doc__", None)
        shim.__wrapped__ = fn
        return shim

    # -- hooks for counts measured at a layer boundary ---------------------

    def _after_step(self, args, result):
        # the step's tape is reached through the returned loss Var
        total = result[1].total
        tape = getattr(total, "tape", None)
        if tape is None:
            return
        hinge = self._hinge_opcode
        active = seen = 0
        for (opcode, _, _), value in zip(tape.ops, tape.values):
            if opcode == hinge:
                if isinstance(value, float):
                    seen += 1
                    active += value != 0.0
                else:
                    seen += value.size
                    active += int((value != 0.0).sum())
        self.counters["autodiff.hinge.active"] += active
        self.counters["autodiff.hinge.seen"] += seen

    def _before_backward(self, args):
        self.counters["autodiff.backward.nodes"] += len(args[0])

    def _after_nms(self, args, result):
        self.counters["datasynth.nms.in"] += len(args[0])
        self.counters["datasynth.nms.kept"] += len(result)

    def _after_synth(self, args, result):
        self.counters["datasynth.synth_corpus.records"] += len(result[0])

    def _after_read(self, args, result):
        self.counters["datasynth.read_corpus.records"] += len(result)

    def _after_write_corpus(self, args, result):
        self.counters["datasynth.write_corpus.bytes"] += os.path.getsize(
            args[0])

    def _after_save_state(self, args, result):
        self.counters["trainer.save_state.bytes"] += os.path.getsize(args[0])

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        """Shim every target and start tracking tapes and GC pauses."""
        import hypalign
        from hypalign import autodiff

        self._hinge_opcode = autodiff._OP_NAMES.index("hinge")
        hooks = {
            "autodiff.backward": (self._before_backward, None),
            "trainer.step": (None, self._after_step),
            "datasynth.nms": (None, self._after_nms),
            "datasynth.synth_corpus": (None, self._after_synth),
            "datasynth.read_corpus": (None, self._after_read),
            "datasynth.write_corpus": (None, self._after_write_corpus),
            "trainer.save_state": (None, self._after_save_state),
        }
        for module_name, functions in TARGETS.items():
            module = getattr(hypalign, module_name)
            for fname in functions:
                name = f"{module_name}.{fname}"
                original = getattr(module, fname)
                before, after = hooks.get(name, (None, None))
                shim = self._shim(name, original, before, after)
                if not self._patches.replace(original, shim):
                    raise RuntimeError(f"no binding found for {name}")

        tracer = self
        tape_init = autodiff.Tape.__init__

        def tracked_init(tape, *args, **kwargs):
            tape_init(tape, *args, **kwargs)
            tracer.tape = tape
            tracer.tapes_built += 1

        self._patches.set_attr(autodiff.Tape, "__init__", tracked_init)
        gc.callbacks.append(self._gc_callback)

    def close_all(self) -> None:
        """Remove every shim and the GC callback."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self._patches.restore()

    # -- aggregation -------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: calls, ms, self_ms, nodes, self_nodes, failed."""
        n = len(self.start)
        child_ms = [0.0] * n
        child_nodes = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ms[p] += self.end[i] - self.start[i]
                child_nodes[p] += self.nodes[i]
        out = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            agg = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["ms"] += dur * 1e3
            agg["self_ms"] += (dur - child_ms[i]) * 1e3
            agg["nodes"] += self.nodes[i]
            agg["self_nodes"] += self.nodes[i] - child_nodes[i]
            agg["failed"] += self.failed[i]
        return out

    def layer_metrics(self, ops: int) -> dict:
        """Every per-layer metric, normalised per operation (step or CLI
        command); ratios are not normalised and read 0 with no attempts."""
        totals = self.span_totals()
        c = self.counters
        special = {
            "autodiff.backward.nodes": c["autodiff.backward.nodes"],
            "autodiff.hinge.active_ratio": _ratio(c["autodiff.hinge.active"],
                                                  c["autodiff.hinge.seen"]),
            "trainer.step.gc_ms": c["trainer.step.gc_ms"],
            "trainer.save_state.bytes": c["trainer.save_state.bytes"],
            "datasynth.synth_corpus.records":
                c["datasynth.synth_corpus.records"],
            "datasynth.nms.kept_ratio": _ratio(c["datasynth.nms.kept"],
                                               c["datasynth.nms.in"]),
            "datasynth.write_corpus.bytes": c["datasynth.write_corpus.bytes"],
            "datasynth.read_corpus.records":
                c["datasynth.read_corpus.records"],
        }
        out = {}
        for name, unit in LAYER_METRICS:
            span, field = name.rsplit(".", 1)
            value = (special[name] if name in special
                     else totals.get(span, {}).get(field, 0.0))
            if unit != "ratio":
                value = value / ops if ops else 0.0
            out[name] = {"value": float(value), "unit": unit}
        return out

    def steps_self_nodes_check(self) -> list:
        """Per ``trainer.step`` span: (tape length, sum of self nodes of the
        step and every span below it).  Equal when each node is attributed
        exactly once."""
        n = len(self.start)
        children = defaultdict(list)
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)
        out = []
        for i in range(n):
            if self.name_of[i] != self._step_id:
                continue
            total, todo = 0, [i]
            while todo:
                j = todo.pop()
                kids = children.get(j, ())
                total += self.nodes[j] - sum(self.nodes[k] for k in kids)
                todo.extend(kids)
            out.append((self.nodes[i], total))
        return out

    def nodes_under(self, name: str, parent: str) -> int:
        """Nodes recorded by ``name`` spans whose direct parent is a
        ``parent`` span."""
        nid, pid = self._name_ids.get(name), self._name_ids.get(parent)
        return sum(self.nodes[i] for i in range(len(self.start))
                   if self.name_of[i] == nid and self.parent[i] >= 0
                   and self.name_of[self.parent[i]] == pid)

    def calls_within(self, prefix: str, ancestor: str) -> int:
        """Calls of spans named ``prefix*`` made inside an ``ancestor``
        span, at any depth."""
        aid = self._name_ids.get(ancestor)
        ids = {i for name, i in self._name_ids.items()
               if name.startswith(prefix)}
        count = 0
        for i in range(len(self.start)):
            if self.name_of[i] in ids:
                p = self.parent[i]
                while p >= 0 and self.name_of[p] != aid:
                    p = self.parent[p]
                count += p >= 0
        return count

    def write(self, path) -> int:
        """Write all spans as gzip JSON lines; times in ms from the start."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"id":{i},"name":"{self.names[self.name_of[i]]}",'
                    f'"start_ms":{(self.start[i] - t0) * 1e3:.4f},'
                    f'"end_ms":{(self.end[i] - t0) * 1e3:.4f},'
                    f'"parent":{self.parent[i]},"nodes":{self.nodes[i]},'
                    f'"failed":{"true" if self.failed[i] else "false"}}}\n')
        return len(self.start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
