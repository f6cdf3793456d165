"""In-memory span tracer wrapped around the public entry points of subpar.

The benchmark never edits the package: `install` replaces selected class
methods and module functions with wrappers that record one span per call
and `uninstall` puts the originals back.  A span holds its name, layer,
start, end, parent and thread.  Spans opened on a gateway pool thread
have no parent on their own thread; they attach to the `eval_batch`
span that is open at the time, since drivers issue one batch at a time.

Self time of a span is its duration minus the union of its children's
intervals, so instance spans that overlap on two pool threads are not
subtracted twice.
"""

import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (layer, owner path, attribute); owners are resolved inside `install`
# so that importing this module does not import subpar.
ENTRY_POINTS = (
    ("oracles", "subpar.oracles.SetOracle", "eval_batch"),
    ("instances", "subpar.instances.CutInstance", "evaluate_batch"),
    ("instances", "subpar.instances.CoverageInstance", "evaluate_batch"),
    ("multilinear", "subpar.multilinear.MultilinearOracle", "value_batch"),
    ("multilinear", "subpar.multilinear.MultilinearOracle", "gradient_batch"),
    ("multilinear", "subpar.multilinear.MultilinearOracle", "grad_and_value_batch"),
    ("continuous", "subpar.continuous", "run_core"),
    ("continuous", "subpar.continuous", "pre_process"),
    ("continuous", "subpar.continuous", "update"),
    ("discrete", "subpar.discrete", "estimate_tau"),
    ("discrete", "subpar.discrete", "discrete_preprocess"),
    ("discrete", "subpar.discrete", "discrete_update"),
    ("discrete", "subpar.discrete", "g_estimates"),
    ("discrete", "subpar.discrete", "finalize"),
)

LAYERS = ("oracles", "instances", "multilinear", "continuous", "discrete")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    rows: int = 0        # rows charged (eval_batch) or evaluated (evaluate_batch)
    width: int = 0       # ground-set size n of those rows


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._gateway = None          # open eval_batch span, parent of pool-thread spans
        self._saved = []

    # -- recording -------------------------------------------------------

    def _open(self, name, layer):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1].sid if stack else (self._gateway.sid if self._gateway else None)
        with self._lock:
            span = Span(len(self.spans), name, layer, parent, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def root(self, name):
        """A benchmark-level span (one solve)."""
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, layer, qualname, fn):
        tracer = self
        if layer == "oracles":
            def wrapper(oracle, subsets):
                span = tracer._open(qualname, layer)
                before = oracle.accounting.queries
                tracer._gateway = span
                try:
                    return fn(oracle, subsets)
                finally:
                    tracer._gateway = None
                    span.rows = oracle.accounting.queries - before
                    span.width = oracle.n
                    tracer._close(span)
        elif layer == "instances":
            def wrapper(instance, members):
                span = tracer._open(qualname, layer)
                span.rows, span.width = members.shape
                try:
                    return fn(instance, members)
                finally:
                    tracer._close(span)
        else:
            def wrapper(*args, **kwargs):
                span = tracer._open(qualname, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for layer, owner_path, attr in ENTRY_POINTS:
            mod_path, _, name = owner_path.rpartition(".")
            owner = getattr(importlib.import_module(mod_path), name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, f"{owner.__name__}.{attr}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per span id: duration minus the union of its children's intervals."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            lo = hi = None
            for a, b in sorted(children.get(s.sid, ())):
                a, b = max(a, s.start), min(b, s.end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out[s.sid] = (s.end - s.start) - covered
        return out

    def layer_metrics(self):
        """Per-layer aggregates of one traced pass (see README.md)."""
        selfs = self.self_times()
        by_id = {s.sid: s for s in self.spans}
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        busy = rows_eval = bytes_computed = 0
        max_batch = 0
        for s in self.spans:
            if s.layer in self_s:
                self_s[s.layer] += selfs[s.sid]
            short = s.name.rsplit(".", 1)[-1]
            calls[short] = calls.get(short, 0) + 1
            if s.layer == "instances":
                busy += s.end - s.start
                rows_eval += s.rows
                bytes_computed += s.rows * s.width * 9   # bool rows in + float64 cast
            elif s.layer == "oracles":
                parent = by_id.get(s.parent)
                if parent is not None and parent.layer == "discrete":
                    max_batch = max(max_batch, s.rows * s.width)
        charged = sum(s.rows for s in self.spans if s.layer == "oracles")
        return {
            "rounds": calls.get("eval_batch", 0),
            "rows_charged": charged,
            "rows_evaluated": rows_eval,
            "eval_ratio": rows_eval / charged if charged else 0.0,
            "self_s": self_s,
            "busy_s": busy,
            "bytes_computed": bytes_computed,
            "continuous_iterations": calls.get("update", 0),
            "discrete_iterations": calls.get("discrete_update", 0),
            "max_batch_bytes": max_batch,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "layer": s.layer,
                                     "parent": s.parent, "thread": s.thread,
                                     "start": s.start, "end": s.end,
                                     "rows": s.rows, "n": s.width}) + "\n")
