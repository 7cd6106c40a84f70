"""Outside-in tracing of matroidkit's layers.

The tracer rebinds every module-level name that refers to a traced function
(modules import each other's functions by name, so one function can be bound
in several modules) and the traced methods on their classes. Each wrapped
call records a span: id, root operation, parent, name, start and end. Spans
stay in memory until the run writes them out. Matroid.r is counted, not
spanned, because it runs millions of times per pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import matroidkit.cli  # noqa: F401  (bound names must exist before install)
from matroidkit.core import Matroid

# (module, attribute path) of every traced callable; a dotted path is a method
TRACED = (
    ("core", "rank_table"),
    ("core", "same_rank_function"),
    ("core", "validate_certificate"),
    ("core", "minor_with_map"),
    ("core", "parallel_classes"),
    ("representations", "GraphRep.rank_table_fast"),
    ("representations", "LinearRep.minor_rep"),
    ("representations", "GraphRep.minor_rep"),
    ("representations", "EvenCycleRep.minor_rep"),
    ("representations", "SignedGraphRep.minor_rep"),
    ("connectivity", "kappa"),
    ("tangles", "tangle_tk"),
    ("tangles", "is_tangle"),
    ("tangles", "induced_tangle"),
    ("tangles", "tangle_matroid"),
    ("isomorphism", "find_embedding"),
    ("minors", "has_minor"),
    ("minors", "is_graphic"),
    ("exchange", "load"),
    ("exchange", "dump"),
    ("cli", "main"),
)

# span name -> metric prefix; the four minor_rep methods report together
_PREFIX = {f"{mod}.{path}": f"{mod}.{path}" for mod, path in TRACED}
for _cls in ("LinearRep", "GraphRep", "EvenCycleRep", "SignedGraphRep"):
    _PREFIX[f"representations.{_cls}.minor_rep"] = "representations.minor_rep"

# per-layer metric name -> unit, in report order
LAYER_METRICS = {"core.Matroid.r.calls": "count",
                 "core.Matroid.r.miss_ratio": "ratio"}
for _prefix in dict.fromkeys(_PREFIX.values()):
    LAYER_METRICS[f"{_prefix}.calls"] = "count"
    LAYER_METRICS[f"{_prefix}.self_s"] = "s"
    if _prefix == "core.rank_table":
        LAYER_METRICS["core.rank_table.builds_per_matroid"] = "count"
        LAYER_METRICS["core.rank_table.fast_ratio"] = "ratio"
    if _prefix == "isomorphism.find_embedding":
        LAYER_METRICS["isomorphism.find_embedding.found_ratio"] = "ratio"
    if _prefix == "minors.has_minor":
        LAYER_METRICS["minors.has_minor.found_ratio"] = "ratio"
        LAYER_METRICS["minors.has_minor.embeddings_per_call"] = "count"
LAYER_METRICS["trace_overhead_ratio"] = "ratio"


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "matroidkit"
                                    or name.startswith("matroidkit."))]


def _resolve(mod_name: str, path: str):
    owner = importlib.import_module(f"matroidkit.{mod_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced run. install() wraps, uninstall()
    restores; while `active` is False the wrappers record nothing."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, root, parent, name, start, end)
        self.active = False
        self._stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._root = None
        self._next_id = 0
        self._restore: list[tuple] = []
        self._originals: dict[int, object] = {}
        self._builds: dict[int, int] = {}  # id(matroid) -> builds in this op
        self._built: list = []  # keeps counted matroids alive for the op
        self._in_has_minor = 0
        self.counts = dict.fromkeys(
            ("r_calls", "r_misses", "max_builds", "fast", "embed_found",
             "embed_in_has_minor", "minor_found"), 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        for mod_name, path in TRACED:
            owner, attr = _resolve(mod_name, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            self._originals[id(original)] = original
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
            for mod in _modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)
        self._rebind(Matroid, "r", self._counting_r(Matroid.r))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self._originals.clear()

    def missed_bindings(self) -> list[str]:
        """Names still bound to an unwrapped traced function: module
        attributes, class attributes, and items of module-level containers."""
        originals = self._originals
        missed = []
        for mod in _modules():
            for name, value in vars(mod).items():
                if id(value) in originals and value is originals[id(value)]:
                    missed.append(f"{mod.__name__}.{name}")
                items = ()
                if isinstance(value, dict):
                    items = value.values()
                elif isinstance(value, (list, tuple)):
                    items = value
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    items = vars(value).values()
                for item in items:
                    if id(item) in originals and item is originals[id(item)]:
                        missed.append(f"{mod.__name__}.{name}[...]")
        return missed

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def begin(self, op: str) -> None:
        """Open the root span of one benchmark operation."""
        self._root = self._next_id
        self._builds.clear()
        self._enter(f"op.{op}")

    def end(self) -> None:
        self._exit(self._stack[-1])
        self.counts["max_builds"] = max(self.counts["max_builds"],
                                        max(self._builds.values(), default=0))
        self._builds.clear()
        self._built.clear()
        self._root = None

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self._stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - child
        self.spans.append((span_id, self._root,
                           parent[0] if parent else None, name, start, end))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._before(name, args)
            frame = tracer._enter(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._exit(frame)
                tracer._after(name, out)

        return traced

    def _before(self, name: str, args) -> None:
        if name == "core.rank_table":
            m = args[0]
            self._builds[id(m)] = self._builds.get(id(m), 0) + 1
            self._built.append(m)
        elif name == "minors.has_minor":
            self._in_has_minor += 1
        elif name == "isomorphism.find_embedding" and self._in_has_minor:
            self.counts["embed_in_has_minor"] += 1

    def _after(self, name: str, out) -> None:
        if out is None:
            if name == "minors.has_minor":
                self._in_has_minor -= 1
            return
        if name == "representations.GraphRep.rank_table_fast":
            self.counts["fast"] += 1
        elif name == "isomorphism.find_embedding":
            self.counts["embed_found"] += 1
        elif name == "minors.has_minor":
            self._in_has_minor -= 1
            self.counts["minor_found"] += 1

    def _counting_r(self, r):
        counts = self.counts
        tracer = self

        @functools.wraps(r)
        def counted_r(m, mask):
            if tracer.active:
                counts["r_calls"] += 1
                if mask not in m._cache:
                    counts["r_misses"] += 1
            return r(m, mask)

        return counted_r

    # -- report ------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts and seconds are divided
        by the number of traced passes; ratios are not)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, (n, s) in self._stats.items():
            prefix = _PREFIX.get(name)
            if prefix is not None:
                calls[prefix] = calls.get(prefix, 0) + n
                self_s[prefix] = self_s.get(prefix, 0.0) + s

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out = {"core.Matroid.r.calls": c["r_calls"] / passes,
               "core.Matroid.r.miss_ratio": ratio(c["r_misses"], c["r_calls"])}
        for prefix in dict.fromkeys(_PREFIX.values()):
            out[f"{prefix}.calls"] = calls.get(prefix, 0) / passes
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0) / passes
        out["core.rank_table.builds_per_matroid"] = c["max_builds"]
        out["core.rank_table.fast_ratio"] = ratio(
            c["fast"], calls.get("core.rank_table", 0))
        out["isomorphism.find_embedding.found_ratio"] = ratio(
            c["embed_found"], calls.get("isomorphism.find_embedding", 0))
        out["minors.has_minor.found_ratio"] = ratio(
            c["minor_found"], calls.get("minors.has_minor", 0))
        out["minors.has_minor.embeddings_per_call"] = ratio(
            c["embed_in_has_minor"], calls.get("minors.has_minor", 0))
        out["trace_overhead_ratio"] = overhead
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: id, root, parent, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
