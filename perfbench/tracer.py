"""Outside-in tracer for the vertexlab layer modules.

The tracer never edits the program: it replaces the public functions of each
layer module with timing wrappers at runtime, including the copies other
modules bound with ``from .x import name`` and the values of module-level
dicts such as ``harness.CHECKS``.  Functions are discovered when the tracer is
installed, so a renamed or deleted function simply stops being traced.

Spans (id, parent, name, start, end, run id) are kept in memory and written
as JSONL at the end.  Layer self time, per-group inclusive time and per-call
counts are aggregated online, so they stay exact even after the stored span
list reaches its cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

# Hot scalar primitives: counted, never spanned.
COUNTED = frozenset(
    {
        "core.q_pochhammer",
        "vertex.vertex_weight_row",
        "qtasep.q_geom_pmf",
        "schur.schur_jacobi_trudi",
    }
)

MAX_STORED_SPANS = 200_000


class Tracer:
    """Spans, counters and aggregates for one traced phase."""

    def __init__(self, run_id: str, groups: dict | None = None, work_hooks=None,
                 max_spans: int = MAX_STORED_SPANS):
        self.run_id = run_id
        # group name -> set of qualified function names; a group's inclusive
        # time counts only its outermost active member
        self._groups_of = defaultdict(list)
        for g, names in (groups or {}).items():
            for n in names:
                self._groups_of[n].append(g)
        # qualified name -> fn(bound_arguments) -> {counter: increment}
        self.work_hooks = work_hooks or {}
        self.max_spans = max_spans
        self.spans: list = []  # [id, parent, name, start_ns, end_ns]
        self.dropped = 0
        self._stack: list = []  # [span_id, name, start_ns, child_ns, stored record]
        self._next_id = 1
        self._group_depth = defaultdict(int)
        self.op = None  # name of the benchmark op currently running
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.max_ns = defaultdict(int)
        self.group_ns = defaultdict(int)
        self.op_group_ns = defaultdict(int)  # (op, group) -> ns
        self.hook_errors = 0
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        start = time.perf_counter_ns()
        if len(self.spans) < self.max_spans:
            rec = [sid, parent, name, start, None]
            self.spans.append(rec)
        else:
            rec = None
            self.dropped += 1
        for g in self._groups_of.get(name, ()):
            self._group_depth[g] += 1
        frame = [sid, name, start, 0, rec]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        sid, name, start, child_ns, rec = frame
        dur = end - start
        if rec is not None:
            rec[4] = end
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        if dur > self.max_ns[name]:
            self.max_ns[name] = dur
        if self._stack:
            self._stack[-1][3] += dur
        for g in self._groups_of.get(name, ()):
            self._group_depth[g] -= 1
            if self._group_depth[g] == 0:
                self.group_ns[g] += dur
                self.op_group_ns[(self.op, g)] += dur

    def run_op(self, name: str, fn):
        """Run one benchmark op as a root span named "op:<name>"; returns fn()."""
        self.op = name
        frame = self._enter("op:" + name)
        try:
            return fn()
        finally:
            self._exit(frame)
            self.op = None

    # -- wrapping ------------------------------------------------------------

    def _spanned(self, fn, qual: str):
        tracer = self
        hook = self.work_hooks.get(qual)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, inc in hook(bound.arguments).items():
                        tracer.counts[key] += inc
                except (TypeError, KeyError, ValueError, AttributeError):
                    tracer.hook_errors += 1
            frame = tracer._enter(qual)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _counted(self, fn, qual: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, layers) -> None:
        """Wrap the public functions of package.<layer> for each layer and
        rebind every reference to them in the package's modules."""
        replacement = {}
        for layer in layers:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                qual = f"{layer}.{attr}"
                if qual in COUNTED or inspect.isgeneratorfunction(obj):
                    replacement[id(obj)] = self._counted(obj, qual)
                else:
                    replacement[id(obj)] = self._spanned(obj, qual)
        prefix = package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and isinstance(obj, types.FunctionType):
                    self._restore.append((vars(mod), attr, obj))
                    setattr(mod, attr, replacement[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replacement and isinstance(val, types.FunctionType):
                            self._restore.append((obj, key, val))
                            obj[key] = replacement[id(val)]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            owner[key] = original
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time per layer (the part of a name before the first dot);
        the benchmark's own op spans count as layer "bench"."""
        out: dict = defaultdict(float)
        for name, ns in self.self_ns.items():
            out["bench" if name.startswith("op:") else name.split(".", 1)[0]] += ns / 1e9
        return dict(out)

    def check_nesting(self) -> list:
        """Problems with the stored spans: unresolved parents, children not
        inside their parent, unfinished spans.  Empty when all is well."""
        by_id = {rec[0]: rec for rec in self.spans}
        problems = []
        for sid, parent, name, start, end in self.spans:
            if end is None:
                problems.append(f"span {sid} {name} never ended")
                continue
            if parent == 0:
                continue
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {sid} {name}: parent {parent} unresolved")
            elif not (p[3] <= start and (p[4] is None or end <= p[4])):
                problems.append(f"span {sid} {name} not inside parent {parent}")
        return problems

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": parent or None,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )

    def profile(self) -> dict:
        """Per-function calls, self time and longest call."""
        return {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_ns[name] / 1e9,
                "max_s": self.max_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }
