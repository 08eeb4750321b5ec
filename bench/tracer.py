"""Span tracer for the benchmark's traced run.

Nothing inside `groundsim` is instrumented. `Tracer.installed()` replaces the
public functions of the layer modules (and a few counted methods) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. The wrappers are installed under every name a
caller looks the function up by, so `from .reasoner import marginals_for` in
`harness` is traced as well as `reasoner.marginals_for`, and every original
is put back when the context exits, also on error.

Spans live in compact arrays in memory and are written out once, after the
timed body, by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

LAYER_MODULES = (
    "perception",
    "reasoner",
    "program",
    "exact",
    "memory",
    "agents",
    "dialogue",
    "harness",
)

# Methods traced in addition to the module-level functions: the layer
# boundaries whose calls are counted (exemplar writes, KB updates).
TRACED_METHODS = (
    ("perception", "ExemplarBase", "add"),
    ("memory", "KnowledgeBase", "add"),
    ("memory", "KnowledgeBase", "remove"),
)

# Spans the tracer itself opens to do per-call bookkeeping. They are children
# of the caller's span, so they are excluded from the caller's self time.
OBSERVE_SPAN = "trace.observe"


class Tracer:
    """In-memory span recorder.

    Span i has name `names[name_ids[i]]`, interval `[starts[i], ends[i]]`,
    parent index `parents[i]` (-1 for a root) and `outermost[i]` set when no
    enclosing open span has the same name, so inclusive times of recursive
    calls are not counted twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.outermost = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id

    def __len__(self):
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def open(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int):
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")
        self._active[self.name_ids[idx]] -= 1

    def sample(self, key: str, value: float):
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, observe=None):
        """A wrapper recording a span per call of `fn`. `observe(tracer,
        args, result)` runs after the call, inside an `OBSERVE_SPAN`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                oidx = tracer.open(OBSERVE_SPAN)
                try:
                    observe(tracer, args, result)
                finally:
                    tracer.close(oidx)
            return result

        return traced

    @contextmanager
    def installed(self, observers: dict | None = None):
        """Trace every public function of the layer modules while inside.

        `observers` maps a span name such as "exact.solve_exact" to an
        observe callback for `wrap`.
        """
        observers = observers or {}
        patches = []  # (owner, attribute, original)
        try:
            wrappers = {}  # original function -> wrapper
            for mod_name in LAYER_MODULES:
                mod = importlib.import_module(f"groundsim.{mod_name}")
                for attr, obj in vars(mod).items():
                    if (
                        not attr.startswith("_")
                        and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                    ):
                        name = f"{mod_name}.{attr}"
                        wrappers[obj] = self.wrap(name, obj, observers.get(name))
            for mod in _groundsim_modules():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
            for mod_name, cls_name, meth in TRACED_METHODS:
                cls = getattr(importlib.import_module(f"groundsim.{mod_name}"), cls_name)
                original = cls.__dict__[meth]
                name = f"{mod_name}.{cls_name}.{meth}"
                patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, observers.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval that its
        child spans cover (overlapping children are counted once)."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.starts)):
            start, end = self.starts[i], self.ends[i]
            covered = 0.0
            kids = children.get(i)
            if kids:
                intervals = sorted(
                    (max(self.starts[k], start), min(self.ends[k], end)) for k in kids
                )
                cur_s, cur_e = intervals[0]
                for s, e in intervals[1:]:
                    if s > cur_e:
                        covered += max(0.0, cur_e - cur_s)
                        cur_s, cur_e = s, e
                    else:
                        cur_e = max(cur_e, e)
                covered += max(0.0, cur_e - cur_s)
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i in range(len(self.starts)):
            name = self.names[self.name_ids[i]]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if self.outermost[i]:
                row["s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        return out

    def count_outside(self, name: str, excluded_ancestor: str) -> int:
        """Spans called `name` that have no ancestor called
        `excluded_ancestor`."""
        target = self._name_ids.get(name)
        if target is None:
            return 0
        excluded = self._name_ids.get(excluded_ancestor)
        n = 0
        for i in range(len(self.starts)):
            if self.name_ids[i] != target:
                continue
            p = self.parents[i]
            while p >= 0 and self.name_ids[p] != excluded:
                p = self.parents[p]
            n += p < 0
        return n

    def write_spans(self, path: str):
        """One tab-separated line per span: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.names[self.name_ids[i]]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )


def _groundsim_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "groundsim" or name.startswith("groundsim."))
    ]


# ----------------------------------------------------------------------
# per-layer metrics of a traced groundsim run


def _on_solve(tracer: Tracer, args, result):
    program = args[0]
    tracer.sample("exact.atoms_per_solve", len(program.atom_universe()))
    tracer.sample("exact.rules_solved", len(program))


def _on_build_program(tracer: Tracer, args, result):
    tracer.sample("reasoner.rules_built", len(result))


OBSERVERS = {"exact.solve_exact": _on_solve, "reasoner.build_program": _on_build_program}


def layer_metrics(
    tracer: Tracer, summary: dict, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run and their
    `Tracer.summary()`. Times are inclusive seconds unless the name ends in
    `self_s`; `.frac` metrics are shares of the traced run's timed wall time."""

    def s(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(key):
        return float(sum(tracer.samples.get(key, ())))

    atoms = tracer.samples.get("exact.atoms_per_solve", [])
    built = total("reasoner.rules_built")
    episodes = calls("harness.run_episode")
    exemplar_adds = tracer.count_outside("perception.ExemplarBase.add", "perception.init_priors")
    m = {
        "perception.build_scene_graph.s": s("perception.build_scene_graph"),
        "perception.build_scene_graph.calls": calls("perception.build_scene_graph"),
        "perception.classify_fewshot.s": s("perception.classify_fewshot"),
        "perception.classify_fewshot.calls": calls("perception.classify_fewshot"),
        "perception.exemplar_adds": exemplar_adds,
        "perception.exemplar_adds_per_episode": exemplar_adds / episodes if episodes else 0.0,
        "reasoner.kb_to_program.s": s("reasoner.kb_to_program"),
        "program.ground.s": s("program.ground"),
        "reasoner.build_program.s": s("reasoner.build_program"),
        "reasoner.marginals_for.s": s("reasoner.marginals_for"),
        "reasoner.marginals_for.self_s": s("reasoner.marginals_for", "self_s"),
        "reasoner.rules_kept_frac": total("exact.rules_solved") / built if built else 0.0,
        "exact.solve_exact.s": s("exact.solve_exact"),
        "exact.solve_exact.calls": calls("exact.solve_exact"),
        "exact.atoms_per_solve.mean": sum(atoms) / len(atoms) if atoms else 0.0,
        "exact.atoms_per_solve.max": max(atoms) if atoms else 0,
        "harness.run_episode.s": s("harness.run_episode"),
        "harness.run_exam.s": s("harness.run_exam"),
        "harness.exam_confusion.s": s("harness.exam_confusion"),
        "harness.write_outputs.s": s("harness.write_outputs"),
        "memory.kb_adds": calls("memory.KnowledgeBase.add"),
        "memory.kb_removes": calls("memory.KnowledgeBase.remove"),
        "memory.find_counterexamples.s": s("memory.find_counterexamples"),
        "agents.learner_integrate_generics.s": s("agents.learner_integrate_generics"),
        "agents.cancel_scalar_implicatures.s": s("agents.cancel_scalar_implicatures"),
        "dialogue.parse.s": s("dialogue.parse"),
        "exact.solve_exact.frac": s("exact.solve_exact") / traced_wall,
        "perception.build_scene_graph.frac": s("perception.build_scene_graph") / traced_wall,
        "harness.exams.frac": (s("harness.run_exam") + s("harness.exam_confusion")) / traced_wall,
        "reasoner.kb_to_program_and_ground.frac": (
            s("reasoner.kb_to_program") + s("program.ground")
        ) / traced_wall,
        "trace.spans": len(tracer),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return m
