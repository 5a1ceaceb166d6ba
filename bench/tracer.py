"""Spans and counters around germ's public callables, installed from outside.

The tracer wraps functions and methods at run time: the definition site
and every module that imported the same object by name (for example
``germ.descent.tangent_space``, or a workload's own ``descend``).  Each call records one span
(name, start, end, parent span, question id) in flat arrays, so a traced
run keeps every span in memory and writes them out once at the end.

A span's self time is its duration minus the time its child spans cover.
Calls run on one thread and nest strictly, so the covered time of a span
is the sum of its direct children's durations.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
from array import array

QUESTION = "bench.question"


class Tracer:
    def __init__(self, importers=()):
        """``importers``: modules besides germ's own whose names for germ
        functions are patched too."""
        self.importers = importers
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.outer = array("b")     # 1 when no enclosing span has this name
        self.counts = collections.Counter()
        self.question = -1
        self._stack = []
        self._active = collections.Counter()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.question)
        self.outer.append(0 if self._active[nid] else 1)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None, prepare=None):
        """A wrapper that records ``name`` around ``fn``.  ``prepare(args)``
        may normalise the positional arguments first, and ``after(counts,
        result, args)`` may add counters from the arguments and result."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.counts, result, args)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None,
                       prepare=None) -> None:
        """Wrap ``module.attr`` wherever it is bound by name; a callable
        that no longer exists is skipped, and its metrics read 0."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.wrap(name, original, after, prepare)
        for mod in _germ_modules() + list(self.importers):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        wrapper = self.wrap(name, original, after)
        for key, value in list(vars(cls).items()):
            if value is original:       # aliases such as __rmul__ = __mul__
                self._patched.append((cls, key, original))
                setattr(cls, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: outermost calls and their inclusive seconds; per
        layer (the name's first dotted part): self seconds; and the share
        of question time covered by layer spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = collections.Counter()
        inclusive = collections.Counter()
        self_s = collections.Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            if self.outer[i]:
                calls[name] += 1
                inclusive[name] += dur
            self_s[name.split(".", 1)[0]] += dur - child[i]
        question_s = inclusive[QUESTION]
        covered = question_s - self_s["bench"]
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_s),
            "question_s": question_s,
            "coverage": covered / question_s if question_s else 0.0,
            "spans": n,
        }

    def write(self, path) -> None:
        """One JSON header line (names, count), then one line per span:
        name id, start, end, parent index, question id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.name),
                                 "fields": ["name", "start", "end", "parent",
                                            "question"]}) + "\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]} {self.start[i] - t0:.7f} "
                         f"{self.end[i] - t0:.7f} {self.parent[i]} {self.qid[i]}\n")


def _germ_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "germ" or key.startswith("germ."))]


# -- what is wrapped -------------------------------------------------------

def _listed_rows(args):
    # rref consumes its rows once; listing them first lets the counter see
    # the matrix shape without changing what rref receives
    if not args:
        return args
    return ([list(r) for r in args[0]],) + tuple(args[1:])


def _count_rref(counts, result, args):
    rows = args[0] if args else []
    counts["jets.rref_entries"] += len(rows) * (len(rows[0]) if rows else 0)


# the counters read attributes of results; one that is missing counts 0

def _count_system(counts, system, args):
    counts["polysys.unknowns"] += len(getattr(system, "unknowns", ()))
    counts["polysys.equations"] += len(getattr(system, "equations", ()))


def _count_groebner(counts, report, args):
    counts["polysys.groebner_pairs"] += getattr(report, "pairs", 0)


def _count_steps(counts, cert, args):
    counts["descent.steps"] += len(getattr(cert, "steps", ()))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of every germ module, and the few private
    methods that carry a named metric (``DescentProblem._check_witness``)."""
    from germ import cli, descent, expr, germs, jets, polysys, tangent

    tracer.patch_function(jets, "rref", "jets.rref", _count_rref,
                          prepare=_listed_rows)
    for attr in ("nullspace", "solve_columns", "membership", "ideal_span"):
        tracer.patch_function(jets, attr, f"jets.{attr}")
    tracer.patch_method(jets.SubspaceBasis, "membership", "jets.membership")
    tracer.patch_method(jets.SubspaceBasis, "intersect_positions",
                        "jets.intersect_positions")
    tracer.patch_method(jets.Jet, "__mul__", "jets.mul")
    tracer.patch_method(jets.Jet, "substitute", "jets.substitute")

    tracer.patch_function(germs, "group_level", "germs.group_level")
    for attr in ("extend_ring", "extend_map", "extend_element", "restrict_map",
                 "restrict_element", "product_ring", "invert_tuple"):
        tracer.patch_function(germs, attr, f"germs.{attr}")
    for cls in vars(germs).values():
        if isinstance(cls, type) and issubclass(cls, germs.GroupElement):
            for attr in ("act", "compose", "inverse"):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, f"germs.{attr}")

    for attr in ("tangent_space", "comparison_bound", "exp_combination",
                 "log_element", "vector_level"):
        tracer.patch_function(tangent, attr, f"tangent.{attr}")
    tracer.patch_method(tangent.TangentFrame, "solve_mod", "tangent.solve_mod")

    tracer.patch_function(descent, "descend", "descent.descend", _count_steps)
    tracer.patch_function(descent, "verify_witness", "descent.verify_witness")
    tracer.patch_method(descent.DescentProblem, "__init__", "descent.problem")
    tracer.patch_method(descent.DescentProblem, "_check_witness",
                        "descent.check_witness")

    tracer.patch_function(polysys, "compile_system", "polysys.compile_system",
                          _count_system)
    tracer.patch_function(polysys, "groebner_inconsistent", "polysys.groebner",
                          _count_groebner)
    for attr in ("brute_solve", "orbit_split", "enumerate_group",
                 "extend_system", "assemble_witness", "system_from_json"):
        tracer.patch_function(polysys, attr, f"polysys.{attr}")
    tracer.patch_method(polysys.Poly, "evaluate", "polysys.evaluate")

    tracer.patch_function(expr, "parse", "expr.parse")
    tracer.patch_function(cli, "parse_session", "cli.parse_session")
    tracer.patch_function(cli, "execute", "cli.execute")
