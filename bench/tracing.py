"""Spans around the calls into each layer of ``surfbraid``, recorded from the
benchmark's side: no file under ``src/`` knows about them.

``Tracer.install`` rebinds every module attribute that holds a traced
function, because the package imports names with ``from .x import y``:
``relators`` lives in both ``braid`` and ``verifier``, ``pi1_normalize`` in
both ``surface`` and ``braid``, and so on.  ``ExactReducer`` methods are
rebound on the class.  A span is ``(name, start, end, parent, op_id)``; spans
stay in memory until the run ends.  A few counters that spans cannot give
(rows that grew a span, words returned, certificate terms) are read from
arguments and results at the same boundary.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter

from surfbraid import abelianization, braid, cli, diagrams, linalg, surface, symplectic, verifier


def _words(tracer, args, result):
    tracer.count("symplectic.words", len(result))


def _certificate_terms(tracer, args, result):
    if result.certificate:
        tracer.count("diagrams.certificate_terms", len(result.certificate))


def _torsion_size(tracer, args, result):
    # TorsionReport.rank and .components misreport, so only rows and columns
    tracer.count("abelianization.torsion_rows", result.rows)
    tracer.count("abelianization.torsion_columns", result.columns)


def _reducer_insert(tracer, args, result):
    tracer.count("linalg.insert.useful", int(bool(result)))
    tracer.reducer_size(args[0])


def _reducer_reduce(tracer, args, result):
    tracer.reducer_size(args[0])


# (owner, attribute, span name, counter hook)
TARGETS = [
    (surface, "pi1_normalize", "surface.pi1_normalize", None),
    (braid, "relators", "braid.relators", None),
    (braid, "random_relator_rewrite", "braid.random_relator_rewrite", None),
    (braid, "bounded_equal", "braid.bounded_equal", None),
    (braid, "wreath_image", "braid.wreath_image", None),
    (diagrams, "relation_instances", "diagrams.relation_instances", None),
    (diagrams, "ideal_member", "diagrams.ideal_member", _certificate_terms),
    (diagrams, "expand_certificate", "diagrams.expand_certificate", None),
    (diagrams, "degree_one_symbol", "diagrams.degree_one_symbol", None),
    (linalg.ExactReducer, "insert", "linalg.insert", _reducer_insert),
    (linalg.ExactReducer, "reduce", "linalg.reduce", _reducer_reduce),
    (linalg, "elementary_divisors", "linalg.elementary_divisors", None),
    (symplectic, "symp_graded_dim", "symplectic.symp_graded_dim", None),
    (symplectic, "words_of_degree", "symplectic.words_of_degree", _words),
    (symplectic, "symp_relations", "symplectic.symp_relations", None),
    (abelianization, "degree_one_torsion", "abelianization.degree_one_torsion",
     _torsion_size),
    (verifier, "verify_nonexistence", "verifier.verify_nonexistence", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Records spans while ``active``; ``install``/``uninstall`` rebind the
    traced attributes."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._reducer_index = weakref.WeakKeyDictionary()
        self._reducer_sizes: list[list[int]] = []  # [rank, columns] per reducer
        self.passes: list[tuple] = []  # (spans, counters, reducer sizes) per pass

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def reducer_size(self, reducer) -> None:
        idx = self._reducer_index.get(reducer)
        if idx is None:
            idx = self._reducer_index[reducer] = len(self._reducer_sizes)
            self._reducer_sizes.append([0, 0])
        self._reducer_sizes[idx] = [reducer.rank, len(reducer.col_ids)]

    def end_pass(self) -> None:
        """Keep what one pass recorded in ``passes`` and start afresh."""
        self.passes.append((self.spans, self.counters, self._reducer_sizes))
        self.spans, self.counters, self._stack = [], Counter(), []
        self._reducer_index = weakref.WeakKeyDictionary()
        self._reducer_sizes = []

    def _wrap(self, fn, name, hook):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "surfbraid" or key.startswith("surfbraid.")]
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, hook)
            owners = [owner] if isinstance(owner, type) else modules
            bound = 0
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self._patches.append((obj, key, original))
                        setattr(obj, key, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no attribute binds {name}")

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches = []

    # -- derived figures ----------------------------------------------------

    def summary(self, index: int) -> dict:
        """Figures of one recorded pass: per span name the calls and the self
        time (span time minus the time of its child spans), plus counters."""
        spans, counters, reducer_sizes = self.passes[index]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]

        # a membership query is decided by normal form when no reducer
        # insert ran beneath it
        inserted = set()
        for name, _, _, parent, _ in spans:
            if name != "linalg.insert":
                continue
            while parent >= 0 and spans[parent][0] != "diagrams.ideal_member":
                parent = spans[parent][3]
            if parent >= 0:
                inserted.add(parent)
        queries = calls["diagrams.ideal_member"]
        inserts = calls["linalg.insert"]
        return {
            "calls": calls,
            "self_s": self_s,
            "counters": {
                **counters,
                "linalg.insert.useful_ratio":
                    counters["linalg.insert.useful"] / inserts if inserts else 0.0,
                "diagrams.nf_decided_ratio":
                    (queries - len(inserted)) / queries if queries else 0.0,
                "linalg.rank": sum(r for r, _ in reducer_sizes),
                "linalg.columns": sum(c for _, c in reducer_sizes),
            },
        }
