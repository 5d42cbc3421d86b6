"""Shared plan cache: compiled programs keyed by normalized statement
shape.

The serving layer's whole point (ROADMAP: "Multi-client serving layer")
is amortizing the per-statement parse → bind → rewrite → compile cost
the paper's Fig. 1 storm measures — across statements *and* across
sessions.  The cache is engine-level state (one per
:class:`repro.engine.engine.Engine`), safe for concurrent sessions, and
holds two maps:

* **text memo** — exact statement text → its normalized identity, so a
  replayed statement skips even the parse (least recently used texts
  are evicted first; a text that missed the memo but hit after the
  parse is remembered);
* **program store** — ``(shape, literals, options fingerprint)`` →
  compiled :class:`~repro.plan.program.Program`, so two texts that
  differ only in whitespace or identifier case still share one program.

A *hit* returns a compiled program untouched by parse/plan/rewrite/
compile.  A *shape hit* means the family was seen but with different
constants: the plan is recompiled for the new literal vector (programs
embed their constants — constant folding and pushability analysis
depend on the values) and cached alongside its siblings, while the
normalizer guarantees the family is counted as one shape.  Compiled
programs are immutable at run time (all jump targets and loop specs are
fixed at compile), which is what makes sharing one program object
across concurrently-running sessions sound — each run carries its own
registry and execution context.

Invalidation is by catalog version: DDL (and any DML that changes a
table's schema signature, e.g. a type-widening INSERT) bumps
``Catalog.version``; entries remember the version they compiled against
and a stale entry is dropped on lookup.  Hit/miss/invalidation counters
land on :class:`~repro.execution.context.ExecutionStats`, so they
surface in EXPLAIN ANALYZE and ``metrics_snapshot()`` like every other
engine counter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..sql.normalize import NormalizedStatement


class PlanCache:
    """Engine-wide compiled-program cache (see module docstring)."""

    def __init__(self, stats=None, max_programs: int = 256,
                 max_texts: int = 1024):
        self._programs: OrderedDict[tuple, tuple] = OrderedDict()
        self._texts: OrderedDict[tuple, NormalizedStatement] = \
            OrderedDict()
        self._shapes: set[tuple] = set()
        self._max_programs = max_programs
        self._max_texts = max_texts
        self._lock = threading.Lock()
        self.stats = stats

    # -- lookups -------------------------------------------------------------

    def get_text(self, sql_text: str, fingerprint: tuple,
                 catalog_version: int):
        """Program for an exact statement text, or None.

        A hit skips the parse as well as the compile.  Counts neither
        hits nor misses by itself — a text miss may still become a
        shape-level hit after the parse; :meth:`get_normalized` does
        the counting."""
        key = (sql_text, fingerprint)
        with self._lock:
            norm = self._texts.get(key)
            if norm is not None:
                self._texts.move_to_end(key)
        if norm is None:
            return None
        return self.get_normalized(norm, fingerprint, catalog_version)

    def knows_text(self, sql_text: str, fingerprint: tuple) -> bool:
        """Whether the text memo holds this statement (meaning a
        ``get_text`` call just did the counted program lookup)."""
        with self._lock:
            return (sql_text, fingerprint) in self._texts

    def get_normalized(self, norm: NormalizedStatement, fingerprint: tuple,
                       catalog_version: int,
                       sql_text: Optional[str] = None):
        """Program for a normalized statement, or None (counted).

        On a hit, ``sql_text`` (the text that was parsed to ``norm``)
        joins the text memo so its next run skips the parse."""
        key = (norm.shape, norm.literals, fingerprint)
        program = None
        with self._lock:
            entry = self._programs.get(key)
            if entry is not None and entry[1] == catalog_version:
                program = entry[0]
                self._programs.move_to_end(key)
                self._count("plan_cache_hits")
            else:
                if entry is not None:
                    del self._programs[key]
                    self._count("plan_cache_invalidations")
                if (norm.shape, fingerprint) in self._shapes:
                    self._count("plan_cache_shape_hits")
                self._count("plan_cache_misses")
        if program is not None and sql_text is not None:
            self._remember_text(sql_text, fingerprint, norm)
        return program

    # -- population ----------------------------------------------------------

    def store(self, sql_text: Optional[str], norm: NormalizedStatement,
              fingerprint: tuple, catalog_version: int, program) -> None:
        """Remember a freshly compiled program (and its source text)."""
        key = (norm.shape, norm.literals, fingerprint)
        with self._lock:
            self._programs[key] = (program, catalog_version)
            self._programs.move_to_end(key)
            while len(self._programs) > self._max_programs:
                self._programs.popitem(last=False)
            self._shapes.add((norm.shape, fingerprint))
        if sql_text is not None:
            self._remember_text(sql_text, fingerprint, norm)

    def _remember_text(self, sql_text: str, fingerprint: tuple,
                       norm: NormalizedStatement) -> None:
        """Put a text at the recent end of the memo, evicting the least
        recently used beyond ``max_texts``."""
        key = (sql_text, fingerprint)
        with self._lock:
            self._texts[key] = norm
            self._texts.move_to_end(key)
            while len(self._texts) > self._max_texts:
                self._texts.popitem(last=False)

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._texts.clear()
            self._shapes.clear()

    def __len__(self) -> int:
        return len(self._programs)

    def snapshot(self) -> dict:
        """Cache occupancy for diagnostics/metrics."""
        with self._lock:
            return {
                "programs": len(self._programs),
                "texts": len(self._texts),
                "shapes": len(self._shapes),
            }

    def _count(self, counter: str) -> None:
        if self.stats is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
