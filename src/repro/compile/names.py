"""Deterministic per-compilation fresh-name supplies.

The old JIT drew labels from a module-global ``itertools.count()``: two
runs of the same process compiled the same lambda to *differently
labelled* components, and two processes (the serve workers) disagreed
with each other.  That was harmless for execution (the machine renames
heap labels freshly at every load) but fatal for content-addressing:
the serve cache keys results by the bytes of the compiled artifact, so
nondeterministic labels defeat the cache.

A :class:`NameSupply` is created per compilation and threaded through
every pass, so a given source term always compiles to the identical
component -- across calls, runs, and processes.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["NameSupply"]


class NameSupply:
    """Fresh names ``<stem><n>`` with one counter per stem.

    Per-stem counters keep generated artifacts readable (``f0``, ``f1``,
    ``f0_else0`` ...) and, more importantly, *stable*: adding a new kind
    of label to one pass cannot renumber the labels another pass emits.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def fresh(self, stem: str) -> str:
        n = self._counters.get(stem, 0)
        self._counters[stem] = n + 1
        return f"{stem}{n}"
