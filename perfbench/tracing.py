"""In-memory spans around calls into the program's public functions.

The benchmark does not add spans inside the program.  Instead a
:class:`Tracer` swaps a timing wrapper in for a public function or
method (:meth:`Tracer.patch`) and puts the original back afterwards
(:meth:`Tracer.restore`).  Callers that look the function up on its
module at call time -- the serve executor and the benchmark's own loops
do -- go through the wrapper.

Each span records its name, layer, start, end, and the span that caused
it; a span's *self time* is its duration minus the time its child spans
cover.  Spans stay in memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYER_TARGETS"]

#: (module, attribute path, layer) for every call the traced runs time.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.surface.parser", "parse_program", "parse"),
    ("repro.surface.parser", "parse_fexpr", "parse"),
    ("repro.ft.typecheck", "check_ft_expr", "typecheck"),
    ("repro.ft.typecheck", "check_ft_component", "typecheck"),
    ("repro.compile", "compile_term", "compile"),
    ("repro.ft.machine", "evaluate_ft", "run"),
    ("repro.ft.machine", "FTMachine.evaluate", "run"),
    ("repro.ft.machine", "FTMachine.run_component", "run"),
)


class Tracer:
    """Span recorder for one thread of calls."""

    def __init__(self) -> None:
        #: [name, layer, start_ns, end_ns, parent index or -1, chars]
        self.spans: List[list] = []
        #: Summed ``budget.fuel_used`` of outermost machine runs.
        self.fuel = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._local = threading.get_ident()

    # -- recording -------------------------------------------------------

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        if threading.get_ident() != self._local:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        nested = parent >= 0 and self.spans[parent][1] == layer
        chars = len(args[0]) if layer == "parse" and not nested and args \
            and isinstance(args[0], str) else 0
        record = [name, layer, time.perf_counter_ns(), 0, parent, chars]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, layer: str, fn: Callable,
              method: bool) -> Callable:
        tracer = self

        if method:
            @functools.wraps(fn)
            def wrapper(machine, *args, **kwargs):
                outermost = not any(
                    tracer.spans[i][0].startswith("FTMachine.")
                    for i in tracer._stack)
                try:
                    return tracer.span(name, layer, fn, machine, *args,
                                       **kwargs)
                finally:
                    if outermost:
                        tracer.fuel += machine.budget.fuel_used
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, layer, fn, *args, **kwargs)
        return wrapper

    def patch(self, targets=LAYER_TARGETS) -> None:
        """Route every target through a span wrapper."""
        import importlib

        for module_name, path, layer in targets:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(path, layer, original,
                                            method=bool(outer)))

    def restore(self) -> None:
        """Put every patched function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, calls into it from outside the layer,
        characters parsed."""
        out: Dict[str, Dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_ns()):
            row = out.setdefault(s[1], {"self_s": 0.0, "calls": 0,
                                        "chars": 0})
            row["self_s"] += own / 1e9
            if s[4] < 0 or self.spans[s[4]][1] != s[1]:
                row["calls"] += 1
            row["chars"] += s[5]
        return out

    def unaccounted_frac(self, root_layer: str = "job") -> Optional[float]:
        """1 - (time covered by the stages under each job span) / (job
        span time): the share of job wall time no layer accounts for."""
        total = covered = 0
        roots = {i for i, s in enumerate(self.spans) if s[1] == root_layer}
        for i in roots:
            total += self.spans[i][3] - self.spans[i][2]
        for s in self.spans:
            if s[4] in roots:
                covered += s[3] - s[2]
        return 1.0 - covered / total if total else None

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line; ``job`` is the id
        of the span's outermost ancestor, shared by all spans of a job."""
        roots: List[int] = []
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, layer, start, end, parent, _chars) in \
                    enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                out.write(json.dumps({
                    "id": i, "job": roots[i], "name": name, "layer": layer,
                    "start_ns": start, "end_ns": end,
                    "parent": None if parent < 0 else parent}) + "\n")
