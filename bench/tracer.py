"""Per-layer counters and self times, taken by wrapping polytrs from outside.

Each wrapped function is replaced at every name the package binds it to, so
that `polytrs.processors.synthesize` (bound by a `from ... import`) is traced
as well as `polytrs.interpretations.synthesize`.  A span wrapper records
calls and self time (duration minus the time of the span wrappers
it called); a count wrapper only counts calls, for functions called too often
to time.  `remove` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

# (module, function, kind, observer).  The observer maps a result to a number
# summed into the wrapper's `extra` counter.
WRAPPED: tuple[tuple[str, str, str, Optional[Callable[[Any], int]]], ...] = (
    ("cli", "main", "span", None),
    ("parsing", "parse_problem", "span", None),
    ("dependency_pairs", "dt_problem", "span", None),
    ("dependency_pairs", "wdp_problem", "span", None),
    ("depgraph", "estimate_dg", "span", lambda g: len(g.edges)),
    ("interpretations", "synthesize", "span", lambda r: r is not None),
    ("interpretations", "check_orientation", "span", None),
    ("interpretations", "orients_strictly", "count", None),
    ("interpretations", "orients_weakly", "count", None),
    ("processors", "apply_processor", "span", lambda r: r is None),
    ("processors", "default_strategy", "span", None),
    ("proofs", "proof_from_json", "span", None),
    ("proofs", "proof_to_json", "span", None),
    ("proofs", "validate_proof", "span", None),
    ("proofs", "render_proof", "span", None),
    ("rewriting", "strict_step_oracle", "span", lambda r: not r.exact),
    ("rewriting", "q_successors", "count", None),
    ("framework", "start_terms_up_to", "span", len),
    ("framework", "cc_oracle", "span", None),
    ("framework", "problems_equal", "span", None),
    ("terms", "match_term", "count", None),
    ("terms", "unify_terms", "count", None),
)


@dataclass
class Stat:
    calls: int = 0
    self_seconds: float = 0.0
    extra: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # child-span time of each open span; the bottom entry is the root
        self._child = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        package = [
            m for name, m in sorted(sys.modules.items())
            if name == "polytrs" or name.startswith("polytrs.")
        ]
        for module, fn_name, kind, observe in WRAPPED:
            key = f"{module}.{fn_name}"
            original = getattr(sys.modules[f"polytrs.{module}"], fn_name)
            stat = self.stats[key] = Stat()
            if kind == "span":
                wrapper = self._span(original, stat, observe)
            else:
                wrapper = self._count(original, stat)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def remove(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def unreached(self) -> list[str]:
        return [key for key, stat in self.stats.items() if stat.calls == 0]

    def _span(self, fn, stat: Stat, observe):
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.self_seconds += elapsed - inner
            if observe is not None:
                stat.extra += observe(result)
            return result

        return wrapper

    @staticmethod
    def _count(fn, stat: Stat):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper
