"""Spans around thetalab's layer entry points, installed from outside the package.

`install()` replaces each function listed in WRAPPED by a wrapper that
records a span (name, start, end, parent) and a few work counts, in every
thetalab module that holds a reference to it.  Spans stay in memory; the
benchmark collects them per pass and writes them out when it ends.  Nothing
is installed in an untraced run, so untraced timings carry no overhead.
"""

from __future__ import annotations

import sys
import time
from typing import Callable


def _target_shape(args, kwargs) -> dict:
    target = args[1] if len(args) > 1 else kwargs["target"]
    diag = [row[i] for i, row in enumerate(target.entries if hasattr(target, "entries") else target)]
    return {"genus": len(diag), "all2": all(d == 2 for d in diag), "zero_diag": 0 in diag}


# (module, function, attrs(args, kwargs, result) or None, tracks cache counters)
WRAPPED: tuple[tuple[str, str, Callable | None, bool], ...] = (
    ("niemeier", "builtin", None, False),
    ("lattices", "root_lattice", None, False),
    ("lattices", "direct_sum", None, False),
    ("lattices", "plus_construction", None, False),
    ("lattices", "glue", None, False),
    ("lattices", "from_gram", None, False),
    ("lattices", "validate", None, False),
    ("fincke_pohst", "lll_gram", None, False),
    ("fincke_pohst", "shells_upto", lambda a, k, out: {"vectors": sum(len(v) for v in out.values())}, False),
    ("fincke_pohst", "counts_upto", lambda a, k, out: {"vectors": sum(out.values())}, False),
    ("cosets", "glued_shell_counts", None, False),
    ("enumeration", "representation_count", lambda a, k, out: _target_shape(a, k), True),
    ("enumeration", "shell_count", None, True),
    ("enumeration", "representation_profile", None, False),
    # Private: the only place the size of a genus-2 histogram is visible.
    ("enumeration", "_dot_histogram", lambda a, k, out: {"products": (len(a[1]) // 2) * (len(a[2]) // 2)}, False),
    ("theta", "weight12_product_coefficient", None, False),
    ("theta", "weight8_difference_coefficient", None, False),
    ("jacobi", "venkov_constant", lambda a, k, out: {"vectors": out.verified_vectors}, False),
    ("jacobi", "jacobi_coefficient", lambda a, k, out: {"entries": len(out.entries)}, False),
)


class Tracer:
    def __init__(self, cache_stats: Callable[[], dict]):
        self._cache_stats = cache_stats
        self.missing: list[str] = []
        self.start_pass("setup")

    def start_pass(self, label: str) -> None:
        self.label = label
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._next = 0
        self._stats0 = self._cache_stats()

    def end_pass(self) -> dict:
        """The pass's spans and its cache-counter deltas."""
        after = self._cache_stats()
        return {
            "label": self.label,
            "spans": self.records,
            "cache": {k: after[k] - self._stats0.get(k, 0) for k in after},
        }

    def wrap(self, name: str, fn: Callable, attrs: Callable | None, cache: bool) -> Callable:
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            before = self._cache_stats() if cache else None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, out)
            if before is not None:
                after = self._cache_stats()
                rec["cache"] = {k: after[k] - before[k] for k in after if after[k] != before[k]}
            self.records.append(rec)
            return out

        traced.__wrapped__ = fn
        return traced


def install() -> Tracer:
    """Wrap every function in WRAPPED wherever a thetalab module refers to it."""
    from thetalab import enumeration

    tracer = Tracer(enumeration.cache_stats)
    modules = [m for n, m in sorted(sys.modules.items()) if m is not None and n.split(".")[0] == "thetalab"]
    for mod_name, fn_name, attrs, cache in WRAPPED:
        home = sys.modules.get(f"thetalab.{mod_name}")
        original = getattr(home, fn_name, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, attrs, cache)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return tracer
