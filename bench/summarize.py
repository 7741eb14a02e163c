#!/usr/bin/env python3
"""Per-layer self times and work counts from a benchmark span file.

    python3 bench/summarize.py .bench_out/spans-witt-g3-seed1.jsonl

It sums the passes that a traced run reports (REPORTED_PASSES).  A span's
self time is its duration minus the durations of its direct children.  Each
leaf `representation_count` call that missed the cache is attributed to an
engine by the shape of its index: an all-2 diagonal is the root DFS, other
genus-2 indices the pair histogram, anything else of genus >= 3 the general
DFS; an index with a zero diagonal entry is a reduction, not an engine.
When the untraced result file of the same workload and seed sits next to
the span file, the tracing overhead (traced solve_s minus untraced solve_s)
is printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# Self time of these spans goes to the named layer metric.
SELF_TIME = {
    "niemeier.builtin": "lattices.build_s",
    "lattices.root_lattice": "lattices.build_s",
    "lattices.direct_sum": "lattices.build_s",
    "lattices.plus_construction": "lattices.build_s",
    "lattices.glue": "lattices.build_s",
    "lattices.from_gram": "lattices.build_s",
    "lattices.validate": "lattices.validate_s",
    "fincke_pohst.lll_gram": "fincke_pohst.lll_s",
    "fincke_pohst.shells_upto": "fincke_pohst.shells_s",
    "fincke_pohst.counts_upto": "fincke_pohst.counts_s",
    "cosets.glued_shell_counts": "cosets.counts_s",
    "enumeration.representation_profile": "theta.profile_s",
    "theta.weight12_product_coefficient": "theta.rhs_s",
    "theta.weight8_difference_coefficient": "theta.rhs_s",
    "jacobi.venkov_constant": "jacobi.venkov_s",
    "jacobi.jacobi_coefficient": "jacobi.table_s",
}

# Calls of these spans are counted under the named metric.
CALLS = {
    "fincke_pohst.lll_gram": "fincke_pohst.lll_calls",
    "cosets.glued_shell_counts": "cosets.calls",
    "enumeration.representation_count": "enumeration.rep_count_calls",
}

# Span attribute -> metric.
WORK = {
    ("fincke_pohst.shells_upto", "vectors"): "fincke_pohst.shell_vectors",
    ("fincke_pohst.counts_upto", "vectors"): "fincke_pohst.count_vectors",
    ("enumeration._dot_histogram", "products"): "enumeration.pair_hist_products",
    ("jacobi.venkov_constant", "vectors"): "jacobi.venkov_vectors",
    ("jacobi.jacobi_coefficient", "entries"): "jacobi.table_entries",
}

ENGINES = ("pair_hist", "root_dfs", "general_dfs")

METRICS = (
    ["lattices.build_s", "lattices.validate_s", "fincke_pohst.lll_s", "fincke_pohst.lll_calls",
     "fincke_pohst.shells_s", "fincke_pohst.shell_vectors", "fincke_pohst.counts_s",
     "fincke_pohst.count_vectors", "cosets.counts_s", "cosets.calls"]
    + [f"enumeration.{e}_{kind}" for e in ENGINES for kind in ("s", "calls")]
    + ["enumeration.pair_hist_products", "enumeration.rep_count_calls"]
    + [f"enumeration.cache.{k}" for k in ("memory_hits", "disk_hits", "misses", "writes", "read_s")]
    + ["theta.profile_s", "theta.rhs_s", "jacobi.venkov_s", "jacobi.venkov_vectors",
       "jacobi.table_s", "jacobi.table_entries"]
)

# The passes whose sums a traced run reports.
REPORTED_PASSES = ("setup", "cold-0", "warm-0")
COUNTERS = ("memory_hits", "disk_hits", "misses", "writes")
CACHED = ("enumeration.representation_count", "enumeration.shell_count")


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _engine(span: dict) -> str | None:
    shape = span.get("attrs", {})
    # A zero diagonal entry means the index was reduced or is trivial.
    if span.get("cache", {}).get("misses", 0) == 0 or shape["genus"] < 2 or shape["zero_diag"]:
        return None
    if shape["all2"]:
        return "root_dfs"
    return "pair_hist" if shape["genus"] == 2 else "general_dfs"


def pass_metrics(p: dict) -> dict[str, float]:
    """Layer metrics of one pass (its spans plus its cache-counter deltas)."""
    spans = {s["id"]: s for s in p["spans"]}
    children = defaultdict(list)
    for s in spans.values():
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)

    def layer(s: dict) -> str | None:
        # A histogram span belongs to whichever layer called it.
        if s["name"] == "enumeration._dot_histogram" and s["parent"] is not None:
            return layer(spans[s["parent"]])
        if s["name"] == "enumeration.representation_count":
            if any(c["name"] == "enumeration.representation_count" for c in children[s["id"]]):
                return None
            engine = _engine(s)
            return f"enumeration.{engine}_s" if engine else None
        return SELF_TIME.get(s["name"])

    for s in spans.values():
        dur = s["end"] - s["start"]
        self_time = dur - sum(c["end"] - c["start"] for c in children[s["id"]])
        metric = layer(s)
        if metric:
            out[metric] += self_time
        if s["name"] in CALLS:
            out[CALLS[s["name"]]] += 1
        if s["name"] == "enumeration.representation_count" and metric:
            out[metric[:-2] + "_calls"] += 1
        for (name, attr), m in WORK.items():
            if s["name"] == name and (name != "enumeration._dot_histogram" or metric == "enumeration.pair_hist_s"):
                out[m] += s.get("attrs", {}).get(attr, 0)
        if (
            s["name"] in CACHED
            and s.get("cache", {}).get("disk_hits", 0)
            and not any(c["name"] in CACHED for c in children[s["id"]])
        ):
            out["enumeration.cache.read_s"] += dur
    for k in COUNTERS:
        out[f"enumeration.cache.{k}"] += p["cache"].get(k, 0)
    return out


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Every per-layer metric, summed over the given passes (0 where unused)."""
    total = {m: 0.0 for m in METRICS}
    for p in passes:
        for m, v in pass_metrics(p).items():
            total[m] += v
    return {m: (v if unit(m) == "s" else int(v)) for m, v in total.items()}


def write_spans(path: Path, passes: list[dict]) -> None:
    """One header line per pass, then its spans, as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in passes:
            fh.write(json.dumps({"kind": "pass", "label": p["label"], "cache": p["cache"]}) + "\n")
            for span in p["spans"]:
                fh.write(json.dumps({"pass": p["label"], **span}) + "\n")


def read_spans(path: Path) -> list[dict]:
    passes: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "pass":
                passes[rec["label"]] = {"label": rec["label"], "cache": rec["cache"], "spans": []}
            else:
                passes[rec["pass"]]["spans"].append(rec)
    return list(passes.values())


def overhead(span_path: Path) -> str | None:
    stem = span_path.name[len("spans-"):-len(".jsonl")]
    traced = span_path.with_name(f"{stem}-trace1.json")
    plain = span_path.with_name(f"{stem}-trace0.json")
    if not (traced.is_file() and plain.is_file()):
        return None
    tm, um = (
        statistics.median(t[0] for t in json.loads(f.read_text())["timings"]["solve_s"]) for f in (traced, plain)
    )
    return f"tracing overhead: traced solve_s {tm:.4f} s - untraced {um:.4f} s = {tm - um:+.4f} s ({(tm - um) / um:+.1%})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans", type=Path)
    args = ap.parse_args(argv)
    passes = [p for p in read_spans(args.spans) if p["label"] in REPORTED_PASSES]
    print(f"passes: {', '.join(p['label'] for p in passes)}")
    for m, v in layer_metrics(passes).items():
        print(f"{m:36s} {v:>14.4f} s" if unit(m) == "s" else f"{m:36s} {v:>14d}")
    line = overhead(args.spans)
    if line:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
