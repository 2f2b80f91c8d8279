#!/usr/bin/env python3
"""Perf trajectory dashboard: persist each bench run, render the trend.

Appends one JSON line per run of bench_join_throughput to a checked-in
BENCH_history.jsonl (re-runs under the same label replace the old line
instead of spamming), then rewrites the markdown trend table between the
BENCH_HISTORY markers in README.md: pairs/s for the headline workloads plus
the shard-composition and domain-routing overheads (the two numbers this
repo's scaling story lives or dies by).

    tools/bench_history.py BENCH_join.json [--label <sha>] \
        [--large BENCH_large.json] \
        [--history BENCH_history.jsonl] [--readme README.md] [--keep 10]

With --large, the million-row tier's numbers (bench_join_throughput
--large) ride along in the same history row: monolithic query-join pairs/s
on the default config.  Rows written before the large tier existed — or
runs that skipped it — simply lack those keys and render as "—"; every
column accessor here must tolerate missing keys for exactly that reason.

CI runs it right after the regression gate; locally, run it after
refreshing BENCH_baseline.json so the history and the baseline move
together.
"""

import argparse
import json
import subprocess
import sys

START = "<!-- BENCH_HISTORY:START (tools/bench_history.py) -->"
END = "<!-- BENCH_HISTORY:END -->"

# (column header, dotted path into BENCH_join.json)
COLUMNS = [
    ("self pairs/s", "self_join.simd"),
    ("query pairs/s", "query_join.simd"),
]
# Overhead columns: 1 - slow/fast between two entries of one run.
OVERHEADS = [
    ("shard ovh", "sharded_self_join.shards_4", "sharded_self_join.shards_1"),
    ("domain ovh", "domain_self_join.domains_4", "domain_self_join.domains_1"),
]
# Tail-latency columns: per-rep latency quantiles the bench embeds since the
# obs layer landed.  History rows from before then lack the field and
# render as "—".
LATENCIES = [
    ("query p50 ms", "query_join.simd", "p50_ns"),
    ("query p95 ms", "query_join.simd", "p95_ns"),
]
# Large-tier columns (from BENCH_large.json via --large): header + key into
# the run's "large" dict.  Old history rows have no "large" dict at all.
LARGE = [
    ("1M query pairs/s", "mono_default_pairs_per_s"),
]


def lookup(tree, dotted):
    node = tree
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def flatten(bench):
    """Everything the table needs from one BENCH_join.json, as flat floats."""
    out = {}
    for _, path in COLUMNS:
        entry = lookup(bench, path)
        if isinstance(entry, dict) and "pairs_per_s" in entry:
            out[path] = entry["pairs_per_s"]
    for _, slow, fast in OVERHEADS:
        for path in (slow, fast):
            entry = lookup(bench, path)
            if isinstance(entry, dict) and "pairs_per_s" in entry:
                out[path] = entry["pairs_per_s"]
    return out


def flatten_latencies(bench):
    """The tail-latency fields, keyed "<path>.<field>" in nanoseconds."""
    out = {}
    for _, path, field in LATENCIES:
        entry = lookup(bench, path)
        if isinstance(entry, dict) and field in entry:
            out[path + "." + field] = entry[field]
    return out


def flatten_large(large):
    """The large-tier fields for one run's "large" dict, all optional."""
    out = {}
    entry = lookup(large, "large_query_join.mono_default")
    if isinstance(entry, dict) and "pairs_per_s" in entry:
        out["mono_default_pairs_per_s"] = entry["pairs_per_s"]
    cfg = large.get("config", {})
    if isinstance(cfg, dict) and "corpus_n" in cfg:
        out["corpus_n"] = cfg["corpus_n"]
    return out


def default_label():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            stderr=subprocess.DEVNULL).decode().strip()
    except Exception:
        return "local"


def fmt_rate(v):
    return f"{v:.3e}" if v is not None else "—"


def fmt_overhead(slow, fast):
    if slow is None or fast is None or fast <= 0:
        return "—"
    return f"{(1.0 - slow / fast) * 100.0:+.1f}%"


def fmt_latency_ms(ns):
    return f"{ns / 1e6:.2f}" if ns is not None else "—"


def render_table(runs):
    header = ["run", "kernel"]
    header += [name for name, _ in COLUMNS]
    header += [name for name, _, _ in OVERHEADS]
    header += [name for name, _, _ in LATENCIES]
    header += [name for name, _ in LARGE]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for run in runs:
        # Old rows predate some fields (latency_ns, large); every accessor
        # below degrades to "—" instead of raising.
        rates = run.get("pairs_per_s", {})
        lats = run.get("latency_ns", {})
        large = run.get("large") or {}
        row = [run.get("label") or "?", run.get("simd_kernel") or "?"]
        row += [fmt_rate(rates.get(path)) for _, path in COLUMNS]
        row += [fmt_overhead(rates.get(slow), rates.get(fast))
                for _, slow, fast in OVERHEADS]
        row += [fmt_latency_ms(lats.get(path + "." + field))
                for _, path, field in LATENCIES]
        row += [fmt_rate(large.get(key)) for _, key in LARGE]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("*pairs/s on the dispatched SIMD kernel; overheads compare "
                 "4-shard / 4-domain runs against their 1-shard / 1-domain "
                 "twins (negative = the partitioned run was faster). "
                 "Latency columns are per-rep quantiles of the SIMD "
                 "query-join (p95 pulling away from p50 = run-to-run "
                 "jitter). Large-tier columns come from the nightly "
                 "million-row run (bench_join_throughput --large); rows "
                 "from runs that skipped it show —. Absolute rates are "
                 "per-machine — trend within one machine, don't compare "
                 "across rows from different hardware.*")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_join.json from the run")
    parser.add_argument("--history", default="BENCH_history.jsonl")
    parser.add_argument("--readme", default="README.md")
    parser.add_argument("--label", default=None,
                        help="run label (default: git short sha)")
    parser.add_argument("--large", default=None, metavar="BENCH_large.json",
                        help="merge the large-tier results for this run")
    parser.add_argument("--keep", type=int, default=10,
                        help="rows rendered into the README (default 10); "
                             "the jsonl keeps everything")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)

    run = {
        "label": args.label or default_label(),
        "simd_kernel": lookup(bench, "config.simd_kernel"),
        "config": bench.get("config", {}),
        "pairs_per_s": flatten(bench),
        "latency_ns": flatten_latencies(bench),
    }
    if args.large:
        with open(args.large) as f:
            run["large"] = flatten_large(json.load(f))

    try:
        with open(args.history) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    except FileNotFoundError:
        runs = []
    runs = [r for r in runs if r.get("label") != run["label"]]
    runs.append(run)
    with open(args.history, "w") as f:
        for r in runs:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    print(f"{args.history}: {len(runs)} runs (appended {run['label']})")

    with open(args.readme) as f:
        readme = f.read()
    if START not in readme or END not in readme:
        print(f"warning: {args.readme} lacks the {START} / {END} markers; "
              f"history saved but table not rendered", file=sys.stderr)
        return 0
    head, rest = readme.split(START, 1)
    _, tail = rest.split(END, 1)
    table = render_table(runs[-args.keep:])
    with open(args.readme, "w") as f:
        f.write(head + START + "\n" + table + "\n" + END + tail)
    print(f"{args.readme}: trend table updated "
          f"({min(len(runs), args.keep)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
