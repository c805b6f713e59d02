#!/usr/bin/env python3
"""Collect BENCH_JSON lines into a per-run snapshot and append it to the
tracked bench trajectory (ROADMAP "bench trajectory" item).

Benches emit one `BENCH_JSON {...}` line per result row (bench_util.hpp).
This script filters those lines out of raw bench output, writes the
run's snapshot (BENCH_ci.json in CI), and appends the same entry to a
history file so the result trajectory is trackable across commits:

    ./bench_abl_prefetch | tee abl.out
    ./lots_launch -n 4 ./bench_fig8_sor | tee sor.out
    scripts/update_bench_history.py --sha "$GITHUB_SHA" \
        --snapshot BENCH_ci.json --history BENCH_history.json abl.out sor.out

The history file is a JSON list of {sha, date, rows} entries, newest
last; corrupt or missing history is replaced rather than fatal (CI must
not go red because an artifact rotted).

--check turns the script into a regression gate: before appending, each
row of the new snapshot is compared with its newest historical twin
(the row with the same identity in the latest entry that has one, so a
row survives entries that did not measure it), and any gated metric
that regresses by more than 25% (lower-is-better metrics going up,
higher-is-better going down) fails the run with a non-zero exit. Rows
are matched on their identity fields (the string fields plus shape
parameters like n/p); rows without a historical twin are new and pass
silently.
"""
import argparse
import datetime
import json
import sys

PREFIX = "BENCH_JSON "

# Gated metrics and their good direction. Anything not listed here is
# informational (counters, shape parameters) and never gates.
LOWER_IS_BETTER = (
    "p50_us", "p99_us", "mean_us", "ns_per_access", "overhead_pct",
    "syscalls_per_msg", "wall_s", "lots_s", "lotsx_s",
    "read_p50_us", "write_p50_us", "scan_p50_us", "peak_rss_mb",  # perfbench (bench_ledger.sh)
)
HIGHER_IS_BETTER = ("qps", "msgs_per_sec", "MB_per_sec", "speedup", "ops_per_s")

# Fields identifying WHICH measurement a row is (never compared as
# metrics). String fields are always identity; these numeric ones are
# shape parameters, not results.
IDENTITY_NUMERIC = ("n", "p", "threads", "clients", "shards", "keys", "read_pct",
                    "zipf", "ops", "stripes", "fetch_window", "prefetch_degree",
                    "rank", "size", "iters", "seconds", "seed", "alb", "rle")

REGRESSION_RATIO = 1.25


def row_identity(row):
    ident = {k: v for k, v in row.items() if isinstance(v, (str, bool))}
    ident.update({k: row[k] for k in IDENTITY_NUMERIC if k in row})
    return json.dumps(ident, sort_keys=True)


def check_regressions(new_rows, history):
    """Compares gated metrics against each row's newest historical twin.
    Returns a list of human-readable offender strings (empty = gate
    passes)."""
    old_by_id = {}
    for entry in reversed(history):
        if not isinstance(entry, dict):
            # A rotted entry (truncated write, hand edit) holds no twins;
            # older entries still do.
            continue
        for row in entry.get("rows", []):
            if isinstance(row, dict):
                old_by_id.setdefault(row_identity(row), (row, entry.get("sha", "?")))
    if not old_by_id:
        print("check: no history rows to compare against — gate passes", file=sys.stderr)
        return []
    offenders = []
    matched = 0
    for row in new_rows:
        if not isinstance(row, dict):
            continue
        twin = old_by_id.get(row_identity(row))
        if twin is None:
            continue
        old, old_sha = twin
        matched += 1
        for key, lower_better in [(k, True) for k in LOWER_IS_BETTER] + [
                (k, False) for k in HIGHER_IS_BETTER]:
            new_v, old_v = row.get(key), old.get(key)
            if not isinstance(new_v, (int, float)) or not isinstance(old_v, (int, float)):
                continue
            if isinstance(new_v, bool) or isinstance(old_v, bool) or old_v <= 0:
                continue
            ratio = new_v / old_v
            bad = ratio > REGRESSION_RATIO if lower_better else ratio < 1 / REGRESSION_RATIO
            if bad:
                offenders.append(
                    f"{row.get('bench', '?')}[{row_identity(row)}] {key}: "
                    f"{old_v:g} ({old_sha}) -> {new_v:g} ({ratio:.2f}x, "
                    f"{'lower' if lower_better else 'higher'} is better)")
    print(f"check: compared {matched} row(s) against their newest historical twins",
          file=sys.stderr)
    return offenders


def parse_rows(paths):
    rows, bad = [], 0
    streams = []
    for p in paths:
        try:
            streams.append(open(p, encoding="utf-8", errors="replace"))
        except OSError as e:
            # A named-but-unreadable bench output means that bench never
            # ran: fail loudly, but as a diagnosis, not a traceback.
            print(f"error: cannot read bench output {p}: {e}", file=sys.stderr)
            sys.exit(1)
    for stream in streams or [sys.stdin]:
        with stream:
            for line in stream:
                line = line.strip()
                if not line.startswith(PREFIX):
                    continue
                try:
                    row = json.loads(line[len(PREFIX):])
                except json.JSONDecodeError:
                    bad += 1
                    continue
                if isinstance(row, dict):
                    rows.append(row)
                else:
                    bad += 1
    if bad:
        print(f"warning: skipped {bad} malformed BENCH_JSON line(s)", file=sys.stderr)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="*", help="bench output files (default: stdin)")
    ap.add_argument("--sha", default="local", help="commit id to stamp the entry with")
    ap.add_argument("--snapshot", help="write this run's rows to FILE (e.g. BENCH_ci.json)")
    ap.add_argument("--history", help="append the entry to this trajectory FILE")
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 2) when a gated metric regresses >25%% vs its "
                         "newest historical twin; requires --history")
    args = ap.parse_args()
    if args.check and not args.history:
        ap.error("--check requires --history")

    entry = {
        "sha": args.sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "rows": parse_rows(args.inputs),
    }
    if not entry["rows"]:
        print("error: no BENCH_JSON lines found in the input", file=sys.stderr)
        return 1

    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as f:
            json.dump(entry, f, indent=1)
            f.write("\n")

    offenders = []
    if args.history:
        history = []
        try:
            with open(args.history, encoding="utf-8") as f:
                history = json.load(f)
            if not isinstance(history, list):
                raise ValueError("history root is not a list")
        except (OSError, ValueError) as e:
            print(f"warning: starting a fresh history ({e})", file=sys.stderr)
            history = []
        if args.check:
            offenders = check_regressions(entry["rows"], history)
        # Append even when the gate fails: the regressed numbers belong
        # in the trajectory artifact precisely so the failure is
        # inspectable.
        history.append(entry)
        with open(args.history, "w", encoding="utf-8") as f:
            json.dump(history, f, indent=1)
            f.write("\n")

    print(f"collected {len(entry['rows'])} bench rows for {args.sha}")
    if offenders:
        print(f"REGRESSION GATE FAILED ({len(offenders)} metric(s) >25% worse):",
              file=sys.stderr)
        for o in offenders:
            print(f"  {o}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
