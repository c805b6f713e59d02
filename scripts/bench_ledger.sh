#!/usr/bin/env bash
# Appends one entry to the committed bench ledger (BENCH_history.json).
# The entry holds the access-check microbenches at their fixed shapes
# (bench_sec42_access_check, bench_abl_fastpath), built as CI's
# bench-gates job builds them (Release, -O2 -g), each row the median of
# 5 runs (one run of the ALB-off rows swings by a third), and the median
# of N perfbench runs of each workload (seed 1, --trace 0). Before it is
# appended, every row is checked against its newest historical twin
# (update_bench_history.py --check): a gated metric more than 25% worse
# exits 2, with the entry appended all the same so it can be inspected.
# Every row carries "host": "ledger" (a string field, so part of its
# identity): ledger rows, taken on one developer host, twin only each
# other and never the rows CI's bench-gates job checks on its runners.
#
# With --parent DIR (a checkout of the parent commit) it measures a pair:
# every microbench and perfbench run alternates between DIR and this
# tree, so host drift lands on both sides alike. It then appends DIR's
# entry (named PNAME) and this tree's, each --check'ed; this tree's rows
# twin the parent's just appended.
#
# Usage: scripts/bench_ledger.sh [--runs N] [--seconds S]
#            [--parent DIR --parent-name PNAME] NAME [HISTORY]
#   NAME     the entry's name (its "sha" field): the change it measures
#   HISTORY  the ledger file (default: BENCH_history.json at the repo root)
#   --runs N      perfbench runs per workload (default 3)
#   --seconds S   timed seconds per perfbench run (default 20)
# After the builds it takes about N x 3 x (S + 6) seconds per tree; run
# it on a quiet host, as perfbench/NOTES.md describes.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
runs=3
seconds=20
parent=""
parent_name=""
while [[ $# -gt 0 && "$1" == --* ]]; do
  case "$1" in
    --runs) runs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --parent) parent=$(realpath "$2"); shift 2 ;;
    --parent-name) parent_name=$2; shift 2 ;;
    *) echo "unknown option $1" >&2; exit 1 ;;
  esac
done
if [[ $# -lt 1 || $# -gt 2 || ( -n "$parent" && -z "$parent_name" ) ]]; then
  echo "usage: $0 [--runs N] [--seconds S] [--parent DIR --parent-name PNAME] NAME [HISTORY]" >&2
  exit 1
fi
history=$(realpath -m "${2:-$repo/BENCH_history.json}")
# The trees measured, in the order their entries are appended.
trees=("$repo")
names=("$1")
if [[ -n "$parent" ]]; then
  trees=("$parent" "$repo")
  names=("$parent_name" "$1")
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for t in "${!trees[@]}"; do
  build="${trees[$t]}/build-ledger"
  mkdir -p "$out/$t"
  cmake -S "${trees[$t]}" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -g" >"$out/$t/configure.log"
  cmake --build "$build" -j "$(nproc)" --target bench_sec42_access_check bench_abl_fastpath \
    >"$out/$t/build.log"
done
for ((r = 1; r <= 5; ++r)); do
  for t in "${!trees[@]}"; do
    "${trees[$t]}/build-ledger/bench_sec42_access_check" >>"$out/$t/micro.out"
    "${trees[$t]}/build-ledger/bench_abl_fastpath" >>"$out/$t/micro.out"
  done
done

for workload in kv_zipf sor largespace; do
  for ((r = 1; r <= runs; ++r)); do
    for t in "${!trees[@]}"; do
      echo "perfbench $workload run $r/$runs (${names[$t]})" >&2
      if ! python3 "${trees[$t]}/perfbench/run.py" --workload "$workload" --seed 1 \
          --seconds "$seconds" --trace 0 >"$out/run.out" 2>"$out/run.err"; then
        tail -n 20 "$out/run.err" >&2
        exit 1
      fi
      tail -n 1 "$out/run.out" >"$out/$t/$workload.$r.json"
    done
  done
done

# Per tree: one BENCH_JSON row per microbench row identity and per
# workload, each numeric field the median over the runs, tagged as a
# ledger row; then the --check'ed append.
status=0
for t in "${!trees[@]}"; do
  python3 - "$out/$t" "$runs" "$seconds" "$repo/scripts" >"$out/$t/ledger.out" <<'PY'
import json, statistics, sys
out, runs, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
seconds = int(seconds) if seconds.is_integer() else seconds  # one identity per length
sys.path.insert(0, sys.argv[4])
from update_bench_history import PREFIX, row_identity
micro = {}
for line in open(f"{out}/micro.out"):
    if line.startswith(PREFIX):
        row = json.loads(line[len(PREFIX):])
        micro.setdefault(row_identity(row), []).append(row)
for rows in micro.values():
    merged = dict(rows[0])
    for key, value in merged.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            merged[key] = statistics.median(r[key] for r in rows)
    merged["host"] = "ledger"
    print(PREFIX + json.dumps(merged))
for workload in ("kv_zipf", "sor", "largespace"):
    results = [json.load(open(f"{out}/{workload}.{r}.json")) for r in range(1, runs + 1)]
    bad = [r for r in results if not r["correct"]]
    if bad:
        sys.exit(f"perfbench {workload}: {len(bad)} of {runs} runs were not correct")
    row = {"bench": "perfbench", "workload": workload, "host": "ledger", "seconds": seconds,
           "seed": 1, "runs": runs}
    for metric in results[0]["metrics"]:
        row[metric] = statistics.median(r["metrics"][metric]["value"] for r in results)
    print(PREFIX + json.dumps(row))
PY

  python3 "$repo/scripts/update_bench_history.py" --sha "${names[$t]}" --history "$history" \
    --check "$out/$t/ledger.out" || status=$?
done
exit "$status"
