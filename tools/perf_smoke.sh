#!/usr/bin/env bash
# Perf smoke: runs the classification fast-path headline benchmark
# (bench_classification --json, fixed seed) and compares it against the
# committed baseline BENCH_classification.json. Fails when
#
#   * the fast path no longer classifies identically to the disabled
#     fast path (outcome_mismatches != 0), or
#   * the streaming parse path no longer ingests identically to the
#     reference path — the independent reference parser feeding
#     Process(Document), memo off — on the repetitive corpus
#     (ingest_outcome_mismatches != 0) or on the miss-heavy drifting one
#     (miss_ingest_outcome_mismatches != 0; that leg's timings are
#     reported with their spread but not gated), or
#   * throughput regressed by more than 2x against the committed
#     baseline's docs_per_second or ingest_docs_per_second (absolute
#     numbers shift between machines; a >2x drop on the same fixed
#     workload is a real regression, not noise).
#
# A second leg drives bench_server's mixed multi-tenant load (4 shards,
# fixed seed) against the committed BENCH_server.json: every request
# must be served (failed == 0) and end-to-end throughput must stay
# within the same 2x band.
#
# A third leg runs bench_induce's candidate-lifecycle workload (4
# mixed-population families, fixed seed) against the committed
# BENCH_induce.json: the induction invariants must hold
# (invariant_failures == 0 — k clusters, >= 95% member validity, full
# repository drain) and candidates/sec must stay within the 2x band.
#
# Usage:
#   tools/perf_smoke.sh [build-dir]     # default: build
#
# The fresh measurement is left in <build-dir>/BENCH_classification.json
# and <build-dir>/BENCH_server.json (plus BENCH_similarity.json /
# BENCH_mining.json for trend tracking).

set -euo pipefail

SRC=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-build}
BASELINE="$SRC/BENCH_classification.json"
BENCH="$SRC/$BUILD/bench/bench_classification"

if [ ! -x "$BENCH" ]; then
  echo "perf_smoke: $BENCH not built (cmake --build $BUILD --target bench_classification)" >&2
  exit 1
fi
if [ ! -f "$BASELINE" ]; then
  echo "perf_smoke: no committed baseline at $BASELINE" >&2
  exit 1
fi

json_field() {
  # json_field FILE KEY — value of a numeric field in the flat one-line
  # JSON the bench binaries emit.
  grep -o "\"$2\":[0-9.eE+-]*" "$1" | head -1 | cut -d: -f2
}

cd "$SRC/$BUILD"
"$BENCH" --json BENCH_classification.json > /dev/null
# Companion headlines, for trend tracking only (never gate).
./bench/bench_similarity --json BENCH_similarity.json > /dev/null || true
./bench/bench_mining --json BENCH_mining.json > /dev/null || true

current=$(json_field BENCH_classification.json docs_per_second)
mismatches=$(json_field BENCH_classification.json outcome_mismatches)
speedup=$(json_field BENCH_classification.json speedup)
baseline=$(json_field "$BASELINE" docs_per_second)

echo "perf_smoke: docs/sec current=$current baseline=$baseline" \
     "speedup=$speedup mismatches=$mismatches"

if [ "$mismatches" != "0" ]; then
  echo "perf_smoke: FAIL — fast path diverged from reference outcomes" >&2
  exit 2
fi

awk -v cur="$current" -v base="$baseline" 'BEGIN {
  if (cur * 2 < base) {
    printf "perf_smoke: FAIL — throughput regressed >2x (%.0f vs %.0f)\n",
           cur, base > "/dev/stderr"
    exit 2
  }
}'

# --- Parse-path ingest leg: streaming default vs reference path ---------

ingest_current=$(json_field BENCH_classification.json ingest_docs_per_second)
ingest_mismatches=$(json_field BENCH_classification.json ingest_outcome_mismatches)
ingest_baseline=$(json_field "$BASELINE" ingest_docs_per_second)

if [ -n "$ingest_current" ]; then
  echo "perf_smoke: ingest docs/sec current=$ingest_current" \
       "baseline=${ingest_baseline:-none} mismatches=$ingest_mismatches"

  if [ "$ingest_mismatches" != "0" ]; then
    echo "perf_smoke: FAIL — streaming ingest diverged from the reference path" >&2
    exit 2
  fi
  # Baseline field may be absent until the first re-baselined commit.
  if [ -n "$ingest_baseline" ]; then
    awk -v cur="$ingest_current" -v base="$ingest_baseline" 'BEGIN {
      if (cur * 2 < base) {
        printf "perf_smoke: FAIL — ingest throughput regressed >2x (%.0f vs %.0f)\n",
               cur, base > "/dev/stderr"
        exit 2
      }
    }'
  fi
else
  echo "perf_smoke: skipping ingest leg (no ingest fields in bench output)"
fi

# --- Miss-heavy leg: drifting stream, streaming vs reference path ------

CURRENT=BENCH_classification.json
miss_mismatches=$(json_field $CURRENT miss_ingest_outcome_mismatches)
echo "perf_smoke: miss-heavy ns/doc" \
     "stream=$(json_field $CURRENT miss_stream_ns_per_doc)" \
     "dom=$(json_field $CURRENT miss_dom_ns_per_doc)" \
     "memo_hit_rate=$(json_field $CURRENT miss_memo_hit_rate)" \
     "mismatches=$miss_mismatches"
if [ "$miss_mismatches" != "0" ]; then
  echo "perf_smoke: FAIL — miss-heavy ingest diverged from the reference path" >&2
  exit 2
fi

# --- Server leg: mixed multi-tenant ingest over loopback ----------------

SERVER_BENCH=./bench/bench_server
SERVER_BASELINE="$SRC/BENCH_server.json"
if [ -x "$SERVER_BENCH" ] && [ -f "$SERVER_BASELINE" ]; then
  # Same fixed workload as the committed baseline.
  "$SERVER_BENCH" --docs 400 --clients 4 --jobs 2 --tenants 4 \
      --out BENCH_server.json > /dev/null
  server_current=$(json_field BENCH_server.json docs_per_second)
  server_failed=$(json_field BENCH_server.json failed)
  server_baseline=$(json_field "$SERVER_BASELINE" docs_per_second)

  echo "perf_smoke: server docs/sec current=$server_current" \
       "baseline=$server_baseline failed=$server_failed"

  if [ "$server_failed" != "0" ]; then
    echo "perf_smoke: FAIL — bench_server dropped requests" >&2
    exit 2
  fi
  awk -v cur="$server_current" -v base="$server_baseline" 'BEGIN {
    if (cur * 2 < base) {
      printf "perf_smoke: FAIL — server throughput regressed >2x (%.0f vs %.0f)\n",
             cur, base > "/dev/stderr"
      exit 2
    }
  }'
else
  echo "perf_smoke: skipping server leg (bench_server or baseline missing)"
fi

# --- Induction leg: repository clustering → candidate lifecycle ---------

INDUCE_BENCH=./bench/bench_induce
INDUCE_BASELINE="$SRC/BENCH_induce.json"
if [ -x "$INDUCE_BENCH" ] && [ -f "$INDUCE_BASELINE" ]; then
  # Same fixed workload as the committed baseline.
  "$INDUCE_BENCH" --families 4 --docs-per-family 250 --jobs 2 \
      --out BENCH_induce.json > /dev/null
  induce_current=$(json_field BENCH_induce.json candidates_per_second)
  induce_failures=$(json_field BENCH_induce.json invariant_failures)
  induce_baseline=$(json_field "$INDUCE_BASELINE" candidates_per_second)

  echo "perf_smoke: induce candidates/sec current=$induce_current" \
       "baseline=$induce_baseline invariant_failures=$induce_failures"

  if [ "$induce_failures" != "0" ]; then
    echo "perf_smoke: FAIL — bench_induce induction invariants violated" >&2
    exit 2
  fi
  awk -v cur="$induce_current" -v base="$induce_baseline" 'BEGIN {
    if (cur * 2 < base) {
      printf "perf_smoke: FAIL — induction throughput regressed >2x (%.0f vs %.0f)\n",
             cur, base > "/dev/stderr"
      exit 2
    }
  }'
else
  echo "perf_smoke: skipping induction leg (bench_induce or baseline missing)"
fi

echo "perf_smoke: OK"
