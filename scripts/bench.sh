#!/usr/bin/env bash
# bench.sh — run the kernel and API benchmark suites and emit the
# machine-readable baselines that scripts/bench_gate.go gates against, at
# the repo root:
#
#   BENCH_hex_cluster.json  Monte-Carlo, hex and clustered-defect kernels
#   BENCH_v2_api.json       v2 job store + client streaming
#
# Every run uses -cpu 1, the GOMAXPROCS the gate and CI compare at: each
# extra kernel worker adds its own one-time setup allocations, so a
# baseline recorded at GOMAXPROCS=N would not match the gate's allocs/op.
#
# Compare runs with:
#
#   scripts/bench.sh && git diff BENCH_*.json
#
# BENCH_COUNT overrides the repetition count (default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-1}"

# run_bench PATTERN — one raw `go test -bench` pass at GOMAXPROCS=1.
run_bench() {
  go test -run '^$' -bench "$1" -benchmem -count "$count" -cpu 1 .
}

# emit_suite NAME PATTERN OUT — run one benchmark selection and write the
# benchmarks whose names match PATTERN as a JSON baseline.
emit_suite() {
  local name="$1" pattern="$2" out="$3" raw
  raw="$(run_bench "$pattern")"
  {
    echo '{'
    echo "  \"suite\": \"$name\","
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"pattern\": \"$pattern\","
    echo '  "benchmarks": ['
    printf '%s\n' "$raw" | awk -v pat="$pattern" '
      /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        if (name !~ pat) next
        line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                       name, $2, $3, $5, $7)
        if (n++) printf(",\n")
        printf("%s", line)
      }
      END { printf("\n") }'
    echo '  ]'
    echo '}'
  } > "$out"
  echo "wrote $out:"
  cat "$out"
}

emit_suite "dmfb hex + clustered-defect kernels" \
  'HexYieldKernel|ClusteredDefectKernel|ClusteredInjector|AdaptiveHighSurvival|MonteCarloKernel' \
  BENCH_hex_cluster.json
emit_suite "dmfb v2 job store + client streaming" \
  'JobStore|ClientJobStream' \
  BENCH_v2_api.json
