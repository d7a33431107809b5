#!/usr/bin/env sh
# bench_snapshot.sh — capture the dispatcher and codec benchmarks as a
# machine-readable JSON snapshot (BENCH_pr10.json at the repo root).
#
# The snapshot records the skim tentpole's headline numbers: the full
# dispatcher exchange (BenchmarkDispatchExchange — the ≤7 allocs/op
# gate reads against this), the burst path (BenchmarkDispatchBatch),
# the wall-clock shard ablation (BenchmarkDispatchSharded), the skim
# codec trio (BenchmarkSkim / BenchmarkSkimRewrite — the zero-alloc
# scan and splice — against BenchmarkParseRewrite, the parse-path
# equivalent; their ratio is emitted as its own derived row), and the
# loadgen saturation ramp over netsim (BenchmarkSaturationRamp,
# reporting virtual msg/min and real wall-ms per point).
#
# PR 10 adds the durability rows: WAL append ns/op under each sync
# policy (BenchmarkWALAppend/nosync|group|always — the zero-alloc gate
# reads against the nosync row), recovery replay throughput
# (BenchmarkWALRecovery, rec/s), and the store's put+delete round-trip
# over the WAL (BenchmarkStorePutDelete).
#
# Usage: scripts/bench_snapshot.sh [output.json]
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_pr10.json}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'DispatchExchange|DispatchBatch|DispatchSharded' -benchmem -count=1 \
    ./internal/dispatch/msgdisp/ >>"$tmp"
go test -run '^$' -bench 'Skim$|SkimRewrite$|ParseRewrite$' -benchmem -count=1 \
    ./internal/wsa/ >>"$tmp"
go test -run '^$' -bench 'SaturationRamp' -benchtime 1x -count=1 \
    . >>"$tmp"
go test -run '^$' -bench 'TimerWheel' -benchmem -count=1 \
    ./internal/clock/ >>"$tmp"
go test -run '^$' -bench 'WALAppend|WALRecovery' -benchmem -count=1 \
    ./internal/wal/ >>"$tmp"
go test -run '^$' -bench 'StorePutDelete' -benchmem -count=1 \
    ./internal/store/ >>"$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    nsop = ""; nsmsg = ""; bop = ""; allocs = ""
    msgmin = ""; notsent = ""; wallms = ""; recs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op")     nsop    = $i
        if ($(i + 1) == "ns/msg")    nsmsg   = $i
        if ($(i + 1) == "B/op")      bop     = $i
        if ($(i + 1) == "allocs/op") allocs  = $i
        if ($(i + 1) == "msg/min")   msgmin  = $i
        if ($(i + 1) == "not-sent")  notsent = $i
        if ($(i + 1) == "wall-ms")   wallms  = $i
        if ($(i + 1) == "rec/s")     recs    = $i
    }
    row = sprintf("    \"%s\": {\"ns_per_op\": %s", name, nsop)
    if (nsmsg != "")   row = row sprintf(", \"ns_per_msg\": %s", nsmsg)
    if (bop != "")     row = row sprintf(", \"bytes_per_op\": %s", bop)
    if (allocs != "")  row = row sprintf(", \"allocs_per_op\": %s", allocs)
    if (msgmin != "")  row = row sprintf(", \"msg_per_min\": %s", msgmin)
    if (notsent != "") row = row sprintf(", \"not_sent\": %s", notsent)
    if (wallms != "")  row = row sprintf(", \"wall_ms\": %s", wallms)
    if (recs != "")    row = row sprintf(", \"records_per_s\": %s", recs)
    row = row "}"
    rows[++n] = row
    nsByName[name] = nsop
}
END {
    # Derived row: the skim-vs-parse hot-leg ratio (scan+splice over
    # parse+rewrite, same standard envelope). Below 1.0 the skim is winning.
    if (nsByName["SkimRewrite"] != "" && nsByName["ParseRewrite/standard"] != "")
        rows[++n] = sprintf("    \"SkimVsParseRatio\": {\"ratio\": %.3f}",
            nsByName["SkimRewrite"] / nsByName["ParseRewrite/standard"])
    printf "{\n"
    printf "  \"snapshot\": \"pr10-durable-wal\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    printf "  }\n"
    printf "}\n"
}' "$tmp" >"$out"

echo "wrote $out:"
cat "$out"
