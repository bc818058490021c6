#!/usr/bin/env bash
# Print a one-line-per-artifact trajectory table from every BENCH_*.json in
# the repo root: which commit produced it, which tier wrote it, and the
# artifact's headline metric. Artifacts that record both a host wall time
# and the model time it simulated also show their ratio ("host/model", in
# host seconds per model second) and the core count it was measured on
# ("?" for artifacts written before `nproc` was recorded). The perfsmoke
# artifact also shows each launch leg (cold and warm dense SpMV, sparse
# SpMSpV), the discrete-event replay's host nanoseconds per simulated
# instruction and the analytic path's host nanoseconds per recorded and per
# predicted DPU, where it records them. All BENCH files
# share the schema emitted by `alpha_pim_bench::report::bench_schema_fields`
# (schema_version, commit, tier, nproc); files predating the schema show
# "-" in those columns.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v jq >/dev/null 2>&1; then
    echo "bench_summary: jq not found" >&2
    exit 1
fi

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "bench_summary: no BENCH_*.json artifacts in $(pwd)" >&2
    exit 0
fi

printf '%-28s %-6s %-14s %-15s %s\n' "artifact" "schema" "commit" "tier" "headline"
for f in "${files[@]}"; do
    jq -r --arg f "$f" '
        def host_per_model(host; model):
            if host != null and (model // 0) > 0 then
                ", host/model \((host / model * 100 | round) / 100) s/s"
                + " on \(.nproc // "?") cores"
            else
                ""
            end;
        def pick:
            if .p99_latency_ms != null then
                "p50 \((.p50_latency_ms * 1000 | round) / 1000) ms / p99 \((.p99_latency_ms * 1000 | round) / 1000) ms, shed \((.shed_rate * 10000 | round) / 100)% of \(.queries) queries"
                + host_per_model(.wall_seconds; .makespan_seconds)
            elif .throughput_multiplier != null then
                "\(.throughput_multiplier)x analytic vs replay, \(.queries) queries"
                + host_per_model(.secs_fast; .sim_seconds)
            elif .max_rel_error != null then
                "max rel err \((.max_rel_error * 10000 | round) / 100)% over \(.cases | length) pairs"
            elif .escaped_unverified != null then
                "sdc \(.injected) injected / \(.escaped) escaped verified (\(.escaped_unverified) unverified) over \(.cases | length) cases"
            elif .saved_fraction != null then
                "frontier saved \((.saved_fraction * 10000 | round) / 100)%, \(.epochs) epochs x \(.ops_per_epoch) ops on \(.graph)"
            elif .launches != null then
                "on \(.threads_par // "?") threads (\(.cores // "?") cores)" as $on
                | ([.launches[] | "\(.name) " + (if .speedup != null then "\(.speedup)x" else "not measured" end)]
                   | join(", ") + " " + $on)
                  + (if .des != null then ", DES \(.des.ns_per_instr) ns per simulated instruction" else "" end)
                  + (if .analytic != null then ", analytic \(.analytic.record_ns_per_dpu) ns recording + \(.analytic.predict_ns_per_dpu) ns predicting per DPU" else "" end)
            elif .speedup != null and .broadcast_bytes_saved != null then
                "\(.speedup)x batched, \(.broadcast_bytes_saved) bytes saved"
            elif .resumed_fingerprint != null or .fingerprint != null then
                "fingerprint \(.fingerprint // .resumed_fingerprint)"
            else
                "-"
            end;
        [$f, (.schema_version // "-" | tostring), (.commit // "-"),
         (.tier // "-"), pick] | @tsv
    ' "$f" | awk -F'\t' '{printf "%-28s %-6s %-14s %-15s %s\n", $1, $2, $3, $4, $5}'
done
