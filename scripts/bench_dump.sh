#!/usr/bin/env bash
# Run the Criterion benches and dump the results to BENCH_core.json so that
# perf can be tracked across PRs.
#
# Usage:
#   scripts/bench_dump.sh                 # all benches -> BENCH_core.json
#   scripts/bench_dump.sh worldset_ops    # re-record one bench target
#
# The criterion shim (crates/shims/criterion) appends one JSON object per
# benchmark to $BENCH_JSON; this script wraps those lines into a single
# JSON document with run metadata. Named targets update an existing output
# file in place: each benchmark id the run produced replaces the entry
# with that id (new ids are appended); every other entry, and the run
# metadata, which describe the last full run, stay as they are.

set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-BENCH_core.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
    targets=(translation rewrite_gain rewrite_pipeline division repair translation_size worldset_ops tuple_layout wide_scan parallel_scaling columnar_exec factorized_worlds mixed_plans concurrent_sessions durability)
fi

for t in "${targets[@]}"; do
    echo "== bench: $t =="
    BENCH_JSON="$raw" cargo bench -p bench --bench "$t"
done

if [ $# -gt 0 ] && [ -s "$out" ]; then
    python3 - "$out" "$raw" <<'EOF'
import json
import sys

out, raw = sys.argv[1:3]
with open(out, encoding="utf-8") as fh:
    doc = json.load(fh)
with open(raw, encoding="utf-8") as fh:
    fresh = {e["id"]: e for e in map(json.loads, filter(str.strip, fh))}
merged = [fresh.pop(e["id"], e) for e in doc["benchmarks"]]
doc["benchmarks"] = merged + list(fresh.values())
with open(out, "w", encoding="utf-8") as fh:
    json.dump(doc, fh, indent=2)
EOF
    echo "updated $(wc -l < "$raw") benchmark entries in $out"
    exit 0
fi

{
    echo '{'
    echo "  \"recorded_at\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"git_rev\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
    echo "  \"host\": \"$(uname -sm)\","
    echo '  "benchmarks": ['
    # Join the JSON-lines with commas.
    sed '$!s/$/,/' "$raw" | sed 's/^/    /'
    echo '  ]'
    echo '}'
} > "$out"

echo "wrote $(grep -c mean_ns "$out") benchmark entries to $out"
