#!/usr/bin/env bash
# A/A check: two sets of runs of the same tree, compared under the
# benchmark's own bounds. Each set is what the acceptance harness makes:
# RUNS runs of every workload, each with another seed, in the one-run
# mode (`--workload W --seed N --seconds S --trace 0`). Both sets use the
# same seeds, so only the host differs between them.
#
#   benchmark/aa.sh [RUNS] [SECONDS]     # defaults: 10 runs, run_seconds of BENCHMARK.json
#
# Writes benchmark/out/aa_A.json and aa_B.json and prints one row per
# workload x end-to-end metric; exits non-zero if a row is not `ok`.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-10}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
workloads="short_chat long_prompt mixed_long prefix_batch"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mant-benchmark"
mkdir -p benchmark/out

for set in A B; do
    out="benchmark/out/aa_$set.json"
    echo '{"runs":[' > "$out"
    for seed in $(seq 1 "$runs"); do
        if [ "$seed" -gt 1 ]; then echo ',' >> "$out"; fi
        printf '{"seed":%s,"workloads":{' "$seed" >> "$out"
        first=1
        for w in $workloads; do
            line=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
            case "$line" in
                '{"correct":true,'*) ;;
                *) echo "set $set seed $seed $w: run failed: $line" >&2; exit 1 ;;
            esac
            metrics=${line#*\"metrics\":}
            metrics=${metrics%\}}
            if [ "$first" -eq 0 ]; then printf ',' >> "$out"; fi
            first=0
            printf '"%s":{"end_to_end":%s}' "$w" "$metrics" >> "$out"
            echo "set $set seed $seed $w done" >&2
        done
        printf '}}' >> "$out"
    done
    echo ']}' >> "$out"
done

"$bin" --compare benchmark/out/aa_A.json benchmark/out/aa_B.json
