#!/usr/bin/env bash
# Alternating A/B runs of one perfbench workload: a base revision against
# the working tree.
#
#   scripts/bench_pairs.sh <workload> <pairs> [seconds] [metric]
#
# Builds perfbench twice: from an export of the base revision (`BASE`,
# default `HEAD~`) under target/bench_pairs/base, and from the working tree.
# Then runs <pairs> pairs of `--trace 0` runs of <seconds> each (default
# 10), the side that goes first switching every pair, and prints each
# side's median and quartiles of <metric> (default throughput_mpix_s) and
# how many pairs the working tree won. Every run's result line is kept in
# target/bench_pairs/{base,head}.jsonl for the other metrics. `SEED`
# (default 7) is the perfbench seed of every run. perfbench is called only
# through its command line; nothing under perfbench/ changes.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: $0 <workload> <pairs> [seconds] [metric]"
workload=${1:?$usage}
pairs=${2:?$usage}
seconds=${3:-10}
metric=${4:-throughput_mpix_s}
base=${BASE:-HEAD~}
seed=${SEED:-7}

# Whether a higher value of the metric is better, from BENCHMARK.json.
better=$(grep -o "\"name\": \"$metric\"[^}]*\"better\": \"[a-z]*\"" BENCHMARK.json |
    grep -o '"better": "[a-z]*"' | cut -d'"' -f4) || true
[ -n "$better" ] || { echo "error: unknown metric $metric" >&2; exit 1; }

out=target/bench_pairs
base_dir=$out/base
rm -rf "$base_dir"
mkdir -p "$base_dir"
git archive "$base" | tar -x -C "$base_dir"
echo "== base $(git rev-parse --short "$base") exported to $base_dir" >&2

perfbench() { # <checkout dir> <perfbench args...>
    local dir=$1
    shift
    cargo run --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml" -- "$@"
}

echo "== building perfbench at base and in the working tree" >&2
perfbench "$base_dir" --workload "$workload" --seed "$seed" --seconds 1 --trace 0 >/dev/null
perfbench . --workload "$workload" --seed "$seed" --seconds 1 --trace 0 >/dev/null

value() { # <checkout dir> <side>: one run, keeps its result line, prints the metric
    perfbench "$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 | tee -a "$out/$2.jsonl" |
        grep -o "\"$metric\": {\"value\": [-0-9.eE+]*" | awk '{ print $NF }'
}

rm -f "$out"/{base,head}.{txt,jsonl}
wins=0
for ((p = 0; p < pairs; p++)); do
    if ((p % 2 == 0)); then
        b=$(value "$base_dir" base)
        h=$(value . head)
    else
        h=$(value . head)
        b=$(value "$base_dir" base)
    fi
    echo "$b" >>"$out/base.txt"
    echo "$h" >>"$out/head.txt"
    won=$(awk -v b="$b" -v h="$h" -v hi="$better" \
        'BEGIN { print ((hi == "higher") ? (h > b) : (h < b)) }')
    wins=$((wins + won))
    echo "pair $((p + 1)): base $b  head $h  $([ "$won" = 1 ] && echo win || echo loss)" >&2
done

summary() { # <label> <file>: median and quartiles (nearest rank)
    sort -g "$2" | awk -v label="$1" '
        { v[NR] = $1 }
        END {
            q1 = v[int((NR + 3) / 4)]; med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
            q3 = v[NR + 1 - int((NR + 3) / 4)]
            printf "%s median %.4g  q1 %.4g  q3 %.4g  iqr %.4g\n", label, med, q1, q3, q3 - q1
        }'
}

echo "$workload $metric ($better is better), $pairs pairs of ${seconds}s, seed $seed"
summary "base" "$out/base.txt"
summary "head" "$out/head.txt"
echo "head wins $wins/$pairs"
