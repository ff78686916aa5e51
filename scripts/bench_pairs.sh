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
# how many pairs the working tree won, with a verdict on <metric>: "claim
# shown" when the working tree won at least 0.9 of the pairs and its
# median beats the base median by more than the base's interquartile
# range, "claim not shown" otherwise. Then the same table for every other
# end-to-end metric BENCHMARK.json declares, each judged by its own
# `better` direction. Every run's result line is kept in
# target/bench_pairs/{base,head}.jsonl. A run whose result line reads
# `"correct": false` or a nonzero `"failed"` (or that prints no result
# line) stops the script with an error naming its side and pair, so no
# table ever summarizes wrong outputs. `SEED`
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
# Every end-to-end metric, one "<name> <better>" line each.
end_to_end=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/p')

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

metric_of() { # <metric>: the metric's value in each result line on stdin
    grep -o "\"$1\": {\"value\": [-0-9.eE+]*" | awk '{ print $NF }'
}

won() { # <better> <base> <head>: 1 if head beats base, else 0 (ties lose)
    awk -v hi="$1" -v b="$2" -v h="$3" 'BEGIN { print ((hi == "higher") ? (h > b) : (h < b)) }'
}

value() { # <checkout dir> <side> <pair>: one run, keeps its result line, prints the metric
    local line status=0
    line=$(perfbench "$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1) || status=$?
    if ! grep -q '"correct": true' <<<"$line" || ! grep -Eq '"failed": 0[,}]' <<<"$line"; then
        echo "error: pair $3, $2 run (exit $status) has wrong outputs or failed operations:" >&2
        echo "  ${line:-<no result line>}" | cut -c1-300 >&2
        exit 1
    fi
    echo "$line" >>"$out/$2.jsonl"
    metric_of "$metric" <<<"$line"
}

rm -f "$out"/{base,head}.jsonl
for ((p = 0; p < pairs; p++)); do
    if ((p % 2 == 0)); then
        b=$(value "$base_dir" base $((p + 1)))
        h=$(value . head $((p + 1)))
    else
        h=$(value . head $((p + 1)))
        b=$(value "$base_dir" base $((p + 1)))
    fi
    echo "pair $((p + 1)): base $b  head $h  $([ "$(won "$better" "$b" "$h")" = 1 ] && echo win || echo loss)" >&2
done

quartiles() { # <metric> <side>: "median q1 q3" of the side's runs (nearest rank)
    metric_of "$1" <"$out/$2.jsonl" | sort -g | awk '
        { v[NR] = $1 }
        END {
            q1 = v[int((NR + 3) / 4)]; med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
            q3 = v[NR + 1 - int((NR + 3) / 4)]
            print med, q1, q3
        }'
}

wins_of() { # <metric> <better>: how many pairs head won
    local wins=0 b h
    while read -r b h; do
        wins=$((wins + $(won "$2" "$b" "$h")))
    done < <(paste <(metric_of "$1" <"$out/base.jsonl") <(metric_of "$1" <"$out/head.jsonl"))
    echo "$wins"
}

summary() { # <metric> <better>: each side's median and quartiles, head's wins
    local side med q1 q3
    for side in base head; do
        read -r med q1 q3 < <(quartiles "$1" "$side")
        awk -v s="$side" -v m="$med" -v a="$q1" -v b="$q3" \
            'BEGIN { printf "  %s median %.4g  q1 %.4g  q3 %.4g  iqr %.4g\n", s, m, a, b, b - a }'
    done
    echo "  head wins $(wins_of "$1" "$2")/$pairs"
}

# The claimed metric's verdict: shown when head wins at least 0.9 of the
# pairs and its median beats base's by more than base's interquartile range.
verdict() { # <metric> <better>
    local bmed bq1 bq3 hmed
    read -r bmed bq1 bq3 < <(quartiles "$1" base)
    read -r hmed _ < <(quartiles "$1" head)
    awk -v hi="$2" -v b="$bmed" -v q1="$bq1" -v q3="$bq3" -v h="$hmed" \
        -v w="$(wins_of "$1" "$2")" -v n="$pairs" 'BEGIN {
            gain = (hi == "higher") ? h - b : b - h
            iqr = q3 - q1
            shown = w >= 0.9 * n && gain > iqr
            printf "  %s: %d/%d wins, median gain %.4g against base iqr %.4g\n", shown ? "claim shown" : "claim not shown", w, n, gain, iqr
        }'
}

echo "$workload, $pairs pairs of ${seconds}s, seed $seed"
echo "$metric ($better is better)"
summary "$metric" "$better"
verdict "$metric" "$better"
echo "the other end-to-end metrics:"
while read -r m hi; do
    [ "$m" != "$metric" ] || continue
    echo "$m ($hi is better)"
    summary "$m" "$hi"
done <<<"$end_to_end"
