#!/usr/bin/env bash
# Full local gate: formatting, lints, and every test in the workspace.
# Run from anywhere; mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== bash -n (helper scripts parse)"
bash -n scripts/bench_pairs.sh

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors, so a broken intra-doc link"
echo "   fails; the vendored shims under vendor/ are left out)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude rand --exclude parking_lot

echo "== cargo test (root package: tier-1)"
cargo test -q

echo "== cargo test (workspace)"
cargo test -q --workspace

echo "== perfbench smoke (the benchmark package lives outside the workspace,"
echo "   so neither clippy nor the workspace tests compile it: build and run"
echo "   two short workloads against the current crates)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve-mixed --seed 1 --seconds 2 --trace 0
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload paper-mix-256 --seed 1 --seconds 2 --trace 1

echo "== loadgen smoke (serving layer end-to-end; traced run must link at"
echo "   least one request admit -> batch -> launch -> complete by flow arrows)"
cargo run --release -q -p sat-bench --bin loadgen -- \
    --threads 4 --requests 8 --n 32 --width 4 \
    --json target/BENCH_service_smoke.json \
    --trace target/loadgen_smoke_trace.json \
    --metrics-snapshot target/loadgen_smoke_metrics.prom
grep -q '# {request_id="' target/loadgen_smoke_metrics.prom || {
    echo "error: loadgen metrics snapshot carries no exemplar" >&2
    exit 1
}

echo "== loadgen conformance gate (fault-free traffic: the online (w, Λ) fit"
echo "   must converge to the configured machine with zero drift alerts, and"
echo "   the metrics snapshot must strict-parse against the family allow-list)"
cargo run --release -q -p sat-bench --bin loadgen -- \
    --threads 4 --requests 24 --n 32 --width 4 \
    --check-conformance \
    --json target/BENCH_service_conformance_smoke.json \
    --metrics-snapshot target/loadgen_conformance_metrics.prom
grep -q '^sat_service_model_fit_converged 1$' target/loadgen_conformance_metrics.prom || {
    echo "error: conformance snapshot does not report a converged fit" >&2
    exit 1
}

echo "== loadgen fleet gate (4-shard banded SAT at n = 512, w = 4: the fleet's"
echo "   modeled critical path must beat single-device 1R1W by >= 3x)"
cargo run --release -q -p sat-bench --bin loadgen -- \
    --threads 4 --requests 8 --n 512 --width 4 \
    --shards 4 --min-model-speedup 3 \
    --json target/BENCH_service_fleet_smoke.json

echo "== chaosgen smoke (fault injection + self-healing, abort+corruption)"
cargo run --release -q -p sat-bench --bin chaosgen -- \
    --threads 4 --requests 8 --n 16 --width 4 --seed 7 \
    --scenarios abort,corrupt --json target/BENCH_chaos_smoke.json

echo "== chaosgen post-mortem gate (breaker-open scenario must dump exactly"
echo "   one schema-valid flight-recorder bundle)"
rm -rf target/chaos_postmortem_smoke
cargo run --release -q -p sat-bench --bin chaosgen -- \
    --threads 2 --requests 8 --n 16 --width 4 --seed 7 \
    --scenarios loss --json target/BENCH_chaos_loss_smoke.json \
    --postmortem-dir target/chaos_postmortem_smoke
[ "$(ls target/chaos_postmortem_smoke/postmortem-loss-*.json | wc -l)" -eq 1 ] || {
    echo "error: expected exactly one post-mortem bundle" >&2
    exit 1
}

echo "== chaosgen fleet gate (one of four shards dead mid-run: 100% bit-exact,"
echo "   zero degraded, >= 1 failover, exactly one shard_failover bundle)"
rm -rf target/chaos_postmortem_fleet
cargo run --release -q -p sat-bench --bin chaosgen -- \
    --threads 4 --requests 12 --n 16 --width 4 --seed 7 \
    --scenarios shard-loss --json target/BENCH_chaos_fleet_smoke.json \
    --postmortem-dir target/chaos_postmortem_fleet
[ "$(ls target/chaos_postmortem_fleet/postmortem-shard-loss-*-shard_failover.json | wc -l)" -eq 1 ] || {
    echo "error: expected exactly one shard-failover post-mortem bundle" >&2
    exit 1
}

echo "== svcprobe (telemetry listener over plain TCP: /metrics byte-identity,"
echo "   exposition + exemplar syntax, /healthz JSON, /debug/flight, shutdown)"
cargo run --release -q -p sat-bench --bin svcprobe

echo "== video_batch example (staged and batch-fused 1R1W through the simulator:"
echo "   bit-equal to each other and within tolerance of the reference)"
cargo run --release -q --example video_batch

echo "== satlint over a traced service batch"
cargo run --release -q -p sat-bench --bin satlint -- --n 64 --batch 8

echo "== satlint race gate (happens-before analysis + 4-schedule replay;"
echo "   includes the persistent-block 1R1W cell, which must be clean)"
cargo run --release -q -p sat-bench --bin satlint -- --n 64 --races --schedules 4

echo "== satlint broken-fixture self-test (must exit nonzero with detectors agreeing)"
if out=$(cargo run --release -q -p sat-bench --bin satlint -- --fixtures 2>&1); then
    echo "$out"
    echo "error: satlint --fixtures exited 0 — broken fixtures were not flagged" >&2
    exit 1
fi
if ! grep -q "analyzer and replay agree" <<<"$out"; then
    echo "$out"
    echo "error: satlint --fixtures: analyzer and schedule replay disagree" >&2
    exit 1
fi

echo "== inspect smoke (each of the six paper names parses and runs through"
echo "   the one SAT dispatch)"
for alg in 2R2W 4R4W 4R1W 2R1W 1R1W '(1+r^2)R1W'; do
    cargo run --release -q -p sat-bench --bin inspect -- --alg "$alg" --n 64 --w 8 >/dev/null
done

echo "== inspect recursion smoke (at w = 4, n = 64 2R1W recurses once, k = 1:"
echo "   3k + 3 = 6 launches; the hybrid's triangles share its kernels)"
for alg in 2R1W '(1+r^2)R1W'; do
    out=$(cargo run --release -q -p sat-bench --bin inspect -- --alg "$alg" --n 64 --w 4)
    if [ "$alg" = 2R1W ] && ! grep -q ": 6 launches" <<<"$out"; then
        echo "$out"
        echo "error: inspect: 2R1W at n = 64, w = 4 should issue 6 launches" >&2
        exit 1
    fi
done

echo "== unsafe-code audit (every unsafe block carries a SAFETY comment)"
./scripts/unsafe_audit.sh

echo "== satprof smoke (Perfetto trace schema + exact 1R1W counter check,"
echo "   plus the online conformance fit recovering the configured machine)"
cargo run --release -q -p sat-bench --bin satprof -- \
    --algo all --n 256 --check --conformance --trace target/satprof_smoke.json

echo "== satprof persistent smoke (one launch, exact counts incl. flag words, B = 0)"
cargo run --release -q -p sat-bench --bin satprof -- \
    --algo 1r1w-persist --n 256 --check --trace target/satprof_persist_smoke.json

echo "== satprof burst smoke (service trace schema + histogram exposition)"
cargo run --release -q -p sat-bench --bin satprof -- \
    --burst 16 --n 64 --trace target/satprof_burst_smoke.json

echo "== benchdiff smoke (small n, loose tolerance, vs committed baseline;"
echo "   the persistent cell's barrier term must be strictly below staged 1R1W's,"
echo "   and the fault-free conformance pass must fit (w, Λ) with zero drift)"
cargo run --release -q -p sat-bench --bin benchdiff -- \
    --sizes 128 --runs 3 --tolerance 0.9 --conformance \
    --conformance-dir target/benchdiff_conformance

echo "== benchdiff drift gate (an injected 8x slowdown on 1R1W must trip"
echo "   exactly one cusum drift alert and dump one schema-valid bundle whose"
echo "   drift_alert event names the drifting cell and shard)"
rm -rf target/benchdiff_drift
if cargo run --release -q -p sat-bench --bin benchdiff -- \
    --sizes 128 --runs 1 --tolerance 0.9 --conformance \
    --conformance-dir target/benchdiff_drift \
    --inject-slowdown 1R1W:8 >target/benchdiff_drift_out.txt 2>&1; then
    cat target/benchdiff_drift_out.txt
    echo "error: benchdiff must fail the wall gate under an 8x injected slowdown" >&2
    exit 1
fi
grep -q 'drift bundle .* validates' target/benchdiff_drift_out.txt || {
    cat target/benchdiff_drift_out.txt
    echo "error: injected slowdown did not produce a validated drift bundle" >&2
    exit 1
}
grep -q 'drift_alert names 1R1W/128x128 on shard 0' target/benchdiff_drift_out.txt || {
    cat target/benchdiff_drift_out.txt
    echo "error: the drift bundle's drift_alert does not name cell 1R1W/128x128, shard 0" >&2
    exit 1
}
[ "$(ls target/benchdiff_drift/postmortem-conformance-drift-*.json | wc -l)" -eq 1 ] || {
    echo "error: expected exactly one conformance drift bundle" >&2
    exit 1
}

echo "== benchdiff history invariants (schema, monotone seq / timestamps)"
cargo run --release -q -p sat-bench --bin benchdiff -- \
    --validate-history BENCH_history.jsonl

echo "== all checks passed"
