//! One launch, one ledger: every sink a launch feeds — the device stats,
//! the observer's registry counters, the launch spans, the flight recorder,
//! the fault-event log and the conformance tracker — must agree on the same
//! counts, on a device running staged and persistent launches under a fault
//! plan that aborts launches, delays blocks and corrupts stores.

use std::time::Duration;

use gpu_exec::{Device, DeviceOptions, FaultPlan, GlobalBuffer, HandoffFlags};
use hmm_model::MachineConfig;
use obs::json::JsonValue;
use obs::profile::gpu;
use obs::{Conformance, ConformanceConfig, Event, LaunchSample, Obs, Registry};

const GRID: usize = 8;
const PER_BLOCK: usize = 16;
const ROUNDS: usize = 24;

/// A launch-per-stage kernel: each block reads a strided column of `input`
/// and a contiguous slice of `buf`, then rewrites the slice.
fn staged(dev: &Device, input: &GlobalBuffer<u64>, buf: &GlobalBuffer<u64>) {
    dev.launch(GRID, |ctx| {
        let (gi, g) = (ctx.view(input), ctx.view(buf));
        let base = ctx.block_id() * PER_BLOCK;
        let mut col = [0u64; 4];
        gi.read_strided(ctx.block_id(), GRID, &mut col, ctx.rec());
        let mut v = [0u64; PER_BLOCK];
        g.read_contig(base, &mut v, ctx.rec());
        for x in &mut v {
            *x = x.wrapping_mul(3).wrapping_add(col[0]);
        }
        g.write_contig(base, &v, ctx.rec());
    });
}

/// A persistent kernel: resident `b` waits for `b − 1`'s handoff flag
/// (giving up once the launch has failed, since a skipped producer never
/// publishes), rewrites its slice and publishes its own flag.
fn persistent(dev: &Device, buf: &GlobalBuffer<u64>) {
    let grid = dev.resident_capacity();
    let flags = HandoffFlags::new(grid);
    dev.launch_persistent(grid, |ctx| {
        let b = ctx.block_id();
        let g = ctx.view(buf);
        if b > 0 {
            while !flags.acquire(b - 1, 64, ctx.rec()) {
                if ctx.launch_failed() {
                    return;
                }
            }
        }
        let mut v = [0u64; PER_BLOCK];
        g.read_contig(b * PER_BLOCK, &mut v, ctx.rec());
        g.write_contig(b * PER_BLOCK, &v, ctx.rec());
        flags.publish(b, &g, b * PER_BLOCK, PER_BLOCK, ctx.rec());
    });
}

/// The `(mode, grid, coalesced, stride, stages)` args of every launch span,
/// in launch order.
fn launch_spans(obs: &Obs) -> Vec<(&'static str, u64, u64, u64, u64)> {
    let v = JsonValue::parse(&obs.trace_json()).unwrap();
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("launch"))
        .map(|e| {
            let args = e.get("args").unwrap();
            let num = |k: &str| args.get(k).and_then(|x| x.as_f64()).unwrap() as u64;
            let mode = match args.get("mode").and_then(|m| m.as_str()) {
                Some("persistent") => "persistent",
                _ => "launch",
            };
            let counts = (num("coalesced_ops"), num("stride_ops"));
            (mode, num("grid"), counts.0, counts.1, num("global_stages"))
        })
        .collect()
}

#[test]
fn every_launch_sink_agrees_with_the_device_stats() {
    let cfg = MachineConfig::with_width(4);
    let obs = Obs::new();
    let ccfg = ConformanceConfig::for_machine(cfg.width as u64, cfg.window_overhead());
    let tracker = Conformance::new(ccfg.clone());
    let plan = FaultPlan::new(11)
        .launch_abort_p(0.25)
        .straggler(0.2, Duration::from_micros(50))
        .corrupt_p(0.3);
    let dev = Device::new(
        DeviceOptions::new(cfg)
            .workers(2)
            .observer(obs.clone())
            .conformance(tracker.clone())
            .fault_plan(plan),
    );
    let input = GlobalBuffer::from_vec((0..(GRID * PER_BLOCK) as u64).collect());
    let buf = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    for round in 0..ROUNDS {
        if round % 3 == 2 {
            persistent(&dev, &buf);
        } else {
            staged(&dev, &input, &buf);
        }
    }

    let stats = dev.stats();
    let launches = dev.launches();
    assert_eq!(launches, ROUNDS as u64);
    assert!(stats.stride_ops() > 0 && stats.handoff_publishes > 0 && stats.handoff_acquires > 0);

    // Registry totals: one add per launch of the same delta the stats got.
    let snap = obs.registry().unwrap().snapshot();
    let total = |name: &str| snap.counter(name).map_or(0, |c| c.total);
    assert_eq!(total(gpu::COALESCED_OPS), stats.coalesced_ops());
    assert_eq!(total(gpu::STRIDE_OPS), stats.stride_ops());
    assert_eq!(total(gpu::GLOBAL_STAGES), stats.global_stages);
    assert_eq!(total(gpu::HANDOFF_PUBLISHES), stats.handoff_publishes);
    assert_eq!(total(gpu::HANDOFF_ACQUIRES), stats.handoff_acquires);
    assert_eq!(total(gpu::LAUNCHES), launches);
    assert_eq!(total(gpu::BARRIER_STEPS), stats.barrier_steps);

    // Fault counters by kind equal the drained event log by kind.
    let events = dev.take_fault_events();
    for (label, kind) in [
        ("launch_abort", "launch-abort"),
        ("device_loss", "device-loss"),
        ("straggler", "straggler"),
        ("corruption", "corruption"),
    ] {
        let logged = events.iter().filter(|e| e.kind() == kind).count() as u64;
        let name = Registry::labeled(gpu::FAULT_INJECTIONS, &[("kind", label)]);
        assert_eq!(total(&name), logged, "{kind}");
        if kind != "device-loss" {
            assert!(logged > 0, "the plan must inject at least one {kind}");
        }
    }

    // One span per launch, whose deltas sum to the stats.
    let spans = launch_spans(&obs);
    assert_eq!(spans.len() as u64, launches);
    let sum = |f: fn(&(&str, u64, u64, u64, u64)) -> u64| spans.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.2), stats.coalesced_ops());
    assert_eq!(sum(|s| s.3), stats.stride_ops());
    assert_eq!(sum(|s| s.4), stats.global_stages);

    // The tracker saw exactly those deltas: a second tracker fed the span
    // deltas (wall time does not enter the fit or the residuals) ends in
    // the same state, sample for sample.
    assert_eq!(tracker.sample_count(), launches);
    let mirror = Conformance::new(ccfg);
    for &(mode, grid, coalesced_ops, stride_ops, global_stages) in &spans {
        mirror.ingest(LaunchSample {
            cell: &format!("{mode}/g{}", grid.max(1).next_power_of_two()),
            coalesced_ops,
            stride_ops,
            global_stages,
            wall_seconds: 0.0,
        });
    }
    assert_eq!(mirror.fit(), tracker.fit());
    let cells = |t: &Conformance| {
        t.cells()
            .into_iter()
            .map(|c| (c.cell, c.samples, c.mean_abs_residual))
            .collect::<Vec<_>>()
    };
    assert_eq!(cells(&mirror), cells(&tracker));

    // The flight recorder brackets every launch exactly once.
    let flight = obs.flight_recent();
    let count = |k: fn(&Event) -> bool| flight.iter().filter(|e| k(&e.event)).count() as u64;
    assert_eq!(count(|e| matches!(e, Event::LaunchBegin { .. })), launches);
    assert_eq!(count(|e| matches!(e, Event::LaunchEnd { .. })), launches);
}
