//! Deterministic fault injection: each fault class behaves as specified,
//! and the whole fault/event stream is a pure function of the plan's seed.

use std::time::Duration;

use gpu_exec::{Device, DeviceOptions, FaultEvent, FaultPlan, GlobalBuffer, LossWindow};
use hmm_model::MachineConfig;
use proptest::prelude::*;

const GRID: usize = 8;
const PER_BLOCK: usize = 16;

fn dev_with(plan: FaultPlan, workers: usize) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(8))
            .workers(workers)
            .fault_plan(plan),
    )
}

/// One deterministic launch: block `b` writes 16 derived words into its
/// slice of `buf`. Returns nothing; faults show up in the buffer contents.
fn run_round(dev: &Device, buf: &GlobalBuffer<u64>, round: u64) {
    dev.launch(GRID, |ctx| {
        let g = ctx.view(buf);
        let base = ctx.block_id() * PER_BLOCK;
        let mut v = [0u64; PER_BLOCK];
        g.read_contig(base, &mut v, ctx.rec());
        for (k, x) in v.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(round * 131 + k as u64 + 1);
        }
        g.write_contig(base, &v, ctx.rec());
    });
}

fn final_state(plan: Option<FaultPlan>, rounds: u64) -> (Vec<u64>, Vec<FaultEvent>, u64) {
    let dev = match plan {
        Some(p) => dev_with(p, 2),
        None => Device::new(DeviceOptions::new(MachineConfig::with_width(8)).workers(2)),
    };
    let buf = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    for r in 0..rounds {
        run_round(&dev, &buf, r);
    }
    let events = dev.take_fault_events();
    let epoch = dev.fault_epoch();
    (buf.into_vec(), events, epoch)
}

#[test]
fn empty_plan_is_dropped_and_injects_nothing() {
    let dev = dev_with(FaultPlan::new(7), 2);
    assert!(dev.fault_plan().is_none(), "empty plans cost nothing");
    let buf = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    run_round(&dev, &buf, 0);
    assert_eq!(dev.fault_epoch(), 0);
    assert!(dev.take_fault_events().is_empty());
}

#[test]
fn launch_abort_skips_blocks_and_bumps_the_fault_epoch() {
    let plan = FaultPlan::new(11).launch_abort_p(1.0);
    let (faulty, events, epoch) = final_state(Some(plan), 1);
    let (clean, _, _) = final_state(None, 1);
    assert!(epoch >= 1, "aborted launches are detectable");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FaultEvent::LaunchAborted { .. })),
        "{events:?}"
    );
    // Roughly half the blocks never ran: their slices kept the fill value.
    let untouched = faulty
        .chunks(PER_BLOCK)
        .filter(|c| c.iter().all(|&x| x == 1))
        .count();
    assert!(untouched > 0, "an abort must skip at least one block");
    assert_ne!(faulty, clean);
}

#[test]
fn device_loss_window_skips_everything_and_marks_the_trace() {
    let plan = FaultPlan::new(3).loss(LossWindow::Launches { start: 0, count: 1 });
    let dev = Device::new(
        DeviceOptions::new(MachineConfig::with_width(8))
            .workers(0)
            .record_trace(true)
            .fault_plan(plan),
    );
    let buf = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    run_round(&dev, &buf, 0); // lost: window covers launch 0 only
    run_round(&dev, &buf, 1); // healthy
    assert_eq!(dev.fault_epoch(), 1);
    let events = dev.take_fault_events();
    assert_eq!(events, vec![FaultEvent::DeviceLost { launch: 0 }]);
    let trace = dev.take_trace();
    assert!(trace.launches[0].lost, "lost launch is marked in the trace");
    assert!(!trace.launches[1].lost);
    // The lost launch wrote nothing: round 1 saw the original fill.
    let expect = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    let clean = Device::new(DeviceOptions::new(MachineConfig::with_width(8)).workers(0));
    run_round(&clean, &expect, 1);
    assert_eq!(buf.into_vec(), expect.into_vec());
}

#[test]
fn corruption_silently_flips_exactly_one_write_per_launch() {
    let plan = FaultPlan::new(5).corrupt_p(1.0);
    let (faulty, events, epoch) = final_state(Some(plan), 1);
    let (clean, _, _) = final_state(None, 1);
    assert_eq!(epoch, 0, "corruption is silent — no fault epoch bump");
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Corrupted { .. }))
            .count(),
        1
    );
    let diffs = faulty.iter().zip(&clean).filter(|(a, b)| a != b).count();
    assert_eq!(diffs, 1, "exactly one victim word per corrupted launch");
}

#[test]
fn stragglers_delay_but_never_change_results() {
    let plan = FaultPlan::new(13).straggler(1.0, Duration::from_micros(1));
    let (faulty, events, epoch) = final_state(Some(plan), 2);
    let (clean, _, _) = final_state(None, 2);
    assert_eq!(epoch, 0);
    assert!(events
        .iter()
        .all(|e| matches!(e, FaultEvent::Straggler { .. })));
    assert_eq!(events.len(), 2 * GRID, "every block of every launch");
    assert_eq!(faulty, clean, "stragglers only shift timing");
}

#[test]
fn a_lost_launch_leaves_the_buffer_untouched() {
    // A lost launch runs no block at all: the epoch moves, but the buffer
    // keeps what the earlier healthy launch wrote.
    let dev = dev_with(
        FaultPlan::new(5).loss(LossWindow::Launches { start: 1, count: 1 }),
        2,
    );
    let mut buf = GlobalBuffer::filled(1u64, GRID * PER_BLOCK);
    run_round(&dev, &buf, 0); // healthy launch writes
    let healthy = buf.as_slice().to_vec();
    run_round(&dev, &buf, 1); // lost: epoch bumps, nothing runs
    assert_eq!(dev.fault_epoch(), 1, "the loss moved the epoch");
    assert_eq!(buf.as_slice(), &healthy[..], "contents untouched");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The satellite contract: one seed, one fault history. Two devices
    /// built from the same plan replay the identical event sequence and
    /// produce bit-identical memory — even with worker-thread parallelism,
    /// because fault decisions key on the launch index, not on timing.
    #[test]
    fn same_seed_same_faults_same_memory(
        seed in 0u64..1_000,
        abort_pm in 0u64..40,
        corrupt_pm in 0u64..40,
        loss_start in 0u64..6,
        rounds in 1u64..8,
    ) {
        let plan = FaultPlan::new(seed)
            .launch_abort_p(abort_pm as f64 / 100.0)
            .corrupt_p(corrupt_pm as f64 / 100.0)
            .straggler(0.2, Duration::from_micros(1))
            .loss(LossWindow::Launches { start: loss_start, count: 1 });
        let (mem_a, ev_a, epoch_a) = final_state(Some(plan.clone()), rounds);
        let (mem_b, ev_b, epoch_b) = final_state(Some(plan), rounds);
        prop_assert_eq!(ev_a, ev_b, "event sequences diverged");
        prop_assert_eq!(epoch_a, epoch_b);
        prop_assert_eq!(mem_a, mem_b, "final memory diverged");
    }
}
