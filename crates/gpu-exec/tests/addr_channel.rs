//! The address channel is a pure addition to the trace: recording it must
//! not perturb any counter or `TraceOp`, and every recorded pattern must be
//! consistent with the stage count the recorder measured for its op.

use gpu_exec::{AddrPattern, Device, DeviceOptions, GlobalBuffer, TileLayout};
use hmm_model::{MachineConfig, MemSpace};

const W: usize = 8;

fn cfg() -> MachineConfig {
    MachineConfig::with_width(W).latency(4)
}

/// A kernel exercising every access shape: contiguous, strided (a column and
/// an anti-diagonal), single-word, and shared tile rows/columns, over two
/// launches.
fn run_mixed(dev: &Device) {
    let a = GlobalBuffer::from_vec((0..4 * W * W).map(|x| x as f64).collect());
    let b = GlobalBuffer::filled(0.0f64, 4 * W * W);
    for _ in 0..2 {
        dev.launch(4, |ctx| {
            let blk = ctx.block_id();
            let ga = ctx.view(&a);
            let gb = ctx.view(&b);
            let base = blk * W * W;
            let mut v = [0.0; W];
            ga.read_contig(base, &mut v, ctx.rec());
            ga.read_strided(base, W, &mut v, ctx.rec());
            ga.read_strided(base + W - 1, W - 1, &mut v, ctx.rec());
            let x = ga.read(base + 1, ctx.rec());
            let mut t = ctx.shared_tile::<f64>(TileLayout::Diagonal);
            t.write_row(0, &v, ctx.rec());
            t.read_col(2, &mut v, ctx.rec());
            gb.write_contig(base, &v, ctx.rec());
            gb.write(base + 1, x, ctx.rec());
        });
    }
}

#[test]
fn address_channel_does_not_change_counters() {
    let stats_only = Device::new(DeviceOptions::new(cfg()).workers(0).record_stats(true));
    run_mixed(&stats_only);
    let tracing = Device::new(DeviceOptions::new(cfg()).workers(0).record_trace(true));
    run_mixed(&tracing);
    assert_eq!(stats_only.stats(), tracing.stats());
    assert!(stats_only.take_trace().launches.is_empty());
    assert!(!tracing.take_trace().launches.is_empty());
}

#[test]
fn every_op_has_a_pattern_consistent_with_its_stages() {
    let dev = Device::new(DeviceOptions::new(cfg()).workers(0).record_trace(true));
    run_mixed(&dev);
    let trace = dev.take_trace();
    assert_eq!(trace.launches.len(), 2);
    let mut words = Vec::new();
    for launch in &trace.launches {
        assert!(launch.has_addrs());
        assert_eq!(launch.blocks.len(), launch.addrs.len());
        for (ops, pats) in launch.blocks.iter().zip(&launch.addrs) {
            assert_eq!(ops.len(), pats.len(), "one pattern per op");
            for (op, pat) in ops.iter().zip(pats) {
                match op.space {
                    MemSpace::Global => {
                        // The pattern carries exactly the op's lanes, and
                        // re-deriving the group count from the addresses
                        // reproduces the recorded stage count.
                        words.clear();
                        pat.global_words(&mut words);
                        assert_eq!(words.len(), op.ops as usize);
                        assert_eq!(pat.umm_stages(W), Some(op.stages));
                    }
                    MemSpace::Shared => {
                        assert!(matches!(
                            pat,
                            AddrPattern::TileRow { .. } | AddrPattern::TileCol { .. }
                        ));
                        assert_eq!(pat.umm_stages(W), None);
                    }
                }
            }
        }
    }
}

#[test]
fn patterns_carry_buffer_identity() {
    let a = GlobalBuffer::filled(0.0f64, W);
    let b = GlobalBuffer::filled(0.0f64, W);
    assert_ne!(a.id(), b.id());
    let dev = Device::new(DeviceOptions::new(cfg()).workers(0).record_trace(true));
    dev.launch(1, |ctx| {
        let ga = ctx.view(&a);
        let gb = ctx.view(&b);
        let vals = [1.0; W];
        ga.write_contig(0, &vals, ctx.rec());
        gb.write_contig(0, &vals, ctx.rec());
    });
    let trace = dev.take_trace();
    let pats = &trace.launches[0].addrs[0];
    // Same offsets, different buffers: the channel must tell them apart
    // (otherwise analyzers would see a false write-write race on word 0).
    match (&pats[0], &pats[1]) {
        (
            AddrPattern::Contig {
                buf: b0, base: 0, ..
            },
            AddrPattern::Contig {
                buf: b1, base: 0, ..
            },
        ) => {
            assert_eq!(*b0, a.id());
            assert_eq!(*b1, b.id());
        }
        other => panic!("unexpected patterns: {other:?}"),
    }
}
