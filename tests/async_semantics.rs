//! Asynchronous-HMM semantics under stress: every algorithm must be
//! insensitive to block scheduling, worker count and launch interleaving,
//! and must obey the barrier-window access discipline (verified by the
//! dynamic race detector).

use gpu_exec::{BlockOrder, Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{compute_sat, par, seq, Matrix};

fn input(n: usize) -> Matrix<i64> {
    Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) % 37) as i64 - 18)
}

#[test]
fn results_identical_across_worker_counts_and_orders() {
    let n = 36;
    let a = input(n);
    let want = seq::sat_reference(&a);
    for workers in [0usize, 1, 3, 7] {
        for order in [
            BlockOrder::Forward,
            BlockOrder::Reverse,
            BlockOrder::Shuffled(1),
            BlockOrder::Shuffled(0xDEAD_BEEF),
            BlockOrder::Adversarial(0xC0FF_EE00),
        ] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(4))
                    .workers(workers)
                    .order(order),
            );
            for alg in SatAlgorithm::ALL {
                let got = compute_sat(&dev, alg, &a);
                assert_eq!(got, want, "{alg:?} workers={workers} {order:?}");
            }
        }
    }
}

#[test]
fn all_algorithms_pass_the_race_detector() {
    // Every global buffer race-checked: any same-launch write-write or
    // cross-block read-after-write panics. The block algorithms must be
    // clean by construction.
    let n = 32;
    let w = 4;
    let a = input(n);
    let want = seq::sat_reference(&a);
    let dev = Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(3)
            .order(BlockOrder::Shuffled(99)),
    );

    // In-place algorithms.
    {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        par::sat_2r2w(&dev, &buf, n, n);
        assert_eq!(buf.into_vec(), want.as_slice());
    }
    {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        par::sat_4r1w(&dev, &buf, n, n);
        assert_eq!(buf.into_vec(), want.as_slice());
    }
    {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let tmp = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        par::sat_4r4w(&dev, &buf, &tmp, n, n);
        assert_eq!(buf.into_vec(), want.as_slice());
    }
    // Out-of-place algorithms.
    for r in [0.0, 0.5, 1.0] {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let s = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        par::sat_hybrid(&dev, &buf, &s, n, n, r);
        assert_eq!(s.into_vec(), want.as_slice(), "hybrid r={r}");
    }
    {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let s = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        par::sat_2r1w(&dev, &buf, &s, n, n);
        assert_eq!(s.into_vec(), want.as_slice());
    }
    {
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let s = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        par::sat_1r1w(&dev, &buf, &s, n, n);
        assert_eq!(s.into_vec(), want.as_slice());
    }
}

#[test]
fn a_deliberately_racy_kernel_is_caught() {
    // Failure injection: a "1R1W" that skips one wavefront barrier reads
    // neighbour blocks computed in the *same* launch — illegal on the
    // asynchronous HMM and caught by the detector.
    let n = 16;
    let w = 4;
    let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2));
    let a = GlobalBuffer::from_vec(input(n).into_vec());
    let s = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
    let grid = par::Grid::square(n, w);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Fuse wavefront stages 1 and 2 into one launch: blocks of stage 2
        // read bottom rows that stage-1 blocks write in the same launch.
        par::one_r1w_stage(&dev, &a, &s, grid, 0);
        let blocks: Vec<(usize, usize)> = grid
            .diagonal_blocks(1)
            .chain(grid.diagonal_blocks(2))
            .collect();
        dev.launch(blocks.len(), |ctx| {
            let ga = ctx.view(&a);
            let gs = ctx.view(&s);
            let (bi, bj) = blocks[ctx.block_id()];
            // Minimal repro of the hazard: write own block, read the
            // neighbour's bottom row.
            let (r0, c0) = grid.origin(bi, bj);
            let mut row = vec![0i64; w];
            ga.read_contig(grid.addr(r0, c0), &mut row, ctx.rec());
            // Write the block's bottom row (as 1R1W's store does) …
            gs.write_contig(grid.addr(r0 + w - 1, c0), &row, ctx.rec());
            // … and read the neighbour's bottom row, which a stage-1 block
            // of this same fused launch writes: the hazard.
            if bi > 0 {
                let mut top = vec![0i64; w];
                gs.read_contig(grid.addr(r0 - 1, c0), &mut top, ctx.rec());
            }
        });
    }));
    assert!(result.is_err(), "missing barrier must be detected");
}

#[test]
fn persistent_1r1w_matches_reference_across_schedules_and_workers() {
    // The persistent-block driver replaces every launch barrier with a
    // flagged handoff; its output must still be bit-equal to the sequential
    // reference whatever the worker count and block schedule. Buffers are
    // race-checked: an unpublished read would panic, not just miscompare.
    let n = 32;
    let a = input(n);
    let want = seq::sat_reference(&a);
    for workers in [0usize, 1, 3, 7] {
        for order in [
            BlockOrder::Forward,
            BlockOrder::Reverse,
            BlockOrder::Shuffled(0xDEAD_BEEF),
            BlockOrder::Adversarial(0xC0FF_EE00),
        ] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(4))
                    .workers(workers)
                    .order(order),
            );
            let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
            let s = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
            par::sat_1r1w_persistent(&dev, &buf, &s, n, n);
            assert_eq!(
                s.into_vec(),
                want.as_slice(),
                "persistent 1R1W workers={workers} {order:?}"
            );
            assert_eq!(dev.launches(), 1, "one launch, no fallback");
        }
    }
}

#[test]
fn persistent_1r1w_survives_abort_faults_via_staged_fallback() {
    // When fault injection aborts the persistent launch, residents notice
    // `launch_failed`, stop waiting on handoffs, and the driver falls back
    // to the launch-per-stage path with per-stage retry — still bit-exact.
    use gpu_exec::FaultPlan;
    let n = 32;
    let a = input(n);
    let want = seq::sat_reference(&a);
    for seed in [1u64, 9, 23] {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(3)
                .fault_plan(FaultPlan::new(seed).launch_abort_p(0.5)),
        );
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let s = GlobalBuffer::from_vec(vec![0i64; n * n]);
        par::sat_1r1w_persistent(&dev, &buf, &s, n, n);
        assert_eq!(s.into_vec(), want.as_slice(), "seed {seed}");
    }
}

#[test]
fn persistent_1r1w_trace_is_clean_under_hmm_lint() {
    // The handoff-aware analyzer must prove the persistent run clean: the
    // barrier-race rule is skipped (handoffs declared), and safety rests on
    // the schedule-generalizing rules, which understand release→acquire
    // edges. Counters must also track the persistent contract's Table I row.
    use hmm_lint::{analyze_run, KernelContract};
    let n = 64;
    let cfg = MachineConfig::with_width(8);
    let a = input(n);
    let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
    let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
    let s = GlobalBuffer::from_vec(vec![0i64; n * n]);
    par::sat_1r1w_persistent(&dev, &buf, &s, n, n);
    let counters = dev.stats();
    let trace = dev.take_trace();
    let contract = KernelContract::for_persistent_1r1w(n, cfg);
    let analysis = analyze_run(&trace, &counters, &cfg, &contract);
    assert!(
        analysis.report.is_clean(),
        "persistent trace has findings:\n{}",
        analysis.report.render()
    );
    assert_eq!(counters.barrier_steps, 0, "no launch barrier survives");
    assert!(counters.handoff_publishes > 0 && counters.handoff_acquires > 0);
}

#[test]
fn stats_are_schedule_invariant() {
    // Transaction counts are a property of the algorithm, not the schedule
    // or the thread that ran a block: each pool thread adds its blocks to
    // its own counter slot, and a launch sums the slots once.
    let n = 32;
    let a = input(n);
    let batch = [a.clone(), input(n).transposed(), a.clone()];
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Alg(SatAlgorithm),
        Persistent1R1W,
        FusedBatchOf3,
    }
    let paths = SatAlgorithm::ALL.map(Path::Alg).into_iter();
    let paths = paths.chain([Path::Persistent1R1W, Path::FusedBatchOf3]);
    let run = |dev: &Device, path| match path {
        Path::Alg(alg) => drop(compute_sat(dev, alg, &a)),
        Path::Persistent1R1W => {
            let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let s = GlobalBuffer::from_vec(vec![0i64; n * n]);
            par::sat_1r1w_persistent(dev, &buf, &s, n, n);
        }
        Path::FusedBatchOf3 => drop(sat_core::compute_sat_batch(dev, &batch)),
    };
    for path in paths {
        let mut baseline = None;
        for (workers, order) in [
            (0usize, BlockOrder::Forward),
            (0, BlockOrder::Reverse),
            (1, BlockOrder::Forward),
            (1, BlockOrder::Shuffled(7)),
            (3, BlockOrder::Forward),
            (3, BlockOrder::Shuffled(7)),
            (3, BlockOrder::Adversarial(7)),
        ] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(4))
                    .workers(workers)
                    .order(order),
            );
            dev.reset_stats();
            run(&dev, path);
            let stats = dev.stats();
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(&stats, b, "{path:?}, workers {workers}, {order:?}"),
            }
        }
    }
}
