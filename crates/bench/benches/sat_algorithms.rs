//! Criterion wall-clock benchmarks of every SAT algorithm on the virtual
//! GPU (host time of this library's executor — the per-size *rankings* on
//! the machine model are produced by the `table2` binary; these benches
//! track the implementation's real cost and catch regressions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_exec::{BufferPool, Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_bench::workload;
use sat_core::par;

fn device() -> Device {
    // Stats off: measure the algorithms, not the accounting.
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(32))
            .workers(0)
            .record_stats(false),
    )
}

fn bench_algorithms(c: &mut Criterion) {
    let dev = device();
    let mut group = c.benchmark_group("sat");
    for n in [256usize, 512, 1024] {
        group.throughput(Throughput::Elements((n * n) as u64));
        let input = workload(n);
        for alg in SatAlgorithm::ALL {
            // 4R1W is quadratic in launches; bench only the smallest size.
            if alg == SatAlgorithm::FourR1W && n > 256 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(alg.name(), n), &input, |b, input| {
                b.iter(|| {
                    let buf = GlobalBuffer::from_vec(input.as_slice().to_vec());
                    par::sat(&dev, &BufferPool::new(), alg, 0.5, buf, n, n)
                });
            });
        }
    }
    group.finish();
}

fn bench_stats_overhead(c: &mut Criterion) {
    // How much the transaction accounting costs (Table I instrumentation).
    let n = 512;
    let input = workload(n);
    let mut group = c.benchmark_group("stats_overhead");
    for (name, stats) in [("off", false), ("on", true)] {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(32))
                .workers(0)
                .record_stats(stats),
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let buf = GlobalBuffer::from_vec(input.as_slice().to_vec());
                let s = GlobalBuffer::filled(0.0f64, n * n);
                par::sat_1r1w(&dev, &buf, &s, n, n);
                s
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_algorithms, bench_stats_overhead
}
criterion_main!(benches);
