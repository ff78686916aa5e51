//! The `serve-mixed` workload: closed-loop clients against
//! `Service::start(ServiceConfig::default())` with a seeded request mix.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use hmm_model::cost::SatAlgorithm;
use sat_service::{Client, Service, ServiceConfig, ServiceStats};

use crate::library::{self, Input, Ledger, OpSet, Part};
use crate::paths::Path;
use crate::report::{
    self, bit_equal, mean, median, median_over, percentile, ratio, Facts, Metric, Outcome, Rng,
};
use crate::{host, Args, SETUPS};

/// The request mix: 6/8 are 64×64 1R1W; 1/8 ragged 48×80 1R1W (pads to
/// 64×96, so it never shares a batch with the squares); 1/8 64×64 2R1W,
/// which the service never batches.
const KINDS: [(usize, usize, SatAlgorithm); 3] = [
    (64, 64, SatAlgorithm::OneR1W),
    (48, 80, SatAlgorithm::OneR1W),
    (64, 64, SatAlgorithm::TwoR1W),
];

fn draw_kind(rng: &mut Rng) -> usize {
    match rng.below(8) {
        0..=5 => 0,
        6 => 1,
        _ => 2,
    }
}

/// Distinct generated inputs per request kind.
const POOL: usize = 16;

/// Warm-up requests per client in each set-up.
const WARMUP_REQUESTS: usize = 50;

/// Sat-service metrics of the traced run, with their units. Workloads that
/// do not run the service report them as 0.
const SERVICE_METRICS: [(&str, &str); 11] = [
    ("sat-service.queue_mean_ms", "ms"),
    ("sat-service.execute_mean_ms", "ms"),
    ("sat-service.request_mean_ms", "ms"),
    ("sat-service.client_overhead_ms", "ms"),
    ("sat-service.closure_residual", "ratio"),
    ("sat-service.client_p99_ms", "ms"),
    ("sat-service.batch_width_mean", "count"),
    ("sat-service.launches_per_request", "count"),
    ("sat-service.barriers_per_request", "count"),
    ("sat-service.failed_attempts", "count"),
    ("sat-service.rejected", "count"),
];

pub fn absent_metrics() -> Vec<Metric> {
    SERVICE_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

struct Sample {
    latency_ms: f64,
    kind: usize,
    ok: bool,
}

enum Stop {
    /// Each client sends this many requests.
    Count(usize),
    Until(Instant),
}

/// A closed-loop burst: each client submits, waits for the reply, checks
/// it against the reference outside the timed call, and repeats. Traced
/// bursts also keep a span per `Client::submit` call in memory.
fn burst(
    client: &Client,
    pool: &[Vec<Input>],
    clients: usize,
    seed: u64,
    stream: u64,
    stop: Stop,
    traced: bool,
) -> Burst {
    let start = Barrier::new(clients + 1);
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (client, start, stop) = (client.clone(), &start, &stop);
                s.spawn(move || {
                    let mut rng = Rng::new(seed, stream * 64 + c as u64);
                    let mut out = Vec::with_capacity(1 << 16);
                    let mut spans: Vec<(&str, Duration, Duration)> =
                        Vec::with_capacity(if traced { 1 << 16 } else { 0 });
                    start.wait();
                    loop {
                        match *stop {
                            Stop::Count(n) if out.len() >= n => break,
                            Stop::Until(t) if Instant::now() >= t => break,
                            _ => {}
                        }
                        let kind = draw_kind(&mut rng);
                        let input = &pool[kind][rng.below(POOL as u64) as usize];
                        let image = input.image.clone();
                        let t = Instant::now();
                        let reply = client.submit(image, KINDS[kind].2, None);
                        let took = t.elapsed();
                        if traced {
                            spans.push(("sat-service.submit", t - origin, took));
                        }
                        let latency_ms = took.as_secs_f64() * 1e3;
                        let ok = reply.is_ok_and(|table| bit_equal(table.sat(), &input.reference));
                        out.push(Sample {
                            latency_ms,
                            kind,
                            ok,
                        });
                    }
                    std::hint::black_box(spans);
                    out
                })
            })
            .collect();
        start.wait();
        let (t0, c0) = (Instant::now(), host::cpu_time());
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        Burst {
            samples,
            wall: t0.elapsed(),
            cpu: host::cpu_time().saturating_sub(c0),
        }
    })
}

/// A burst's samples, and its wall and process CPU time from the moment
/// its clients were released until the last one was joined.
struct Burst {
    samples: Vec<Sample>,
    wall: Duration,
    cpu: Duration,
}

/// A service started with the default configuration and warmed up with
/// [`WARMUP_REQUESTS`] per client on its own stream.
fn warm_service(pool: &[Vec<Input>], clients: usize, seed: u64, stream: u64) -> Service {
    let service = Service::start(ServiceConfig::default());
    burst(
        &service.client(),
        pool,
        clients,
        seed,
        stream,
        Stop::Count(WARMUP_REQUESTS),
        false,
    );
    service
}

fn pixels(kind: usize) -> usize {
    KINDS[kind].0 * KINDS[kind].1
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms).collect()
}

/// The `_sum` or `_count` value of one exposed series.
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Mean in ms of a latency histogram between two expositions, from the
/// exact `_sum` and `_count` series.
fn hist_mean_ms(before: &str, after: &str, family: &str, labels: &str) -> f64 {
    let delta = |suffix: &str| {
        let name = format!("{family}_{suffix}{labels}");
        series(after, &name) - series(before, &name)
    };
    ratio(delta("sum"), delta("count")) * 1e3
}

/// The request mix as library parts: eight requests in the mix's
/// proportions, for the ledger and the self-test.
fn request_mix(pool: &[Vec<Input>], seed: u64) -> OpSet {
    let mut rng = Rng::new(seed, 3);
    let mut inputs = Vec::new();
    let mut ops = Vec::new();
    for kind in [0, 0, 0, 0, 0, 0, 1, 2] {
        let src = &pool[kind][rng.below(POOL as u64) as usize];
        ops.push(vec![Part {
            path: Path::Alg(KINDS[kind].2),
            input: inputs.len(),
        }]);
        inputs.push(Input {
            image: src.image.clone(),
            reference: src.reference.clone(),
        });
    }
    OpSet { inputs, ops }
}

pub fn run(args: &Args) -> Outcome {
    let mut facts = Facts::default();
    let mut rng = Rng::new(args.seed, 4);
    let pool: Vec<Vec<Input>> = KINDS
        .iter()
        .map(|&(r, c, _)| {
            (0..POOL)
                .map(|_| Input::new(report::image(&mut rng, r, c)))
                .collect()
        })
        .collect();
    let clients = host::nproc().min(2);
    let mix = request_mix(&pool, args.seed);
    let cfg = ServiceConfig::default();
    facts.text("input_shapes", "64x64,48x80");
    facts.text(
        "request_mix",
        "6/8 64x64 1r1w, 1/8 48x80 1r1w, 1/8 64x64 2r1w",
    );
    facts.int("clients", clients as u64);
    facts.int("max_batch", cfg.max_batch as u64);
    facts.num("max_linger_ms", cfg.max_linger.as_secs_f64() * 1e3);
    facts.int(
        "request_working_set_bytes_computed",
        (2 * 64 * 64 * 8) as u64,
    );
    // A device with the options the service builds its own with.
    let dev = library::default_device();
    facts.int("device_workers", dev.workers() as u64);
    let selftest_error_rate = library::corruption_selftest(&mix, args.seed);

    if args.trace {
        let service = warm_service(&pool, clients, args.seed, 0);
        return traced(
            args,
            &service,
            &pool,
            clients,
            &mix,
            facts,
            selftest_error_rate,
        );
    }

    // Modeled cost per kind without the window term: C/w + S from the
    // library's own counters on one request of that kind.
    let lambda = dev.config().window_overhead() as f64;
    let work_units: Vec<f64> = KINDS
        .iter()
        .enumerate()
        .map(|(k, &(_, _, alg))| {
            let c = library::counts(&dev, Path::Alg(alg), &pool[k][0].image);
            c.units - lambda * c.launches as f64
        })
        .collect();
    drop(dev);

    // One slice of the window per set-up: each starts and warms up a fresh
    // service, then measures it for its share of the window.
    let share = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut setups = Vec::new();
    let mut slices = Vec::new();
    let mut peak_rss = 0.0;
    let (mut launches, mut completed, mut batches) = (0, 0, 0);
    for round in 0..SETUPS {
        let t = Instant::now();
        let service = warm_service(&pool, clients, args.seed, round as u64);
        setups.push(t.elapsed().as_secs_f64());
        if round == 0 {
            // Read before the window, like the library workloads (see there).
            peak_rss = host::peak_rss_mb();
        }
        let before = service.stats();
        slices.push(burst(
            &service.client(),
            &pool,
            clients,
            args.seed,
            (SETUPS + round) as u64,
            Stop::Until(Instant::now() + share),
            false,
        ));
        let after = service.stats();
        service.shutdown();
        launches += after.launches_issued - before.launches_issued;
        completed += after.completed - before.completed;
        batches += after.batches - before.batches;
    }

    let samples: Vec<&Sample> = slices.iter().flat_map(|b| &b.samples).collect();
    let ok: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    let modeled: f64 =
        ok.iter().map(|s| work_units[s.kind]).sum::<f64>() + lambda * launches as f64;
    let attempted = samples.len() as u64;
    let failed = attempted - ok.len() as u64;
    facts.int("latency_samples", attempted);
    facts.int("slices", slices.len() as u64);
    facts.num(
        "window_s",
        slices.iter().map(|b| b.wall.as_secs_f64()).sum(),
    );
    facts.num("peak_rss_mb_end", host::peak_rss_mb());
    facts.num("batch_width_mean", ratio(completed as f64, batches as f64));
    let metrics = vec![
        // Pixels completed correctly per second of the slice.
        Metric::new(
            "throughput_mpix_s",
            median_over(&slices, |s| {
                let pixels: usize = s
                    .samples
                    .iter()
                    .filter(|x| x.ok)
                    .map(|x| pixels(x.kind))
                    .sum();
                ratio(pixels as f64, s.wall.as_secs_f64() * 1e6)
            }),
            "Mpix/s",
        ),
        Metric::new(
            "latency_p50_ms",
            median_over(&slices, |s| median(&latencies(&s.samples))),
            "ms",
        ),
        Metric::new(
            "latency_p90_ms",
            median_over(&slices, |s| percentile(&latencies(&s.samples), 0.9)),
            "ms",
        ),
        Metric::new("success_rate", ok.len() as f64 / attempted as f64, "ratio"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::new(
            "cpu_ms_per_op",
            median_over(&slices, |s| {
                ratio(s.cpu.as_secs_f64() * 1e3, s.samples.len() as f64)
            }),
            "ms",
        ),
        Metric::new(
            "modeled_cost_units",
            ratio(modeled, ok.len() as f64),
            "units",
        ),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        facts,
        selftest_error_rate,
    }
}

/// Service bursts with and without client spans, interleaved with ledger
/// rounds over the request mix run directly on a library device.
fn traced(
    args: &Args,
    service: &Service,
    pool: &[Vec<Input>],
    clients: usize,
    mix: &OpSet,
    mut facts: Facts,
    selftest_error_rate: f64,
) -> Outcome {
    const CHUNK: Duration = Duration::from_millis(400);
    let client = &service.client();
    let mut ledger = Ledger::new(mix);
    let text0 = service.metrics_text();
    let stats0 = service.stats();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut round, mut chunk) = (0usize, 0usize);
    let mut stream = SETUPS as u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        chunk += 1;
        for traced in [chunk % 2 == 0, chunk % 2 == 1] {
            stream += 1;
            let until = Instant::now() + CHUNK;
            let samples = burst(
                client,
                pool,
                clients,
                args.seed,
                stream,
                Stop::Until(until),
                traced,
            )
            .samples;
            attempted += samples.len() as u64;
            failed += samples.iter().filter(|s| !s.ok).count() as u64;
            let sink = if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            };
            sink.extend(samples.iter().map(|s| s.latency_ms));
        }
        let until = Instant::now() + CHUNK / 2;
        while Instant::now() < until {
            ledger.round(round);
            round += 1;
        }
    }
    let text1 = service.metrics_text();
    let stats1 = service.stats();
    facts.int("traced_samples", traced_ms.len() as u64);
    facts.int("untraced_samples", untraced_ms.len() as u64);

    let family = "sat_service_stage_latency_seconds";
    let queue = hist_mean_ms(&text0, &text1, family, "{stage=\"queue\"}");
    let execute = hist_mean_ms(&text0, &text1, family, "{stage=\"execute\"}");
    let request = hist_mean_ms(&text0, &text1, "sat_service_request_latency_seconds", "");
    let all: Vec<f64> = traced_ms.iter().chain(&untraced_ms).copied().collect();
    let client_mean = mean(&all);
    let overhead = client_mean - request;
    let d = |f: fn(&ServiceStats) -> u64| (f(&stats1) - f(&stats0)) as f64;
    let completed = d(|s| s.completed);
    let values = [
        queue,
        execute,
        request,
        overhead,
        ratio(client_mean - (queue + execute + overhead), client_mean),
        percentile(&all, 0.99),
        ratio(completed, d(|s| s.batches)),
        ratio(d(|s| s.launches_issued), completed),
        ratio(d(|s| s.barriers_issued), completed),
        d(|s| s.attempts_failed + s.retries + s.degraded + s.verify_fail),
        d(|s| {
            s.rejected_deadline
                + s.rejected_queue_full
                + s.rejected_shutdown
                + s.rejected_invalid
                + s.rejected_shutdown_drain
        }),
    ];
    let mut metrics = ledger.metrics();
    let untraced = mean(&untraced_ms);
    metrics.push(Metric::new(
        "bench.tracing_overhead",
        ratio(mean(&traced_ms) - untraced, untraced),
        "ratio",
    ));
    metrics.extend(
        SERVICE_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit)),
    );
    Outcome {
        attempted: attempted + ledger.attempted,
        failed: failed + ledger.failed,
        metrics,
        facts,
        selftest_error_rate,
    }
}
