//! The schedule-generalizing half of the analyzer's contract: the static
//! happens-before analysis and the dynamic schedule explorer must agree on
//! every fixture — broken kernels are flagged *and* diverge under replay,
//! fixed kernels are clean *and* bit-exact.

use gpu_exec::replay::replay_schedules;
use gpu_exec::{BlockOrder, Device, DeviceOptions, GlobalBuffer, HandoffFlags};
use hmm_lint::fixtures::{run_fixture, Fixture, CHUNK};
use hmm_lint::{analyze, KernelContract, LintReport, Rule, Severity};
use hmm_model::MachineConfig;

const W: usize = 8;

fn cfg() -> MachineConfig {
    MachineConfig::with_width(W)
}

fn tracing_device(order: BlockOrder) -> Device {
    Device::new(
        DeviceOptions::new(cfg())
            .workers(0)
            .order(order)
            .record_trace(true),
    )
}

fn lint(dev: &Device, contract: &KernelContract) -> LintReport {
    let counters = dev.stats();
    let trace = dev.take_trace();
    analyze(&trace, &counters, &cfg(), contract)
}

fn lint_fixture(fixture: Fixture, broken: bool, order: BlockOrder) -> LintReport {
    let dev = tracing_device(order);
    run_fixture(&dev, fixture, broken);
    lint(&dev, &fixture.contract(broken))
}

/// Broken fixtures fire exactly their expected rules — on every recorded
/// schedule, not just the unlucky one. The analysis generalizes over
/// schedules, so even a trace where the race happened to resolve benignly
/// must be flagged.
#[test]
fn broken_fixtures_are_flagged_under_any_recorded_schedule() {
    for fixture in Fixture::ALL {
        for order in [
            BlockOrder::Forward,
            BlockOrder::Reverse,
            BlockOrder::Adversarial(5),
        ] {
            let report = lint_fixture(fixture, true, order);
            for &rule in fixture.expected_rules() {
                assert!(
                    report.has(rule),
                    "{} under {order:?} should fire {}:\n{}",
                    fixture.name(),
                    rule.name(),
                    report.render()
                );
            }
        }
    }
}

/// Fixed fixtures are clean of every race-family rule under every recorded
/// schedule.
#[test]
fn fixed_fixtures_are_clean() {
    for fixture in Fixture::ALL {
        for order in [BlockOrder::Forward, BlockOrder::Reverse] {
            let report = lint_fixture(fixture, false, order);
            assert!(
                report.is_clean(),
                "{} (fixed) under {order:?}:\n{}",
                fixture.name(),
                report.render()
            );
        }
    }
}

/// The core acceptance property: the static analyzer and the schedule
/// explorer agree on every fixture × variant. A finding without divergence
/// or divergence without a finding is a bug in one of the two detectors.
#[test]
fn analyzer_and_replay_agree_on_every_fixture() {
    for fixture in Fixture::ALL {
        for broken in [true, false] {
            let report = lint_fixture(fixture, broken, BlockOrder::Forward);
            let statically_dirty = !report.is_clean();
            let replay = replay_schedules(6, 17, |order| {
                let dev = Device::new(DeviceOptions::new(cfg()).workers(0).order(order));
                run_fixture(&dev, fixture, broken)
            });
            assert_eq!(
                statically_dirty,
                !replay.bit_exact(),
                "{} broken={broken}: analyzer says dirty={statically_dirty}, \
                 replay says divergent={:?}\n{}",
                fixture.name(),
                replay.divergent,
                report.render()
            );
        }
    }
}

/// Race findings carry structured provenance: which word of which buffer,
/// and which two blocks collide.
#[test]
fn schedule_race_findings_carry_conflict_provenance() {
    let report = lint_fixture(Fixture::MissingBarrier, true, BlockOrder::Forward);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::ScheduleRace)
        .expect("schedule-race finding");
    assert_eq!(d.severity, Severity::Error);
    let site = d.conflict.expect("conflict provenance");
    assert!(site.first_block < site.second_block);
    assert!(
        d.message.contains(&format!("word {}", site.word)),
        "{}",
        d.message
    );
}

/// A same-launch handoff whose consumer properly acquires before reading is
/// clean under the schedule-generalizing rules (with a handoff-aware
/// contract), while the classic barrier-race rule — which has no notion of
/// release→acquire edges — would flag it. This is exactly the gap the
/// happens-before analysis closes.
#[test]
fn acquired_same_launch_handoff_is_clean_only_under_hb_analysis() {
    let run = || {
        // Forward sequential order: the producer (block 0) runs first, so
        // the consumer's bounded acquire succeeds within the launch.
        let dev = tracing_device(BlockOrder::Forward);
        let data = GlobalBuffer::filled(0i64, CHUNK);
        let out = GlobalBuffer::filled(0i64, CHUNK);
        let flags = HandoffFlags::new(1);
        dev.launch(2, |ctx| {
            let g = ctx.view(&data);
            if ctx.block_id() == 0 {
                let vals = [3i64; CHUNK];
                g.write_contig(0, &vals, ctx.rec());
                flags.publish(0, &g, 0, CHUNK, ctx.rec());
            } else {
                let ready = flags.acquire(0, 64, ctx.rec());
                assert!(ready, "producer ran first under forward order");
                let mut vals = [0i64; CHUNK];
                g.read_contig(0, &mut vals, ctx.rec());
                ctx.view(&out).write_contig(0, &vals, ctx.rec());
            }
        });
        dev
    };

    // Handoff-aware contract: the acquire edge orders the read — clean.
    let report = lint(
        &run(),
        &KernelContract::unconstrained("handoff").with_handoffs(),
    );
    assert!(report.is_clean(), "{}", report.render());

    // Classic contract: barrier-race fires on the same trace, but the
    // schedule-generalizing rules still agree the handoff itself is sound.
    let report = lint(&run(), &KernelContract::unconstrained("handoff"));
    assert!(report.has(Rule::BarrierRace), "{}", report.render());
    assert!(!report.has(Rule::ScheduleRace), "{}", report.render());
    assert!(!report.has(Rule::HandoffBeforeReady), "{}", report.render());
}

/// Two blocks publishing the same slot in one launch window is itself a
/// race: an acquiring reader cannot know whose region it observed.
#[test]
fn ambiguous_double_publication_is_a_schedule_race() {
    let dev = tracing_device(BlockOrder::Forward);
    let data = GlobalBuffer::filled(0i64, 2 * CHUNK);
    let flags = HandoffFlags::new(1);
    dev.launch(2, |ctx| {
        let g = ctx.view(&data);
        let b = ctx.block_id();
        let vals = [b as i64; CHUNK];
        g.write_contig(b * CHUNK, &vals, ctx.rec());
        flags.publish(0, &g, b * CHUNK, CHUNK, ctx.rec());
    });
    let report = lint(
        &dev,
        &KernelContract::unconstrained("double-pub").with_handoffs(),
    );
    assert!(report.has(Rule::ScheduleRace), "{}", report.render());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::ScheduleRace)
        .unwrap();
    assert!(d.message.contains("both publish"), "{}", d.message);
}

/// Adversarial replay is deterministic: the same seed explores the same
/// schedules and reaches the same verdict, run after run.
#[test]
fn adversarial_replay_is_deterministic_per_seed() {
    let explore = |seed: u64| {
        replay_schedules(6, seed, |order| {
            let dev = Device::new(DeviceOptions::new(cfg()).workers(0).order(order));
            run_fixture(&dev, Fixture::MissingBarrier, true)
        })
    };
    let a = explore(23);
    let b = explore(23);
    assert_eq!(a, b);
    assert!(!a.bit_exact());
}

/// The JSON a report writes parses back with the expected shape through
/// the strict reader of the same `obs::json` module.
#[test]
fn report_json_round_trips_through_the_parser() {
    let report = lint_fixture(Fixture::MissingBarrier, true, BlockOrder::Forward);
    let json = obs::json::to_string(&report);
    let value = obs::json::JsonValue::parse(&json).unwrap();
    assert_eq!(
        value.get("kernel").and_then(|v| v.as_str()),
        Some("fixture:missing-barrier:broken")
    );
    let diags = value.get("diagnostics").and_then(|v| v.as_array()).unwrap();
    assert_eq!(diags.len(), report.diagnostics.len());
    let first = &diags[0];
    assert!(first.get("rule").is_some());
    let site = first.get("conflict").expect("conflict serialized");
    // The provenance numbers survive the round-trip bit-for-bit.
    let expect = report.diagnostics[0].conflict.unwrap();
    let field = |key| site.get(key).and_then(|v| v.as_u64());
    assert_eq!(field("buf"), Some(expect.buf));
    assert_eq!(field("word"), Some(expect.word as u64));
    assert_eq!(field("second_block"), Some(expect.second_block as u64));
}
