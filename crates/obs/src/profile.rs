//! Per-launch cost attribution: launch spans → a cost ledger.
//!
//! The paper prices an algorithm by its global-memory ledger,
//! `C/w + S + L·(B+1)` — coalesced ops `C`, stride ops `S`, barrier steps
//! `B`, width `w`, window overhead `L`. This module turns a run's recorded
//! launch spans into that ledger *per launch*: [`attribution_from_trace`]
//! gives each device launch its coalesced/stride op counts, modeled cost
//! ([`hmm_model::cost()`] on the report's [`MachineConfig`]), and measured
//! wall time. The report renders
//! as a text table ([`PhaseReport::to_table`]) and as Chrome-trace counter
//! tracks ([`PhaseReport::export_counter_tracks`]) so Perfetto shows
//! modeled-vs-measured side by side with the spans.

use hmm_model::MachineConfig;

use crate::span::RecordKind;
use crate::{ArgValue, Obs, Track};

/// Metric families the `gpu-exec` device registers. Declared here, not in
/// `gpu-exec`, because `gpu-exec` depends on `obs` and the serving layer's
/// metric schema lists them.
pub mod gpu {
    /// Coalesced global-memory operations.
    pub const COALESCED_OPS: &str = "gpu_coalesced_ops";
    /// Stride global-memory operations.
    pub const STRIDE_OPS: &str = "gpu_stride_ops";
    /// Global-memory pipeline stages.
    pub const GLOBAL_STAGES: &str = "gpu_global_stages";
    /// Kernel launches.
    pub const LAUNCHES: &str = "gpu_launches";
    /// Barrier steps between launches.
    pub const BARRIER_STEPS: &str = "gpu_barrier_steps";
    /// Persistent-block handoff flag publishes.
    pub const HANDOFF_PUBLISHES: &str = "gpu_handoff_publishes";
    /// Persistent-block handoff flag acquires.
    pub const HANDOFF_ACQUIRES: &str = "gpu_handoff_acquires";
    /// Launch wall-time histogram.
    pub const LAUNCH_DURATION: &str = "gpu_launch_duration_seconds";
    /// Injected faults, labelled by `kind`.
    pub const FAULT_INJECTIONS: &str = "gpu_fault_injections";
    /// Every family above.
    pub const FAMILIES: [&str; 9] = [
        COALESCED_OPS,
        STRIDE_OPS,
        GLOBAL_STAGES,
        LAUNCHES,
        BARRIER_STEPS,
        HANDOFF_PUBLISHES,
        HANDOFF_ACQUIRES,
        LAUNCH_DURATION,
        FAULT_INJECTIONS,
    ];
}

/// Modeled cost of one launch under `model`: one window.
fn modeled_cost(model: &MachineConfig, coalesced: u64, stride: u64) -> f64 {
    hmm_model::cost(model.width, model.window_overhead(), coalesced, stride, 1)
}

/// One launch's ledger line (or, from [`PhaseReport::total`], the run's).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Row label (`launch k`, or `total`).
    pub name: String,
    /// Coalesced global-memory operations (`C`).
    pub coalesced_ops: u64,
    /// Stride (uncoalesced) global-memory operations (`S`).
    pub stride_ops: u64,
    /// Global pipeline stages executed.
    pub global_stages: u64,
    /// Row start, µs on the observer's wall clock.
    pub start_us: f64,
    /// Measured wall time, µs.
    pub wall_us: f64,
    /// `C/w + S + L·launches` under the report's machine.
    pub modeled_cost: f64,
}

/// A per-launch cost attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// The machine every row's `modeled_cost` is priced on.
    pub model: MachineConfig,
    /// One row per device launch, in execution order.
    pub rows: Vec<PhaseRow>,
}

impl PhaseReport {
    /// Barrier steps of the run, by the paper's counting: boundaries
    /// *between* launches, so one fewer than the rows.
    pub fn barrier_steps(&self) -> u64 {
        self.rows.len().saturating_sub(1) as u64
    }

    /// Sum the rows into one ledger line named `total`. The modeled cost is
    /// recomputed from the summed counters with one window per row
    /// (`C/w + S + L·(B+1)`), not summed per-row, so it equals
    /// `GlobalCost::cost` for the whole run.
    pub fn total(&self) -> PhaseRow {
        let coalesced: u64 = self.rows.iter().map(|r| r.coalesced_ops).sum();
        let stride: u64 = self.rows.iter().map(|r| r.stride_ops).sum();
        let stages: u64 = self.rows.iter().map(|r| r.global_stages).sum();
        PhaseRow {
            name: "total".to_string(),
            coalesced_ops: coalesced,
            stride_ops: stride,
            global_stages: stages,
            start_us: if self.rows.is_empty() {
                0.0
            } else {
                self.rows
                    .iter()
                    .map(|r| r.start_us)
                    .fold(f64::INFINITY, f64::min)
            },
            wall_us: self.rows.iter().map(|r| r.wall_us).sum(),
            modeled_cost: hmm_model::cost(
                self.model.width,
                self.model.window_overhead(),
                coalesced,
                stride,
                self.rows.len() as u64,
            ),
        }
    }

    /// Render the report (plus the total line) as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>10} {:>9} {:>12} {:>12}\n",
            "phase", "launches", "coalesced", "stride", "barriers", "modeled(u)", "wall(us)"
        ));
        let mut line = |r: &PhaseRow, launches: usize, barriers: u64| {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12} {:>10} {:>9} {:>12.1} {:>12.1}\n",
                r.name,
                launches,
                r.coalesced_ops,
                r.stride_ops,
                barriers,
                r.modeled_cost,
                r.wall_us
            ));
        };
        for r in &self.rows {
            line(r, 1, 0);
        }
        line(&self.total(), self.rows.len(), self.barrier_steps());
        out
    }

    /// Emit the report as Chrome-trace counter tracks on the wall-clock
    /// process: one `"C"` event per launch row carrying the modeled cost
    /// (model units) and measured wall time (µs) as two series, plus a
    /// closing zero sample, so Perfetto draws modeled-vs-measured step
    /// functions aligned with the launch spans.
    pub fn export_counter_tracks(&self, obs: &Obs) {
        let mut end = 0.0f64;
        for r in &self.rows {
            obs.counter_event(
                Track::wall(0),
                "phase cost",
                r.start_us,
                &[("modeled_units", r.modeled_cost), ("wall_us", r.wall_us)],
            );
            end = end.max(r.start_us + r.wall_us);
        }
        if !self.rows.is_empty() {
            obs.counter_event(
                Track::wall(0),
                "phase cost",
                end,
                &[("modeled_units", 0.0), ("wall_us", 0.0)],
            );
        }
    }
}

fn u64_arg(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| {
        if let ArgValue::U64(u) = v {
            Some(*u)
        } else {
            None
        }
    })
}

/// Reconstruct a per-launch attribution report from the `"launch"` spans a
/// `gpu_exec::Device` records (their args carry each launch's counter
/// deltas). One row per launch in timestamp order; the report's
/// [`PhaseReport::total`] therefore matches the device's cumulative
/// counters, and [`PhaseReport::barrier_steps`] is `launches − 1` exactly
/// as `GlobalCost::exact_counts` counts them.
pub fn attribution_from_trace(obs: &Obs, model: &MachineConfig) -> PhaseReport {
    let mut rows: Vec<PhaseRow> = obs
        .with_events(|events| {
            events
                .iter()
                .filter(|e| e.name == "launch" && e.track.pid == Track::WALL_PID)
                .filter_map(|e| {
                    let RecordKind::Complete { dur } = e.kind else {
                        return None;
                    };
                    let coalesced = u64_arg(&e.args, "coalesced_ops")?;
                    let stride = u64_arg(&e.args, "stride_ops").unwrap_or(0);
                    let stages = u64_arg(&e.args, "global_stages").unwrap_or(0);
                    let label = match u64_arg(&e.args, "launch") {
                        Some(k) => format!("launch {k}"),
                        None => "launch".to_string(),
                    };
                    Some(PhaseRow {
                        name: label,
                        coalesced_ops: coalesced,
                        stride_ops: stride,
                        global_stages: stages,
                        start_us: e.ts,
                        wall_us: dur,
                        modeled_cost: modeled_cost(model, coalesced, stride),
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    rows.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    PhaseReport {
        model: *model,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn cost_model_matches_the_paper_formula() {
        let m = MachineConfig::with_width(32).latency(5);
        // C/w + S + L·(B+1) with C=640, S=7, B=0 (one window).
        assert_eq!(modeled_cost(&m, 640, 7), 640.0 / 32.0 + 7.0 + 5.0);
    }

    #[test]
    fn attribution_reconstructs_launch_rows_from_spans() {
        let obs = Obs::new();
        let t0 = Instant::now();
        for k in 0..3u64 {
            obs.wall_span_at(
                Track::wall(0),
                "launch",
                t0,
                t0 + std::time::Duration::from_micros(10),
                None,
                vec![
                    ("launch", ArgValue::U64(k)),
                    ("grid", ArgValue::U64(8)),
                    ("coalesced_ops", ArgValue::U64(64)),
                    ("stride_ops", ArgValue::U64(k)),
                    ("global_stages", ArgValue::U64(2)),
                ],
            );
        }
        // A non-launch span must not contribute.
        obs.wall_span_at(Track::wall(0), "block", t0, t0, None, Vec::new());
        let model = MachineConfig::with_width(8).latency(3);
        let report = attribution_from_trace(&obs, &model);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].name, "launch 0");
        let total = report.total();
        assert_eq!(total.coalesced_ops, 192);
        assert_eq!(total.stride_ops, 3);
        assert_eq!(report.barrier_steps(), 2);
        assert_eq!(total.modeled_cost, 192.0 / 8.0 + 3.0 + 9.0);
        let table = report.to_table();
        assert!(table.contains("launch 0"));
        assert!(table.contains("total"));
    }

    #[test]
    fn counter_tracks_are_schema_valid() {
        let obs = Obs::new();
        let model = MachineConfig::with_width(4).latency(1);
        let report = PhaseReport {
            model,
            rows: vec![PhaseRow {
                name: "p".into(),
                coalesced_ops: 8,
                stride_ops: 0,
                global_stages: 1,
                start_us: 5.0,
                wall_us: 20.0,
                modeled_cost: 3.0,
            }],
        };
        report.export_counter_tracks(&obs);
        let stats = crate::chrome::validate(&obs.trace_json()).unwrap();
        assert_eq!(stats.counters, 2); // one per row + closing zero
    }
}
