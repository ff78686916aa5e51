//! The analysis pass: one walk over a recorded run per rule family.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use gpu_exec::{AddrPattern, LaunchTrace, RunTrace};
use hmm_model::cost::CostCounters;
use hmm_model::{min_stages, AccessKind, MachineConfig, MemSpace};

use crate::contract::KernelContract;
use crate::races;
use crate::report::{ConflictSite, Diagnostic, LintReport, Rule, Severity};

/// Per-rule cap on reported findings: a broken kernel violates a rule once
/// per transaction, and the first few sites are what a human needs.
pub const MAX_PER_RULE: usize = 8;

/// Collects diagnostics with the per-rule cap.
pub(crate) struct Reporter {
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

impl Reporter {
    fn new() -> Self {
        Reporter {
            diagnostics: Vec::new(),
            suppressed: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        rule: Rule,
        severity: Severity,
        message: String,
        launch: Option<usize>,
        block: Option<usize>,
        op: Option<usize>,
        conflict: Option<ConflictSite>,
    ) {
        let seen = self.diagnostics.iter().filter(|d| d.rule == rule).count();
        if seen >= MAX_PER_RULE {
            self.suppressed += 1;
            return;
        }
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            message,
            launch,
            block,
            op,
            conflict,
        });
    }
}

/// Run every rule over a recorded execution.
///
/// `trace` is the device's [`gpu_exec::RunTrace`] (ideally recorded with the
/// address channel: a tracing device records it automatically), `counters`
/// the measured statistics of the same run, `cfg` the machine the run used,
/// and `contract` the budgets to hold the kernel to.
pub fn analyze(
    trace: &RunTrace,
    counters: &CostCounters,
    cfg: &MachineConfig,
    contract: &KernelContract,
) -> LintReport {
    let mut r = Reporter::new();
    let w = cfg.width;
    let slots = races::SlotDirectory::collect(trace);
    for (li, launch) in trace.launches.iter().enumerate() {
        check_bank_conflicts(&mut r, li, launch, w);
        check_write_after_loss(&mut r, li, launch);
        if launch.has_addrs() {
            // Handoff kernels deliberately exchange data inside a launch
            // window; the classic rule has no notion of release→acquire
            // edges, so the schedule-generalizing pass below takes over.
            if !contract.allow_handoffs {
                check_barrier_races(&mut r, li, launch);
            }
            check_shared_reset(&mut r, li, launch);
            races::check_launch(&mut r, li, launch, &slots);
        }
    }
    check_coalescing(&mut r, trace, counters, contract, w);
    check_cost_divergence(&mut r, counters, contract);
    LintReport {
        kernel: contract.name.clone(),
        diagnostics: r.diagnostics,
        suppressed: r.suppressed,
        launches: trace.launches.len(),
        ops: trace.total_ops(),
    }
}

/// Short human-readable description of an access pattern, for messages.
fn describe(pat: &AddrPattern) -> String {
    match pat {
        AddrPattern::Single { buf, addr } => format!("word {addr} of buffer {buf}"),
        AddrPattern::Contig { buf, base, lanes } => {
            format!("words [{base}, {}) of buffer {buf}", base + *lanes as usize)
        }
        AddrPattern::Strided {
            buf,
            base,
            stride,
            lanes,
        } => {
            format!("{lanes} words from {base} by stride {stride} of buffer {buf}")
        }
        AddrPattern::TileRow { tile, index } => format!("row {index} of shared tile {tile}"),
        AddrPattern::TileCol { tile, index } => format!("column {index} of shared tile {tile}"),
        AddrPattern::FlagWrite {
            flags,
            slot,
            data_buf,
            base,
            len,
        } => format!(
            "publication of slot {slot} of flag set {flags} \
             (words [{base}, {}) of buffer {data_buf})",
            base + len
        ),
        AddrPattern::FlagRead { flags, slot, ready } => format!(
            "poll of slot {slot} of flag set {flags} ({})",
            if *ready { "ready" } else { "not ready" }
        ),
        AddrPattern::Opaque => "an unrecorded address pattern".to_string(),
    }
}

/// Rule 1 — shared transactions occupying more DMM stages than the
/// conflict-free minimum `⌈ops / w⌉`.
fn check_bank_conflicts(r: &mut Reporter, li: usize, launch: &LaunchTrace, w: usize) {
    for (b, ops) in launch.blocks.iter().enumerate() {
        for (k, op) in ops.iter().enumerate() {
            if op.space != MemSpace::Shared {
                continue;
            }
            let min = min_stages(op.ops as u64, w);
            if (op.stages as u64) <= min {
                continue;
            }
            let what = launch
                .addrs
                .get(b)
                .and_then(|pats| pats.get(k))
                .map(describe)
                .unwrap_or_else(|| "a shared access".to_string());
            r.push(
                Rule::BankConflict,
                Severity::Error,
                format!(
                    "{what} occupies {} DMM stages for {} ops \
                     (conflict-free minimum is {min}; see the diagonal arrangement, Lemma 1)",
                    op.stages, op.ops
                ),
                Some(li),
                Some(b),
                Some(k),
                None,
            );
        }
    }
}

/// Rule 3 — write→write and write→read pairs between blocks of one launch
/// window over concrete global words.
fn check_barrier_races(r: &mut Reporter, li: usize, launch: &LaunchTrace) {
    // (buffer, word) → writing block. The asynchronous HMM contract: blocks
    // of one launch write disjoint words, and nobody reads another block's
    // writes before the barrier.
    let mut writer: HashMap<(u64, usize), u32> = HashMap::new();
    let mut words: Vec<(u64, usize)> = Vec::new();
    for (b, (ops, pats)) in launch.blocks.iter().zip(&launch.addrs).enumerate() {
        for (k, (op, pat)) in ops.iter().zip(pats).enumerate() {
            if op.space != MemSpace::Global || op.kind != AccessKind::Write {
                continue;
            }
            words.clear();
            pat.global_words(&mut words);
            let mut flagged = false;
            for &word in &words {
                match writer.entry(word) {
                    Entry::Occupied(e) => {
                        let other = *e.get();
                        if other != b as u32 && !flagged {
                            r.push(
                                Rule::BarrierRace,
                                Severity::Error,
                                format!(
                                    "blocks {other} and {b} both write word {} of buffer {} \
                                     inside one launch window (writes must be disjoint \
                                     between barriers)",
                                    word.1, word.0
                                ),
                                Some(li),
                                Some(b),
                                Some(k),
                                Some(ConflictSite {
                                    buf: word.0,
                                    word: word.1,
                                    first_block: (other as usize).min(b),
                                    second_block: (other as usize).max(b),
                                }),
                            );
                            flagged = true;
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(b as u32);
                    }
                }
            }
        }
    }
    for (b, (ops, pats)) in launch.blocks.iter().zip(&launch.addrs).enumerate() {
        for (k, (op, pat)) in ops.iter().zip(pats).enumerate() {
            if op.space != MemSpace::Global || op.kind != AccessKind::Read {
                continue;
            }
            words.clear();
            pat.global_words(&mut words);
            for &word in &words {
                if let Some(&other) = writer.get(&word) {
                    if other != b as u32 {
                        r.push(
                            Rule::BarrierRace,
                            Severity::Error,
                            format!(
                                "block {b} reads word {} of buffer {}, written by block \
                                 {other} in the same launch window (inter-block data \
                                 needs a barrier, i.e. a new launch)",
                                word.1, word.0
                            ),
                            Some(li),
                            Some(b),
                            Some(k),
                            Some(ConflictSite {
                                buf: word.0,
                                word: word.1,
                                first_block: (other as usize).min(b),
                                second_block: (other as usize).max(b),
                            }),
                        );
                        break; // one finding per op
                    }
                }
            }
        }
    }
}

/// Rule 3b — warp reads of shared tiles that are never warp-written in the
/// block's launch window: barriers reset shared memory, so such a read can
/// only observe zeroes.
///
/// Tile-granular on purpose: scalar `set`/`get` accesses are register-style
/// and invisible to the trace, so a partially warp-written tile cannot be
/// judged per-row without false positives.
fn check_shared_reset(r: &mut Reporter, li: usize, launch: &LaunchTrace) {
    for (b, (ops, pats)) in launch.blocks.iter().zip(&launch.addrs).enumerate() {
        let mut written: HashSet<u32> = HashSet::new();
        for (op, pat) in ops.iter().zip(pats) {
            if op.space == MemSpace::Shared && op.kind == AccessKind::Write {
                if let AddrPattern::TileRow { tile, .. } | AddrPattern::TileCol { tile, .. } = pat {
                    written.insert(*tile);
                }
            }
        }
        let mut reported: HashSet<u32> = HashSet::new();
        for (k, (op, pat)) in ops.iter().zip(pats).enumerate() {
            if op.space != MemSpace::Shared || op.kind != AccessKind::Read {
                continue;
            }
            if let AddrPattern::TileRow { tile, .. } | AddrPattern::TileCol { tile, .. } = pat {
                if !written.contains(tile) && reported.insert(*tile) {
                    r.push(
                        Rule::SharedReset,
                        Severity::Warning,
                        format!(
                            "block {b} reads {} but never warp-writes tile {} in this \
                             launch window — shared memory is reset at every barrier, \
                             so the read observes only zeroes",
                            describe(pat),
                            tile
                        ),
                        Some(li),
                        Some(b),
                        Some(k),
                        None,
                    );
                }
            }
        }
    }
}

/// Rule 6 — global writes recorded in a launch the fault injector marked
/// lost. A lost device retains nothing, so recovery logic (retry, CPU
/// degradation) assumes such launches left global memory untouched; a
/// write in the trace means the kernel or harness broke that contract.
fn check_write_after_loss(r: &mut Reporter, li: usize, launch: &LaunchTrace) {
    if !launch.lost {
        return;
    }
    for (b, ops) in launch.blocks.iter().enumerate() {
        for (k, op) in ops.iter().enumerate() {
            if op.space != MemSpace::Global || op.kind != AccessKind::Write {
                continue;
            }
            let what = launch
                .addrs
                .get(b)
                .and_then(|pats| pats.get(k))
                .map(describe)
                .unwrap_or_else(|| "a global write".to_string());
            r.push(
                Rule::WriteAfterLoss,
                Severity::Error,
                format!(
                    "{what} was recorded in launch {li}, which the fault \
                     injector marked lost — a lost device retains nothing, \
                     so no global write may survive it"
                ),
                Some(li),
                Some(b),
                Some(k),
                None,
            );
        }
    }
}

/// Rule 2 — the run's global stride fraction against the contract budget,
/// with the first offending transaction named when the budget is blown.
fn check_coalescing(
    r: &mut Reporter,
    trace: &RunTrace,
    counters: &CostCounters,
    contract: &KernelContract,
    w: usize,
) {
    let total = counters.global_ops();
    if total == 0 {
        return;
    }
    // Budget + fractional slack, plus the contract's absolute fringe
    // allowance: unaligned boundary accesses contribute O(n) stride ops
    // that a purely fractional budget cannot absorb at small sizes.
    let allowed =
        (contract.stride_budget + contract.stride_slack) * total as f64 + contract.ops_slack;
    let measured = counters.stride_ops() as f64 / total as f64;
    if counters.stride_ops() as f64 <= allowed {
        return;
    }
    // Pinpoint the first transaction occupying more UMM stages than the
    // coalesced minimum, as an example site.
    let mut site = None;
    'outer: for (li, launch) in trace.launches.iter().enumerate() {
        for (b, ops) in launch.blocks.iter().enumerate() {
            for (k, op) in ops.iter().enumerate() {
                if op.space == MemSpace::Global && (op.stages as u64) > min_stages(op.ops as u64, w)
                {
                    let what = launch
                        .addrs
                        .get(b)
                        .and_then(|pats| pats.get(k))
                        .map(describe)
                        .unwrap_or_else(|| "a global access".to_string());
                    site = Some((li, b, k, what));
                    break 'outer;
                }
            }
        }
    }
    let (launch, block, op, example) = match site {
        Some((l, b, k, what)) => (
            Some(l),
            Some(b),
            Some(k),
            format!("; first stride site: {what}"),
        ),
        None => (None, None, None, String::new()),
    };
    r.push(
        Rule::Uncoalesced,
        Severity::Error,
        format!(
            "stride fraction {measured:.3} exceeds the kernel budget {:.3} \
             (+{:.3} slack): {} of {} global ops span more than one address \
             group{example}",
            contract.stride_budget,
            contract.stride_slack,
            counters.stride_ops(),
            total,
        ),
        launch,
        block,
        op,
        None,
    );
}

/// Rule 4 — measured `C`/`S`/`B` against the Table I closed forms.
fn check_cost_divergence(r: &mut Reporter, counters: &CostCounters, contract: &KernelContract) {
    let Some(row) = &contract.expected else {
        return;
    };
    let within = |measured: f64, predicted: f64, abs: f64| {
        (measured - predicted).abs() <= abs + contract.rel_tolerance * predicted
    };
    let checks = [
        (
            "coalesced ops C",
            counters.coalesced_ops() as f64,
            row.coalesced_reads + row.coalesced_writes,
            contract.ops_slack,
        ),
        (
            "stride ops S",
            counters.stride_ops() as f64,
            row.stride_reads + row.stride_writes,
            contract.ops_slack,
        ),
        (
            "barrier steps B",
            counters.barrier_steps as f64,
            row.barrier_steps,
            contract.barrier_slack,
        ),
    ];
    for (what, measured, predicted, abs) in checks {
        if !within(measured, predicted, abs) {
            r.push(
                Rule::CostDivergence,
                Severity::Error,
                format!(
                    "{what} diverge from Table I for {}: measured {measured:.0}, \
                     predicted {predicted:.0} (tolerance ±{:.0} ±{:.0}%)",
                    contract.name,
                    abs,
                    contract.rel_tolerance * 100.0
                ),
                None,
                None,
                None,
                None,
            );
        }
    }
}
