//! Diagnostic types: rules, severities, and the lint report.

/// Version of the serialized report shape (`LintReport`, `Diagnostic`,
/// `ConflictSite`), surfaced as `schema_version` in `satlint --json`
/// records. Bump on any field addition/removal/rename.
///
/// History: 1 = the original shape; 2 = added `Diagnostic::conflict`
/// provenance, the `schedule-race` / `handoff-before-ready` rules and the
/// `schema_version` field itself.
pub const SCHEMA_VERSION: u32 = 2;

obs::json::record! {
    /// How bad a finding is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Severity {
        /// Suspicious but possibly intentional (e.g. reads of reset shared
        /// state, which is well-defined — zeroed — but rarely meant).
        Warning,
        /// A contract violation: wrong on the asynchronous HMM or clearly
        /// missing the kernel's performance budget.
        Error,
    }

    /// The analyses `hmm-lint` runs over a recorded [`gpu_exec::RunTrace`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Rule {
        /// A shared-memory transaction occupies more DMM pipeline stages than
        /// the conflict-free minimum `⌈ops / w⌉` (Lemma 1 exists to avoid this).
        BankConflict,
        /// The kernel's global stride fraction exceeds its contract budget
        /// (Table I's stride columns; e.g. 1R1W must be ~100 % coalesced while
        /// 2R2W deliberately leaves its row-wise half stride).
        Uncoalesced,
        /// Two blocks of one launch touch the same global word with at least
        /// one write — inter-block communication inside a barrier window, which
        /// the asynchronous HMM forbids.
        BarrierRace,
        /// A block warp-reads a shared tile that is never warp-written in its
        /// launch window: barriers reset shared memory, so the read observes
        /// only zeroes.
        SharedReset,
        /// Measured `C`/`S`/`B` counters drift beyond tolerance from the
        /// Table I closed-form predictions for the kernel's algorithm.
        CostDivergence,
        /// A launch marked lost by fault injection still shows global writes
        /// in its trace. A lost device retains nothing: any observed write
        /// breaks the no-write-after-loss recovery contract that retry and
        /// degradation logic depend on.
        WriteAfterLoss,
        /// Two blocks of one launch make conflicting accesses to the same
        /// global word with no happens-before path between them — a data race
        /// under *some* legal HMM schedule, even if the recorded one got
        /// lucky. Unlike [`Rule::BarrierRace`] this rule understands
        /// release→acquire handoff edges, so properly acquired flagged
        /// handoffs are exempt.
        ScheduleRace,
        /// A read of a flagged handoff slot's data region that is not ordered
        /// after the corresponding flag write — the consumer may observe the
        /// region before the producer published it. Persistent-block
        /// execution relies on this rule.
        HandoffBeforeReady,
    }
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 8] = [
        Rule::BankConflict,
        Rule::Uncoalesced,
        Rule::BarrierRace,
        Rule::SharedReset,
        Rule::CostDivergence,
        Rule::WriteAfterLoss,
        Rule::ScheduleRace,
        Rule::HandoffBeforeReady,
    ];

    /// Stable kebab-case name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::BankConflict => "bank-conflict",
            Rule::Uncoalesced => "uncoalesced",
            Rule::BarrierRace => "barrier-race",
            Rule::SharedReset => "shared-reset",
            Rule::CostDivergence => "cost-divergence",
            Rule::WriteAfterLoss => "write-after-loss",
            Rule::ScheduleRace => "schedule-race",
            Rule::HandoffBeforeReady => "handoff-before-ready",
        }
    }
}

obs::json::record! {
    /// Structured provenance of a cross-block conflict: which word of which
    /// buffer, and which two blocks collide. Attached to race-family findings
    /// so JSON consumers need not parse messages.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ConflictSite {
        /// Identity of the buffer (or flag set) the conflict is on.
        pub buf: u64,
        /// Word address within the buffer.
        pub word: usize,
        /// One conflicting block (the earlier-indexed one).
        pub first_block: usize,
        /// The other conflicting block.
        pub second_block: usize,
    }

    /// One finding, pinpointed as far as the trace allows.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Diagnostic {
        /// Which analysis fired.
        pub rule: Rule,
        /// How bad it is.
        pub severity: Severity,
        /// Human-readable description with the measured numbers.
        pub message: String,
        /// Launch (barrier window) index, when the finding is localised.
        pub launch: Option<usize>,
        /// Block id within the launch, when localised.
        pub block: Option<usize>,
        /// Op index within the block's trace, when localised.
        pub op: Option<usize>,
        /// Cross-block conflict provenance (race-family rules only).
        pub conflict: Option<ConflictSite>,
    }
}

impl Diagnostic {
    /// Render as a one-line compiler-style message.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        let mut site = String::new();
        if let Some(l) = self.launch {
            site.push_str(&format!(" launch {l}"));
        }
        if let Some(b) = self.block {
            site.push_str(&format!(" block {b}"));
        }
        if let Some(o) = self.op {
            site.push_str(&format!(" op {o}"));
        }
        format!("{sev}[{}]{site}: {}", self.rule.name(), self.message)
    }
}

obs::json::record! {
    /// Everything one analysis pass produced for one kernel run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LintReport {
        /// Name of the analysed kernel (the contract's name).
        pub kernel: String,
        /// The findings, capped per rule (see `suppressed`).
        pub diagnostics: Vec<Diagnostic>,
        /// Findings dropped beyond the per-rule cap — a broken kernel can
        /// violate a rule once per transaction.
        pub suppressed: usize,
        /// Launches (barrier windows) analysed.
        pub launches: usize,
        /// Warp transactions analysed.
        pub ops: usize,
    }
}

impl LintReport {
    /// `true` when no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.suppressed == 0
    }

    /// `true` when no `Error`-severity rule fired.
    pub fn is_error_free(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of reported findings for `rule` (suppressed ones excluded).
    pub fn count(&self, rule: Rule) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Whether `rule` fired at least once.
    pub fn has(&self, rule: Rule) -> bool {
        self.count(rule) > 0
    }

    /// Render the whole report as human-readable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "{}: clean ({} launches, {} ops)\n",
                self.kernel, self.launches, self.ops
            ));
            return out;
        }
        out.push_str(&format!(
            "{}: {} finding(s) over {} launches, {} ops\n",
            self.kernel,
            self.diagnostics.len(),
            self.launches,
            self.ops
        ));
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.render());
            out.push('\n');
        }
        if self.suppressed > 0 {
            out.push_str(&format!(
                "  … and {} more finding(s) suppressed\n",
                self.suppressed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: Rule, sev: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            severity: sev,
            message: "m".to_string(),
            launch: Some(1),
            block: Some(2),
            op: None,
            conflict: None,
        }
    }

    #[test]
    fn conflict_site_is_carried_and_serialized() {
        let mut d = diag(Rule::ScheduleRace, Severity::Error);
        d.conflict = Some(ConflictSite {
            buf: 7,
            word: 42,
            first_block: 0,
            second_block: 3,
        });
        let json = obs::json::to_string(&d);
        assert!(json.contains("\"conflict\""), "{json}");
        assert!(json.contains("\"word\":42"), "{json}");
        assert!(json.contains("\"second_block\":3"), "{json}");
        assert!(d.render().contains("schedule-race"));
    }

    #[test]
    fn report_queries() {
        let r = LintReport {
            kernel: "k".to_string(),
            diagnostics: vec![
                diag(Rule::BankConflict, Severity::Error),
                diag(Rule::SharedReset, Severity::Warning),
            ],
            suppressed: 0,
            launches: 3,
            ops: 10,
        };
        assert!(!r.is_clean());
        assert!(!r.is_error_free());
        assert_eq!(r.count(Rule::BankConflict), 1);
        assert!(r.has(Rule::SharedReset));
        assert!(!r.has(Rule::BarrierRace));
        let text = r.render();
        assert!(text.contains("error[bank-conflict] launch 1 block 2: m"));
        assert!(text.contains("warning[shared-reset]"));
    }

    #[test]
    fn clean_report_renders_clean() {
        let r = LintReport {
            kernel: "k".to_string(),
            diagnostics: Vec::new(),
            suppressed: 0,
            launches: 2,
            ops: 5,
        };
        assert!(r.is_clean());
        assert!(r.is_error_free());
        assert!(r.render().contains("clean"));
    }
}
