//! Decision provenance and pipeline observability.
//!
//! The porting pipeline (Figure 2) upgrades orderings for *reasons* — an
//! access is an explicit annotation (§3.2), a spin or optimistic control
//! (§3.3), or a sticky buddy of one (§3.4) — but until now those reasons
//! died inside `port_module`. This module keeps them alive:
//!
//! * [`DecisionLedger`] — an append-only log of every mark the pipeline
//!   computes, each with its [`TraceCause`]. Causes carry their seeds, so
//!   a sticky-buddy upgrade can be *replayed* back to the spin control
//!   that seeded it: `seqlock_alias.c:!30 → sticky-buddy (alias class C2,
//!   points-to) of !41 → optimistic-control of seqlock L0 in
//!   read_snapshot()`. The `atomig explain` subcommand is a query over
//!   this ledger.
//! * [`PipelineMetrics`] — span-based phase timings and counters
//!   (frontend lowering, inlining, detection passes, alias building, the
//!   points-to solver, transformation, lint rules, checker exploration),
//!   embedded in [`PortReport`] and [`LintReport`].
//! * [`Clock`] — the injectable time source behind every timing field.
//!   Production uses the system monotonic clock; tests inject a manual
//!   tick counter (`atomig_testutil::ManualClock`) so reports stay
//!   byte-comparable.
//! * JSONL sinks — `--emit-metrics` serializes one event per line with a
//!   documented schema (see DESIGN.md §8 "Observability");
//!   [`validate_metrics_jsonl`] is the schema check used by tests and CI.
//!
//! [`PortReport`]: crate::report::PortReport
//! [`LintReport`]: crate::lint::LintReport

use crate::config::AliasMode;
use crate::json::{parse, Value};
use crate::lint::Lint;
use atomig_analysis::PointsToStats;
use atomig_mir::{FuncId, InstId, MemLoc};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// An injectable monotonic time source.
///
/// Every timing field the pipeline produces is measured as the difference
/// of two [`Clock::now`] readings. [`Clock::system`] anchors an
/// [`Instant`] at construction; [`Clock::from_fn`] accepts any closure —
/// in tests, a deterministic tick counter — which makes reports and
/// metrics byte-comparable across runs.
///
/// # Examples
///
/// ```
/// use atomig_core::trace::Clock;
/// use std::time::Duration;
/// let c = Clock::from_fn(|| Duration::from_nanos(42));
/// assert_eq!(c.now(), Duration::from_nanos(42));
/// let s = Clock::system();
/// assert!(s.now() <= s.now());
/// ```
#[derive(Clone)]
pub struct Clock(Arc<dyn Fn() -> Duration + Send + Sync>);

impl Clock {
    /// The real monotonic clock, anchored at construction.
    pub fn system() -> Clock {
        let t0 = Instant::now();
        Clock(Arc::new(move || t0.elapsed()))
    }

    /// A clock backed by an arbitrary closure (deterministic in tests).
    pub fn from_fn(f: impl Fn() -> Duration + Send + Sync + 'static) -> Clock {
        Clock(Arc::new(f))
    }

    /// The current reading.
    pub fn now(&self) -> Duration {
        (self.0)()
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::system()
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Clock(..)")
    }
}

// ---------------------------------------------------------------------------
// Phase metrics
// ---------------------------------------------------------------------------

/// One timed pipeline phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseStat {
    /// Kebab-case phase name (e.g. `spin-detect`, `points-to-solve`).
    pub name: String,
    /// Wall-clock (or injected-clock) duration.
    pub duration: Duration,
    /// Phase-specific item count (loops found, marks made, …).
    pub items: usize,
}

/// Model-checker exploration counters (filled in by `atomig check`; the
/// core crate does not depend on the checker, so the fields are plain).
#[derive(Debug, Clone, Default)]
pub struct CheckerMetrics {
    /// Model name (`SC`, `TSO`, `WMM`, `ARM`).
    pub model: String,
    /// Distinct states visited.
    pub states: usize,
    /// Completed executions.
    pub executions: u64,
    /// States reached again and pruned.
    pub revisits: u64,
    /// Peak number of frontier states tracked at once.
    pub peak_tracked: usize,
    /// Whether limits cut the exploration short.
    pub truncated: bool,
}

/// Phase timings and counters of one pipeline (or lint, or check) run.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Points-to solver statistics, when that backend ran.
    pub solver: Option<PointsToStats>,
    /// Checker counters, when a check ran.
    pub checker: Option<CheckerMetrics>,
}

impl PipelineMetrics {
    /// Appends a timed phase.
    pub fn record(&mut self, name: &str, duration: Duration, items: usize) {
        self.phases.push(PhaseStat {
            name: name.to_string(),
            duration,
            items,
        });
    }

    /// The first phase with the given name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of all phase durations.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }
}

impl fmt::Display for PipelineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.phases {
            writeln!(
                f,
                "  {:<20} {:>12.1?}  ({} item(s))",
                p.name, p.duration, p.items
            )?;
        }
        if let Some(s) = &self.solver {
            writeln!(
                f,
                "  solver: {} cells, {} constraints, {} iterations, {} passes",
                s.cells, s.constraints, s.iterations, s.passes
            )?;
        }
        if let Some(c) = &self.checker {
            writeln!(
                f,
                "  checker: {} — {} states, {} executions, {} revisits, peak {}",
                c.model, c.states, c.executions, c.revisits, c.peak_tracked
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decision ledger
// ---------------------------------------------------------------------------

/// What the pipeline decided to do to an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAction {
    /// Upgrade the access's ordering to `seq_cst`.
    UpgradeSc,
    /// Insert an explicit `fence seq_cst` before the access.
    FenceBefore,
    /// Insert an explicit `fence seq_cst` after the access.
    FenceAfter,
    /// Identify the access as a synchronization seed without rewriting it
    /// directly (optimistic controls feed the alias arm this way).
    Seed,
}

impl TraceAction {
    /// Kebab-case name used in the JSONL sink.
    pub fn name(&self) -> &'static str {
        match self {
            TraceAction::UpgradeSc => "upgrade-sc",
            TraceAction::FenceBefore => "fence-before",
            TraceAction::FenceAfter => "fence-after",
            TraceAction::Seed => "seed",
        }
    }
}

/// The alias grouping through which a sticky-buddy upgrade propagated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AliasClass {
    /// Type-based backend: the shared [`MemLoc`] key.
    Key(MemLoc),
    /// Type-based backend: one function's stack slot, named by the
    /// function and its alloca (a [`MemLoc::Stack`] key scoped to the
    /// function, since alloca ids repeat across functions).
    Slot(FuncId, InstId),
    /// Points-to backend: the overlap-class index (printed `C<n>`).
    Class(usize),
}

impl fmt::Display for AliasClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AliasClass::Key(loc) => write!(f, "{loc}"),
            AliasClass::Slot(func, slot) => write!(f, "{func}:stack({slot})"),
            AliasClass::Class(i) => write!(f, "C{i}"),
        }
    }
}

/// Why the pipeline made a decision. Causes that propagate from another
/// access carry the seed's `(function, instruction)` so chains can be
/// replayed through the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCause {
    /// Explicitly annotated (§3.2): already atomic, or `volatile`.
    Annotation {
        /// `true` for the volatile conversion, `false` for existing
        /// atomics.
        volatile: bool,
    },
    /// Adjacent to a compiler barrier (§6 hint extension).
    BarrierHint,
    /// A spinloop exit depends on the access (§3.3).
    SpinControl {
        /// Loop index within the function, in detection order.
        loop_index: usize,
        /// Source span of the loop header (`0` = unknown).
        header_span: u32,
    },
    /// An optimistic (seqlock-style) loop control (§3.3).
    OptimisticControl {
        /// Loop index within the function, in detection order.
        loop_index: usize,
        /// Source span of the loop header (`0` = unknown).
        header_span: u32,
    },
    /// A store to an optimistic-control location (Figure 6, writer side).
    OptimisticStore {
        /// The first optimistic control of the store's alias class.
        seed: (FuncId, InstId),
    },
    /// Sticky-buddy expansion from `seed` through `class` (§3.4).
    StickyBuddy {
        /// The already-marked access the expansion started from.
        seed: (FuncId, InstId),
        /// The alias grouping that connected seed and buddy.
        class: AliasClass,
        /// Which alias backend computed the grouping.
        backend: AliasMode,
    },
}

impl TraceCause {
    /// Kebab-case cause kind used in the JSONL sink.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceCause::Annotation { .. } => "annotation",
            TraceCause::BarrierHint => "barrier-hint",
            TraceCause::SpinControl { .. } => "spin-control",
            TraceCause::OptimisticControl { .. } => "optimistic-control",
            TraceCause::OptimisticStore { .. } => "optimistic-store",
            TraceCause::StickyBuddy { .. } => "sticky-buddy",
        }
    }

    /// The access this cause propagated from, if any.
    pub fn seed(&self) -> Option<(FuncId, InstId)> {
        match self {
            TraceCause::OptimisticStore { seed } | TraceCause::StickyBuddy { seed, .. } => {
                Some(*seed)
            }
            _ => None,
        }
    }
}

/// One recorded pipeline decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Function containing the access.
    pub func: FuncId,
    /// The function's name (post-inlining).
    pub func_name: String,
    /// The access.
    pub inst: InstId,
    /// 1-based MiniC source line (`0` = unknown), printed `!N`.
    pub span: u32,
    /// The access's alias key.
    pub loc: MemLoc,
    /// What was decided.
    pub action: TraceAction,
    /// Why.
    pub cause: TraceCause,
}

impl Decision {
    /// `file.c:!span` (or `file.c:?` when the span is unknown).
    fn site(&self, module: &str) -> String {
        if self.span != 0 {
            format!("{module}.c:!{}", self.span)
        } else {
            format!("{module}.c:?")
        }
    }

    /// One human-readable line: site, action, location, function, cause.
    pub fn describe(&self, module: &str) -> String {
        format!(
            "{} {} {} in {}() — {}",
            self.site(module),
            self.action.name(),
            self.loc,
            self.func_name,
            describe_cause(&self.cause)
        )
    }
}

fn describe_cause(cause: &TraceCause) -> String {
    match cause {
        TraceCause::Annotation { volatile: true } => "declared volatile (§3.2)".into(),
        TraceCause::Annotation { volatile: false } => "explicitly annotated atomic (§3.2)".into(),
        TraceCause::BarrierHint => "adjacent to a compiler barrier (§6 hint)".into(),
        TraceCause::SpinControl {
            loop_index,
            header_span,
        } => format!("spin-control of spinloop L{loop_index} (header !{header_span}, §3.3)"),
        TraceCause::OptimisticControl {
            loop_index,
            header_span,
        } => format!(
            "optimistic-control of seqlock loop L{loop_index} (header !{header_span}, §3.3)"
        ),
        TraceCause::OptimisticStore { .. } => {
            "store to an optimistic-control location (Figure 6, writer side)".into()
        }
        TraceCause::StickyBuddy { class, backend, .. } => format!(
            "sticky-buddy via alias class {class} ({} backend, §3.4)",
            backend.name()
        ),
    }
}

/// The append-only log of every decision one pipeline run made.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    decisions: Vec<Decision>,
    by_access: HashMap<(FuncId, InstId), Vec<usize>>,
}

impl DecisionLedger {
    /// Appends a decision.
    pub fn record(&mut self, d: Decision) {
        self.by_access
            .entry((d.func, d.inst))
            .or_default()
            .push(self.decisions.len());
        self.decisions.push(d);
    }

    /// Decision `idx`, to complete its span or alias key; the access it
    /// names stays the same.
    pub(crate) fn decision_mut(&mut self, idx: usize) -> &mut Decision {
        &mut self.decisions[idx]
    }

    /// All decisions, in recording order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Decisions affecting one access, in recording order.
    pub fn for_access(&self, f: FuncId, i: InstId) -> impl Iterator<Item = &Decision> {
        self.by_access
            .get(&(f, i))
            .into_iter()
            .flatten()
            .map(|&idx| &self.decisions[idx])
    }

    /// Decisions whose source span equals `line`.
    pub fn at_line(&self, line: u32) -> Vec<&Decision> {
        self.decisions.iter().filter(|d| d.span == line).collect()
    }

    /// The provenance chain of one decision: the decision itself, then —
    /// following [`TraceCause::seed`] links through the ledger — the
    /// decisions that caused it, each one indentation level deeper.
    pub fn chain(&self, d: &Decision, module: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.chain_into(d, module, 0, &mut out);
        out
    }

    fn chain_into(&self, d: &Decision, module: &str, depth: usize, out: &mut Vec<String>) {
        let indent = "    ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "<- " };
        out.push(format!("{indent}{arrow}{}", d.describe(module)));
        if depth >= 8 {
            out.push(format!("{indent}    <- … (chain truncated)"));
            return;
        }
        if let Some((sf, si)) = d.cause.seed() {
            // Prefer the seed's *pattern* decision (how it was first
            // identified) over derived buddy marks on the same access.
            let seed_decisions: Vec<&Decision> = self.for_access(sf, si).collect();
            match seed_decisions.first() {
                Some(seed) => self.chain_into(seed, module, depth + 1, out),
                None => out.push(format!(
                    "{indent}    <- seed access has no recorded decision"
                )),
            }
        }
    }

    /// The human-readable trace tree behind `--trace`: every decision
    /// whose cause is not itself derived, with derived decisions
    /// (buddies, optimistic stores) attached beneath their seeds.
    pub fn render_tree(&self, module: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "decision trace for `{module}` ({} decision(s))\n",
            self.decisions.len()
        ));
        for d in &self.decisions {
            match d.cause.seed() {
                None => {
                    out.push_str(&format!("  {}\n", d.describe(module)));
                }
                Some(_) => {
                    for line in self.chain(d, module) {
                        out.push_str("  ");
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

/// The `event` kinds the metrics JSONL schema defines.
pub const EVENT_KINDS: &[&str] = &[
    "meta", "phase", "solver", "checker", "decision", "finding", "summary",
];

/// A `meta` event: which command produced this stream.
pub fn meta_event(command: &str, module: &str, backend: Option<&str>) -> Value {
    let mut pairs = vec![
        ("event", "meta".into()),
        ("tool", "atomig".into()),
        ("command", command.into()),
        ("module", module.into()),
    ];
    if let Some(b) = backend {
        pairs.push(("backend", b.into()));
    }
    Value::obj(pairs)
}

/// A `phase` event (durations are nanoseconds, so tiny phases never
/// round to zero).
pub fn phase_event(p: &PhaseStat) -> Value {
    Value::obj(vec![
        ("event", "phase".into()),
        ("name", p.name.as_str().into()),
        ("nanos", p.duration.as_nanos().into()),
        ("items", p.items.into()),
    ])
}

/// A `solver` event.
pub fn solver_event(s: &PointsToStats) -> Value {
    Value::obj(vec![
        ("event", "solver".into()),
        ("nodes", s.nodes.into()),
        ("cells", s.cells.into()),
        ("constraints", s.constraints.into()),
        ("iterations", s.iterations.into()),
        ("passes", s.passes.into()),
        ("nanos", s.solve_time.as_nanos().into()),
    ])
}

/// A `checker` event.
pub fn checker_event(c: &CheckerMetrics) -> Value {
    Value::obj(vec![
        ("event", "checker".into()),
        ("model", c.model.as_str().into()),
        ("states", c.states.into()),
        ("executions", c.executions.into()),
        ("revisits", c.revisits.into()),
        ("peak_tracked", c.peak_tracked.into()),
        ("truncated", c.truncated.into()),
    ])
}

/// A `decision` event.
pub fn decision_event(d: &Decision) -> Value {
    let mut pairs = vec![
        ("event", "decision".into()),
        ("func", d.func_name.as_str().into()),
        ("inst", (d.inst.0 as usize).into()),
        ("span", d.span.into()),
        ("loc", d.loc.to_string().into()),
        ("action", d.action.name().into()),
        ("cause", d.cause.kind().into()),
    ];
    match &d.cause {
        TraceCause::SpinControl {
            loop_index,
            header_span,
        }
        | TraceCause::OptimisticControl {
            loop_index,
            header_span,
        } => {
            pairs.push(("loop", (*loop_index).into()));
            pairs.push(("header_span", (*header_span).into()));
        }
        TraceCause::StickyBuddy {
            seed,
            class,
            backend,
        } => {
            pairs.push(("seed_func", (seed.0 .0 as usize).into()));
            pairs.push(("seed_inst", (seed.1 .0 as usize).into()));
            pairs.push(("class", class.to_string().into()));
            pairs.push(("backend", backend.name().into()));
        }
        TraceCause::OptimisticStore { seed } => {
            pairs.push(("seed_func", (seed.0 .0 as usize).into()));
            pairs.push(("seed_inst", (seed.1 .0 as usize).into()));
        }
        _ => {}
    }
    Value::obj(pairs)
}

/// A `finding` event (one lint).
pub fn finding_event(l: &Lint) -> Value {
    Value::obj(vec![
        ("event", "finding".into()),
        ("rule", l.rule.name().into()),
        ("severity", l.severity.to_string().into()),
        ("func", l.func.as_str().into()),
        ("span", l.span.into()),
        ("message", l.message.as_str().into()),
    ])
}

/// A `summary` event closing the stream: arbitrary counters plus the
/// command's total time in nanoseconds.
pub fn summary_event(total: Duration, counters: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![
        ("event", "summary".into()),
        ("total_nanos", total.as_nanos().into()),
    ];
    pairs.extend(counters);
    Value::obj(pairs)
}

/// Serializes events as JSONL (one compact object per line, trailing
/// newline).
pub fn to_jsonl(events: &[Value]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// What [`validate_metrics_jsonl`] tallies from a valid stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsTally {
    /// Total events.
    pub events: usize,
    /// `phase` events.
    pub phases: usize,
    /// `decision` events.
    pub decisions: usize,
    /// `finding` events.
    pub findings: usize,
    /// `solver` events.
    pub solvers: usize,
    /// `checker` events.
    pub checkers: usize,
    /// Sum of all `phase.nanos`.
    pub total_phase_nanos: u128,
    /// Names of the phases seen, in order.
    pub phase_names: Vec<String>,
}

fn expect_num(v: &Value, key: &str, line: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("line {line}: missing numeric `{key}`"))
}

fn expect_str<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line}: missing string `{key}`"))
}

/// Validates a metrics JSONL stream against the documented schema.
///
/// Every line must parse as a JSON object with a known `event` kind and
/// that kind's required fields; the stream must open with a `meta` event
/// and close with a `summary` event.
///
/// # Errors
///
/// Returns the first schema violation with its 1-based line number.
pub fn validate_metrics_jsonl(text: &str) -> Result<MetricsTally, String> {
    let mut tally = MetricsTally::default();
    let mut first_kind = None;
    let mut last_kind = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let kind = expect_str(&v, "event", line)?.to_string();
        if !EVENT_KINDS.contains(&kind.as_str()) {
            return Err(format!("line {line}: unknown event kind `{kind}`"));
        }
        match kind.as_str() {
            "meta" => {
                expect_str(&v, "command", line)?;
                expect_str(&v, "module", line)?;
            }
            "phase" => {
                let name = expect_str(&v, "name", line)?.to_string();
                let nanos = expect_num(&v, "nanos", line)?;
                expect_num(&v, "items", line)?;
                if nanos < 0.0 {
                    return Err(format!("line {line}: negative phase duration"));
                }
                tally.phases += 1;
                tally.total_phase_nanos += nanos as u128;
                tally.phase_names.push(name);
            }
            "solver" => {
                for k in ["cells", "constraints", "iterations", "passes"] {
                    expect_num(&v, k, line)?;
                }
                tally.solvers += 1;
            }
            "checker" => {
                expect_str(&v, "model", line)?;
                for k in ["states", "executions", "revisits", "peak_tracked"] {
                    expect_num(&v, k, line)?;
                }
                tally.checkers += 1;
            }
            "decision" => {
                expect_str(&v, "func", line)?;
                expect_num(&v, "span", line)?;
                let action = expect_str(&v, "action", line)?;
                if !["upgrade-sc", "fence-before", "fence-after", "seed"].contains(&action) {
                    return Err(format!("line {line}: unknown action `{action}`"));
                }
                let cause = expect_str(&v, "cause", line)?;
                if ![
                    "annotation",
                    "barrier-hint",
                    "spin-control",
                    "optimistic-control",
                    "optimistic-store",
                    "sticky-buddy",
                ]
                .contains(&cause)
                {
                    return Err(format!("line {line}: unknown cause `{cause}`"));
                }
                tally.decisions += 1;
            }
            "finding" => {
                expect_str(&v, "rule", line)?;
                expect_str(&v, "func", line)?;
                expect_num(&v, "span", line)?;
                tally.findings += 1;
            }
            "summary" => {
                expect_num(&v, "total_nanos", line)?;
            }
            _ => unreachable!("kind checked against EVENT_KINDS"),
        }
        if first_kind.is_none() {
            first_kind = Some(kind.clone());
        }
        last_kind = kind;
        tally.events += 1;
    }
    if tally.events == 0 {
        return Err("empty metrics stream".into());
    }
    if first_kind.as_deref() != Some("meta") {
        return Err("stream must open with a `meta` event".into());
    }
    if last_kind != "summary" {
        return Err("stream must close with a `summary` event".into());
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(span: u32, cause: TraceCause) -> Decision {
        Decision {
            func: FuncId(0),
            func_name: "writer".into(),
            inst: InstId(span),
            span,
            loc: MemLoc::Global(atomig_mir::GlobalId(0), vec![]),
            action: TraceAction::UpgradeSc,
            cause,
        }
    }

    #[test]
    fn clock_is_injectable_and_deterministic() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ticks = Arc::new(AtomicU64::new(0));
        let t = ticks.clone();
        let c = Clock::from_fn(move || {
            Duration::from_nanos(t.fetch_add(1000, Ordering::Relaxed) + 1000)
        });
        assert_eq!(c.now(), Duration::from_nanos(1000));
        assert_eq!(c.now(), Duration::from_nanos(2000));
    }

    #[test]
    fn ledger_chains_buddy_to_spin_seed() {
        let mut ledger = DecisionLedger::default();
        ledger.record(decision(
            17,
            TraceCause::SpinControl {
                loop_index: 2,
                header_span: 16,
            },
        ));
        let mut buddy = decision(
            30,
            TraceCause::StickyBuddy {
                seed: (FuncId(0), InstId(17)),
                class: AliasClass::Class(3),
                backend: AliasMode::PointsTo,
            },
        );
        buddy.inst = InstId(30);
        ledger.record(buddy);

        let chain = ledger.chain(&ledger.decisions()[1], "seqlock_alias");
        assert_eq!(chain.len(), 2, "{chain:?}");
        assert!(chain[0].contains("seqlock_alias.c:!30"), "{chain:?}");
        assert!(chain[0].contains("alias class C3"), "{chain:?}");
        assert!(chain[0].contains("points-to"), "{chain:?}");
        assert!(chain[1].contains("spin-control"), "{chain:?}");
        assert!(chain[1].contains("L2"), "{chain:?}");
    }

    #[test]
    fn metrics_jsonl_round_trips_through_the_validator() {
        let mut metrics = PipelineMetrics::default();
        metrics.record("spin-detect", Duration::from_nanos(1200), 2);
        metrics.record("transform", Duration::from_nanos(800), 5);
        let ledger = {
            let mut l = DecisionLedger::default();
            l.record(decision(4, TraceCause::Annotation { volatile: true }));
            l
        };
        let mut events = vec![meta_event("port", "mp", Some("type-based"))];
        events.extend(metrics.phases.iter().map(phase_event));
        events.extend(ledger.decisions().iter().map(decision_event));
        events.push(summary_event(
            Duration::from_nanos(2000),
            vec![("decisions", ledger.len().into())],
        ));
        let text = to_jsonl(&events);
        let tally = validate_metrics_jsonl(&text).unwrap();
        assert_eq!(tally.events, 5);
        assert_eq!(tally.phases, 2);
        assert_eq!(tally.decisions, 1);
        assert_eq!(tally.total_phase_nanos, 2000);
        assert_eq!(tally.phase_names, vec!["spin-detect", "transform"]);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_metrics_jsonl("").is_err());
        assert!(validate_metrics_jsonl("not json\n").is_err());
        // Unknown event kind.
        let bad = "{\"event\":\"bogus\"}\n";
        assert!(validate_metrics_jsonl(bad).is_err());
        // Missing required field.
        let bad = "{\"event\":\"meta\",\"command\":\"port\"}\n";
        assert!(validate_metrics_jsonl(bad).is_err());
        // No summary terminator.
        let bad = "{\"event\":\"meta\",\"command\":\"port\",\"module\":\"m\"}\n";
        assert!(validate_metrics_jsonl(bad).is_err());
        // Must open with meta.
        let bad = "{\"event\":\"summary\",\"total_nanos\":1}\n";
        assert!(validate_metrics_jsonl(bad).is_err());
        // A stream written before the artifact cache was removed.
        let old = "{\"event\":\"meta\",\"command\":\"batch\",\"module\":\"m\"}\n\
                   {\"event\":\"cache\",\"hits\":3,\"misses\":1,\"evictions\":0}\n\
                   {\"event\":\"summary\",\"total_nanos\":1}\n";
        assert_eq!(
            validate_metrics_jsonl(old),
            Err("line 2: unknown event kind `cache`".to_string())
        );
    }

    #[test]
    fn tree_renders_every_decision() {
        let mut ledger = DecisionLedger::default();
        ledger.record(decision(3, TraceCause::Annotation { volatile: false }));
        ledger.record(decision(
            9,
            TraceCause::OptimisticControl {
                loop_index: 0,
                header_span: 8,
            },
        ));
        let tree = ledger.render_tree("m");
        assert!(tree.contains("2 decision(s)"), "{tree}");
        assert!(tree.contains("m.c:!3"), "{tree}");
        assert!(tree.contains("seqlock loop L0"), "{tree}");
    }
}
