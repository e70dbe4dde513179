//! `atomig lint` — a static WMM-robustness audit.
//!
//! The porting pipeline (Figure 2) *rewrites* a module; this pass only
//! *reads* one and reports, with MiniC source lines, where the module
//! falls short of the transform's contract. It answers two questions
//! without running the model checker:
//!
//! 1. **fence-placement** — computes, without touching the module, the
//!    plan that [`Pipeline::port_module`] applies (annotations,
//!    spinloops, optimistic loops, sticky-buddy expansion: one planner
//!    serves both) and asks the transform which of its marks the module
//!    does not yet realize (`transform::pending`, the very list of edits
//!    [`transform::apply`] makes): each instruction with pending edits is
//!    one finding, one message part per missing upgrade or fence. A
//!    module that just went through [`Pipeline::port_module`] audits
//!    clean; on the original module the message parts count exactly the
//!    implicit plus explicit barriers a port without inlining adds, i.e.
//!    "the port would fix this here".
//!
//! 2. **race-candidate** — a genuinely semantic race detector: it
//!    intersects [`ThreadReach`] (which thread roots can reach each
//!    function) with [`PointsTo`] overlap classes
//!    ([`AliasMap::build_points_to`]). A class fires when two distinct
//!    thread roots reach *aliasing* accesses of which at least one is a
//!    plain store; within a firing class, every plain access that is not
//!    *covered* by realized synchronization is reported. Coverage is one
//!    bit per instruction and direction-agnostic: an access is covered
//!    when a `seq_cst` access or fence executes before it on **every**
//!    path from the entry, or after it on **every** path to the exit
//!    (must-dataflow over the CFG), the static shape of
//!    acquire-before-read and release-after-write protocols. Class
//!    members are read through one flat table of the module's
//!    instructions; a function's instruction index, which resolves alias
//!    keys, lives only while that function's findings are made, in both
//!    rules.
//!
//! Every finding carries the source span threaded through lowering, the
//! alias key, the points-to cells the access may touch, and explanation
//! notes saying *why* the pipeline did or did not promote the location
//! (no spin-exit dependency, pointee-typed key with `pointee_buddies`
//! off, nearest non-covering synchronization, …).
//!
//! [`Pipeline::port_module`]: crate::Pipeline::port_module
//! [`transform::apply`]: crate::transform::apply
//! [`ThreadReach`]: atomig_analysis::ThreadReach
//! [`PointsTo`]: atomig_analysis::PointsTo
//! [`AliasMap::build_points_to`]: crate::AliasMap::build_points_to

use crate::annotations::loc_of;
use crate::config::AtomigConfig;
use crate::trace::{DecisionLedger, PipelineMetrics, TraceCause};
use crate::transform::{pending, EditKind};
use atomig_analysis::{Cfg, ThreadReach};
use atomig_mir::{FuncId, Function, Inst, InstId, MemLoc, Module, Ordering};
use std::fmt;

/// The rules `atomig lint` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// Two thread roots reach aliasing accesses (points-to overlap) with
    /// ≥1 plain store, and a plain access is not covered by
    /// synchronization on every path before or after it.
    RaceCandidate,
    /// A mark the pipeline would compute that the module does not
    /// realize (missing SC upgrade or missing explicit fence).
    FencePlacement,
}

impl LintRule {
    /// The kebab-case rule name used on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            LintRule::RaceCandidate => "race-candidate",
            LintRule::FencePlacement => "fence-placement",
        }
    }

    /// Parses a rule name. `shared-plain-access` is accepted as the
    /// legacy alias of `race-candidate` (the rule it grew out of).
    pub fn from_name(s: &str) -> Option<LintRule> {
        Some(match s {
            "race-candidate" | "shared-plain-access" => LintRule::RaceCandidate,
            "fence-placement" => LintRule::FencePlacement,
            _ => return None,
        })
    }

    /// All rules, for "accepted values" error messages.
    pub const ALL: &'static [LintRule] = &[LintRule::RaceCandidate, LintRule::FencePlacement];
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A generic race candidate.
    Warning,
    /// A participant in a detected synchronization pattern.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Which rule fired.
    pub rule: LintRule,
    /// How bad it is.
    pub severity: Severity,
    /// Enclosing function name.
    pub func: String,
    /// The offending instruction.
    pub inst: InstId,
    /// The alias key of the access.
    pub loc: MemLoc,
    /// 1-based MiniC source line (`0` = unknown).
    pub span: u32,
    /// The one-line diagnosis.
    pub message: String,
    /// Explanation-engine notes: why the pipeline did / didn't promote.
    pub notes: Vec<String>,
    /// What to do about it.
    pub suggestion: Option<String>,
}

/// The result of [`lint_module`].
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Module name (the diagnostics' "file").
    pub module: String,
    /// All findings, grouped by rule then source order.
    pub lints: Vec<Lint>,
    /// Functions audited.
    pub funcs: usize,
    /// Memory accesses audited.
    pub accesses: usize,
    /// Thread roots found (`main` + spawn targets).
    pub thread_roots: usize,
    /// Wall-clock time of the audit.
    pub analysis_time: std::time::Duration,
    /// Per-phase timings and counters ([`crate::trace`]).
    pub metrics: PipelineMetrics,
    /// The plan's decision ledger: why each audited mark was made. It is
    /// the ledger a port of the same module records.
    pub ledger: DecisionLedger,
}

impl LintReport {
    /// Findings for one rule.
    pub fn count(&self, rule: LintRule) -> usize {
        self.lints.iter().filter(|l| l.rule == rule).count()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.lints {
            if l.span != 0 {
                write!(f, "{}.c:{}: ", self.module, l.span)?;
            } else {
                write!(f, "{}.c:?: ", self.module)?;
            }
            writeln!(
                f,
                "{}[{}]: {} (in @{})",
                l.severity, l.rule, l.message, l.func
            )?;
            for n in &l.notes {
                writeln!(f, "    note: {n}")?;
            }
            if let Some(s) = &l.suggestion {
                writeln!(f, "    help: {s}")?;
            }
        }
        writeln!(
            f,
            "{}: {} finding(s) in {} function(s), {} access(es), {} thread root(s), {:.1?}",
            self.module,
            self.lints.len(),
            self.funcs,
            self.accesses,
            self.thread_roots,
            self.analysis_time
        )
    }
}

/// Why a ledger cause marked its access SC, in the lint's words; `None`
/// for optimistic controls, which only carry fences and seed expansion.
fn mark_reason(cause: &TraceCause) -> Option<&'static str> {
    Some(match cause {
        TraceCause::Annotation { .. } => "explicitly annotated (atomic/volatile, §3.2)",
        TraceCause::BarrierHint => "adjacent to a compiler barrier (§6 hint)",
        TraceCause::SpinControl { .. } => "a spinloop exit depends on it (§3.3)",
        TraceCause::OptimisticStore { .. } => {
            "it writes an optimistic-loop control location (§3.3)"
        }
        TraceCause::StickyBuddy { .. } => "sticky-buddy of a synchronization location (§3.4)",
        TraceCause::OptimisticControl { .. } => return None,
    })
}

/// Instruction-granular synchronization coverage of one function.
///
/// A *sync point* is a realized `seq_cst` access or `seq_cst` fence. An
/// access is covered when a sync point executes before it on every path
/// from the entry (the acquire shape), or after it on every path to the
/// exit (the release shape). Both directions are must-dataflows over the
/// CFG at block granularity, exact because blocks are straight-line:
///
/// * forward: `in[entry] = false`, `in[b] = ⋀ over preds p of
///   (has_sync(p) ∨ in[p])`,
/// * backward: `out[b] = false` for exit blocks, else `⋀ over succs s of
///   (has_sync(s) ∨ out[s])`,
///
/// both initialized to `true` and iterated down to the greatest fixpoint
/// (loops converge because the transfer functions are monotone on the
/// two-point lattice). Within a block, position decides.
struct Coverage {
    /// Per `InstId`: whether the instruction is covered.
    covered: Vec<bool>,
    /// Source spans of sync points (for "nearest sync" notes).
    sync_spans: Vec<u32>,
}

impl Coverage {
    fn new(func: &Function) -> Coverage {
        let cfg = Cfg::new(func);
        let n = func.blocks.len();
        let is_sync = |inst: &Inst| inst.kind.ordering() == Some(Ordering::SeqCst);
        let has_sync: Vec<bool> = func
            .blocks
            .iter()
            .map(|b| b.insts.iter().any(is_sync))
            .collect();

        let mut in_cov = vec![true; n];
        let mut out_cov = vec![true; n];
        loop {
            let mut changed = false;
            for bi in 0..n {
                let b = atomig_mir::BlockId(bi as u32);
                let preds = cfg.preds(b);
                // Entry and unreachable blocks have no sync "behind" them.
                let new_in = !preds.is_empty()
                    && preds
                        .iter()
                        .all(|p| has_sync[p.0 as usize] || in_cov[p.0 as usize]);
                if new_in != in_cov[bi] {
                    in_cov[bi] = new_in;
                    changed = true;
                }
                let succs = cfg.succs(b);
                let new_out = !succs.is_empty()
                    && succs
                        .iter()
                        .all(|s| has_sync[s.0 as usize] || out_cov[s.0 as usize]);
                if new_out != out_cov[bi] {
                    out_cov[bi] = new_out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Within a block: a sync point strictly before, or strictly after.
        let mut covered = vec![false; func.next_inst as usize];
        let mut sync_spans = Vec::new();
        for (bi, b) in func.blocks.iter().enumerate() {
            let mut before = in_cov[bi];
            for inst in &b.insts {
                covered[inst.id.0 as usize] = before;
                if is_sync(inst) {
                    before = true;
                    if inst.span != 0 {
                        sync_spans.push(inst.span);
                    }
                }
            }
            let mut after = out_cov[bi];
            for inst in b.insts.iter().rev() {
                covered[inst.id.0 as usize] |= after;
                after |= is_sync(inst);
            }
        }
        Coverage {
            covered,
            sync_spans,
        }
    }

    /// The span of a sync point nearest to source line `span` (for the
    /// "does not cover this access" note).
    fn nearest_sync_span(&self, span: u32) -> Option<u32> {
        self.sync_spans
            .iter()
            .copied()
            .min_by_key(|&s| s.abs_diff(span))
    }
}

/// Audits `m` against the transform's contract and the race-candidate
/// rule. `config` selects the stages and alias backend of the plan (use
/// [`AtomigConfig::full`] for the complete audit); the module is audited
/// as given, without inlining.
pub fn lint_module(m: &Module, config: &AtomigConfig) -> LintReport {
    let clock = &config.clock;
    let t0 = clock.now();
    let mut report = LintReport {
        module: m.name.clone(),
        funcs: m.funcs.len(),
        ..LintReport::default()
    };

    let (pt, am_pt) = crate::pipeline::points_to_alias(m, config, &mut report.metrics);
    let d0 = clock.now();
    let crate::pipeline::Plan {
        marks,
        report: plan,
    } = crate::Pipeline::new(config.clone()).plan(m, &am_pt);
    report
        .metrics
        .record("dry-run", clock.now() - d0, marks.sc_mark_count());
    let reach = ThreadReach::new(m);
    report.thread_roots = reach.roots.len();

    // ---- Rule: fence-placement ----------------------------------------
    // Every edit the transform would still make is a finding. One
    // function is indexed at a time, and only while its findings are made.
    let f0 = clock.now();
    let mut lints: Vec<Lint> = Vec::new();
    for (fid, func) in m.func_ids().zip(&m.funcs) {
        let edits = pending(func, fid, &marks);
        if edits.is_empty() {
            continue;
        }
        let index = func.inst_index();
        for at in edits.chunk_by(|a, b| (a.block, a.pos) == (b.block, b.pos)) {
            let inst = &func.block(at[0].block).insts[at[0].pos];
            let mut notes = Vec::new();
            let missing: Vec<String> = at
                .iter()
                .map(|edit| match edit.kind {
                    EditKind::Upgrade { from } => {
                        // The first decision that marked the access says why.
                        let why = plan.ledger.for_access(fid, inst.id);
                        if let Some(why) = why.filter_map(|d| mark_reason(&d.cause)).next() {
                            notes.push(format!("marked because {why}"));
                        }
                        format!("access is {from:?} but should be seq_cst")
                    }
                    EditKind::FenceBefore => {
                        "missing `fence seq_cst` before this optimistic-control load".into()
                    }
                    EditKind::FenceAfter => {
                        "missing `fence seq_cst` after this store to an optimistic location".into()
                    }
                })
                .collect();
            lints.push(Lint {
                rule: LintRule::FencePlacement,
                severity: Severity::Error,
                func: func.name.clone(),
                inst: inst.id,
                loc: loc_of(&index, &inst.kind),
                span: inst.span,
                message: missing.join("; "),
                notes,
                suggestion: Some("run `atomig port` to apply the missing upgrades".into()),
            });
        }
    }

    report
        .metrics
        .record("lint-fence-placement", clock.now() - f0, lints.len());

    // ---- Rule: race-candidate ------------------------------------------
    // Intersect thread reachability with points-to overlap: a class of
    // mutually aliasing accesses fires when two distinct thread roots
    // reach it and a plain store is concurrent with another access.
    // Within a firing class, every plain access not covered by realized
    // synchronization (instruction-granular, either direction) is
    // reported.
    let r0 = clock.now();
    report.accesses = am_pt.accesses_scanned;
    // Per function: its coverage and the thread roots reaching it, sorted.
    let coverage: Vec<Coverage> = m.funcs.iter().map(Coverage::new).collect();
    let roots_of: Vec<Vec<FuncId>> = m
        .func_ids()
        .map(|fid| {
            let mut roots: Vec<FuncId> = reach.roots_reaching(fid).collect();
            roots.sort_unstable();
            roots.dedup();
            roots
        })
        .collect();
    // Every instruction in one flat table: instruction `i` of function `f`
    // sits in slot `slot_base[f] + i`.
    let slots = m.funcs.iter().map(|f| f.next_inst as usize).sum();
    let mut slot_base = Vec::with_capacity(m.funcs.len());
    let mut insts: Vec<Option<&Inst>> = Vec::with_capacity(slots);
    for func in &m.funcs {
        let base = insts.len();
        slot_base.push(base);
        insts.resize(base + func.next_inst as usize, None);
        for (_, inst) in func.insts() {
            insts[base + inst.id.0 as usize] = Some(inst);
        }
    }
    let plain = |inst: &Inst| inst.kind.ordering() == Some(Ordering::NotAtomic);
    let plain_store = |inst: &Inst| plain(inst) && inst.kind.may_write();

    // Findings whose alias key, and the closing note that depends on it,
    // wait until their function is indexed: (function, pattern, finding).
    let mut drafts: Vec<(FuncId, bool, Lint)> = Vec::new();
    for class in am_pt.classes() {
        let accesses: Vec<(FuncId, &Inst)> = class
            .iter()
            .filter_map(|&(f, i)| Some((f, insts[slot_base[f.0 as usize] + i.0 as usize]?)))
            .collect();
        let root_sets: Vec<&[FuncId]> = accesses
            .iter()
            .map(|(f, _)| roots_of[f.0 as usize].as_slice())
            .collect();
        let mut union_roots: Vec<FuncId> = root_sets.concat();
        union_roots.sort_unstable();
        union_roots.dedup();
        if union_roots.len() < 2 {
            continue;
        }
        // A plain store must be concurrent with something: either it is
        // itself reached from two roots, or a second root reaches another
        // member of the class.
        let concurrent_store = accesses.iter().zip(&root_sets).any(|((_, a), rs)| {
            plain_store(a)
                && !rs.is_empty()
                && (rs.len() >= 2
                    || root_sets
                        .iter()
                        .any(|other| other.iter().any(|r| rs.binary_search(r).is_err())))
        });
        if !concurrent_store {
            continue;
        }
        let pattern = class
            .iter()
            .any(|&(f, i)| marks.sc_marks.get(&f).is_some_and(|is| is.contains(&i)));
        let context_note = {
            let mut names: Vec<&str> = union_roots
                .iter()
                .map(|&r| m.func(r).name.as_str())
                .collect();
            names.sort_unstable();
            format!(
                "reached from {} thread context(s): {}",
                union_roots.len(),
                names.join(", ")
            )
        };
        for (&(fid, a), rs) in accesses.iter().zip(&root_sets) {
            let cov = &coverage[fid.0 as usize];
            if !plain(a) || rs.is_empty() || cov.covered[a.id.0 as usize] {
                continue;
            }
            let write = a.kind.may_write();
            let mut notes = vec![context_note.clone()];
            let cells = pt.cells_of_access(fid, a.id);
            if !cells.is_empty() {
                let descs: Vec<String> = cells.iter().map(|&c| pt.describe_cell(m, c)).collect();
                notes.push(format!("may touch: {}", descs.join(", ")));
            }
            if let Some(s) = cov.nearest_sync_span(a.span) {
                notes.push(format!(
                    "the seq_cst synchronization at line {s} does not cover this access \
                     on every path"
                ));
            }
            let racing = write || accesses.iter().any(|&(f, x)| f != fid && plain_store(x));
            let lint = Lint {
                rule: LintRule::RaceCandidate,
                severity: if pattern {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                func: m.func(fid).name.clone(),
                inst: a.id,
                loc: MemLoc::Unknown,
                span: a.span,
                message: format!(
                    "plain {} of a location shared between threads{}",
                    if write { "store" } else { "load" },
                    if racing {
                        " (racing with a plain store)"
                    } else {
                        ""
                    }
                ),
                notes,
                suggestion: None,
            };
            drafts.push((fid, pattern, lint));
        }
    }
    // Only the drafts are read from here on.
    drop((coverage, insts));
    drafts.sort_by_key(|&(fid, ..)| fid);
    for group in drafts.chunk_by_mut(|a, b| a.0 == b.0) {
        let index = m.func(group[0].0).inst_index();
        for (_, pattern, lint) in group {
            if let Some(kind) = index.get(lint.inst) {
                lint.loc = loc_of(&index, kind);
            }
            if *pattern {
                lint.notes.push(
                    "this location participates in a detected synchronization pattern".into(),
                );
                lint.suggestion = Some("run `atomig port` to promote it".into());
            } else if matches!(lint.loc, MemLoc::Pointee(_)) && !config.pointee_buddies {
                lint.notes.push(
                    "alias key is a pointee-typed bucket; sticky-buddy expansion ignores it \
                     unless `pointee_buddies` is enabled"
                        .into(),
                );
            } else {
                lint.notes.push(
                    "no spinloop or optimistic-loop exit depends on this location, so pattern \
                     detection cannot promote it"
                        .into(),
                );
                lint.suggestion =
                    Some("annotate the location `atomic`, or guard it with a detected lock".into());
            }
        }
    }
    let mut race_lints: Vec<Lint> = drafts.into_iter().map(|(.., lint)| lint).collect();
    // Deterministic order: rule, then function, then source position.
    let by_position = |a: &Lint, b: &Lint| {
        (a.func.as_str(), a.span, a.inst.0).cmp(&(b.func.as_str(), b.span, b.inst.0))
    };
    race_lints.sort_by(by_position);
    lints.sort_by(by_position);
    report
        .metrics
        .record("lint-race-candidate", clock.now() - r0, race_lints.len());
    lints.extend(race_lints);

    report.lints = lints;
    report.ledger = plan.ledger;
    report.analysis_time = clock.now() - t0;
    let findings = report.lints.len();
    report
        .metrics
        .record("lint-total", clock.now() - t0, findings);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use atomig_frontc::compile;

    const MP: &str = r#"
        int flag;
        int msg;
        void writer(long a) {
          msg = 1;
          flag = 1;
        }
        int main() {
          long t = spawn(writer, 0);
          while (flag != 1) {}
          int m = msg;
          join(t);
          return m;
        }
    "#;

    #[test]
    fn original_mp_is_flagged_and_ported_is_clean() {
        let m = compile(MP, "mp").unwrap();
        let cfg = AtomigConfig::full();
        let r = lint_module(&m, &cfg);
        assert!(
            r.count(LintRule::FencePlacement) >= 1,
            "spin control not SC yet:\n{r}"
        );
        // The writer's flag store is a sticky buddy of the spin control;
        // writer has no sync of its own, so the msg store is a candidate
        // only until the port covers it.
        let mut ported = m.clone();
        let mut pcfg = cfg.clone();
        pcfg.inline = false;
        Pipeline::new(pcfg).port_module(&mut ported);
        let r2 = lint_module(&ported, &cfg);
        assert!(r2.is_clean(), "ported module must audit clean:\n{r2}");
    }

    #[test]
    fn naked_race_is_a_warning_even_after_port() {
        let src = r#"
            int counter;
            void worker(long a) { counter = counter + 1; }
            int main() {
              long t = spawn(worker, 0);
              counter = counter + 1;
              join(t);
              return counter;
            }
        "#;
        let m = compile(src, "race").unwrap();
        let cfg = AtomigConfig::full();
        let r = lint_module(&m, &cfg);
        assert!(r.count(LintRule::RaceCandidate) >= 2, "{r}");
        assert!(
            r.lints.iter().all(|l| l.severity == Severity::Warning),
            "no pattern involved:\n{r}"
        );
        // No synchronization pattern exists, so the port cannot fix it
        // and lint keeps warning — that's the point of the rule.
        let mut ported = m.clone();
        let mut pcfg = cfg.clone();
        pcfg.inline = false;
        Pipeline::new(pcfg).port_module(&mut ported);
        let r2 = lint_module(&ported, &cfg);
        assert!(r2.count(LintRule::RaceCandidate) >= 2, "{r2}");
    }

    #[test]
    fn single_threaded_module_is_clean() {
        let src = r#"
            int x;
            void bump() { x = x + 1; }
            int main() { bump(); bump(); return x; }
        "#;
        let m = compile(src, "seq").unwrap();
        let r = lint_module(&m, &AtomigConfig::full());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn findings_carry_source_spans() {
        let m = compile(MP, "mp").unwrap();
        let r = lint_module(&m, &AtomigConfig::full());
        assert!(!r.lints.is_empty());
        for l in &r.lints {
            assert_ne!(l.span, 0, "finding without a span: {l:?}");
        }
        let text = r.to_string();
        assert!(text.contains("mp.c:"), "{text}");
    }

    #[test]
    fn race_candidates_are_points_to_precise_on_aliased_handles() {
        // `shared` and `scratch` have identical types and are touched
        // through the same helper signatures, but only `shared` is
        // reached from two thread roots. The race rule keys on points-to
        // classes, so the single-threaded staging accesses in @prepare
        // stay silent even though their type-based alias keys collide.
        let src = include_str!("../../../examples/seqlock_alias.c");
        let m = compile(src, "seqlock_alias").unwrap();
        let cfg = AtomigConfig::full();
        let r = lint_module(&m, &cfg);
        assert!(r.count(LintRule::RaceCandidate) >= 2, "{r}");
        assert!(
            r.lints
                .iter()
                .filter(|l| l.rule == LintRule::RaceCandidate)
                .all(|l| l.func != "prepare" && l.func != "main"),
            "single-threaded staging must not be a race candidate:\n{r}"
        );
        // Findings cite the points-to cells they may touch.
        assert!(
            r.lints
                .iter()
                .filter(|l| l.rule == LintRule::RaceCandidate)
                .all(|l| l.notes.iter().any(|n| n.contains("shared"))),
            "{r}"
        );
        // Ported modules audit clean under both alias backends.
        for mode in [crate::AliasMode::TypeBased, crate::AliasMode::PointsTo] {
            let mut ported = m.clone();
            let mut pcfg = cfg.clone();
            pcfg.alias_mode = mode;
            Pipeline::new(pcfg.clone()).port_module(&mut ported);
            let r2 = lint_module(&ported, &pcfg);
            assert!(
                r2.count(LintRule::RaceCandidate) == 0,
                "ported ({}) must have no race candidates:\n{r2}",
                mode.name()
            );
        }
    }

    /// Pins the "marked because …" note of every mark origin under each
    /// alias backend: one small module per origin, and every
    /// fence-placement finding in the named function must carry exactly
    /// that note.
    #[test]
    fn fence_placement_notes_name_each_mark_origin() {
        const ANNOTATED: &str = "volatile int flag; void poke() { flag = 1; }";
        const HINTED: &str = r#"
            int ready; long payload;
            void publish(long v) { payload = v; asm("" ::: "memory"); ready = 1; }
        "#;
        const SPIN: &str = "int flag; void wait() { while (flag == 0) {} }";
        const SEQLOCK: &str = include_str!("../../../examples/seqlock.c");
        let hints = |c: &mut AtomigConfig| c.compiler_barrier_hints = true;
        let no_buddies = |c: &mut AtomigConfig| c.alias_exploration = false;
        type Tweak = fn(&mut AtomigConfig);
        let cases: [(&str, &str, Tweak, &str); 5] = [
            (
                ANNOTATED,
                "poke",
                |_| {},
                "explicitly annotated (atomic/volatile, §3.2)",
            ),
            (
                HINTED,
                "publish",
                hints,
                "adjacent to a compiler barrier (§6 hint)",
            ),
            (SPIN, "wait", |_| {}, "a spinloop exit depends on it (§3.3)"),
            // Without alias exploration the writer's counter stores are
            // reached first as optimistic stores, not as buddies.
            (
                SEQLOCK,
                "writer",
                no_buddies,
                "it writes an optimistic-loop control location (§3.3)",
            ),
            (
                MP,
                "writer",
                |_| {},
                "sticky-buddy of a synchronization location (§3.4)",
            ),
        ];
        for (src, func, tweak, origin) in cases {
            for mode in [crate::AliasMode::TypeBased, crate::AliasMode::PointsTo] {
                let m = compile(src, "origin").unwrap();
                let mut cfg = AtomigConfig::full();
                cfg.alias_mode = mode;
                tweak(&mut cfg);
                let r = lint_module(&m, &cfg);
                let notes: Vec<&Vec<String>> = r
                    .lints
                    .iter()
                    .filter(|l| l.rule == LintRule::FencePlacement && l.func == func)
                    .map(|l| &l.notes)
                    .collect();
                assert!(
                    !notes.is_empty(),
                    "{}: no finding in @{func}:\n{r}",
                    mode.name()
                );
                let want = vec![format!("marked because {origin}")];
                for n in notes {
                    assert_eq!(n, &want, "{} in @{func}:\n{r}", mode.name());
                }
            }
        }
    }

    #[test]
    fn rule_names_round_trip() {
        for r in LintRule::ALL {
            assert_eq!(LintRule::from_name(r.name()), Some(*r));
        }
        assert_eq!(LintRule::from_name("nonsense"), None);
    }
}
