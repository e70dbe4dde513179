//! The Figure 2 workflow: annotations → pattern detection → alias
//! exploration → transformation, producing a [`PortReport`].

use crate::alias::AliasMap;
use crate::annotations::{loc_of, scan_annotations};
use crate::config::{AliasMode, AtomigConfig, Stage};
use crate::hints::barrier_adjacent_accesses;
use crate::optimistic::detect_optimistic;
use crate::report::{BarrierCensus, PortReport};
use crate::spinloop::{detect_spinloops, SpinLoopInfo};
use crate::trace::{
    AliasClass, Decision, DecisionLedger, PipelineMetrics, TraceAction, TraceCause,
};
use crate::transform::{self, MarkSet};
use atomig_analysis::{inline_module, InfluenceAnalysis, PointsTo, PointsToStats};
use atomig_mir::{FuncId, FxBuild, InstId, InstIndex, InstKind, MemLoc, Module};
use std::collections::{HashMap, HashSet};

/// Appends one ledger decision on instruction `i` of the function `index`
/// indexes, resolving the access's span and alias key on demand from the
/// index — which reflects the module as it is now, so instructions
/// inserted by a transform resolve too.
fn record(
    ledger: &mut DecisionLedger,
    index: &InstIndex<'_>,
    f: FuncId,
    i: InstId,
    action: TraceAction,
    cause: TraceCause,
) {
    let func = index.func();
    let inst = index.inst(i);
    debug_assert!(
        inst.is_some(),
        "ledger decision on unknown instruction {i:?} in @{}",
        func.name
    );
    let (span, loc) = inst.map_or((0, MemLoc::Unknown), |inst| {
        (inst.span, loc_of(index, &inst.kind))
    });
    ledger.record(Decision {
        func: f,
        func_name: func.name.clone(),
        inst: i,
        span,
        loc,
        action,
        cause,
    });
}

/// Per-function instruction indexes of one module, each built the first
/// time a lookup (a ledger decision, a buddy's kind) names the function.
struct LazyIndexes<'m> {
    m: &'m Module,
    slots: Vec<Option<InstIndex<'m>>>,
}

impl<'m> LazyIndexes<'m> {
    fn new(m: &'m Module) -> LazyIndexes<'m> {
        LazyIndexes {
            m,
            slots: vec![None; m.funcs.len()],
        }
    }

    fn of(&mut self, f: FuncId) -> &InstIndex<'m> {
        let m = self.m;
        self.slots[f.0 as usize].get_or_insert_with(|| m.func(f).inst_index())
    }
}

/// The AtoMig porting pipeline.
///
/// # Examples
///
/// See the crate-level example; staged configurations reproduce the
/// Table 2 columns:
///
/// ```
/// use atomig_core::{Pipeline, AtomigConfig};
/// use atomig_mir::parse_module;
///
/// let src = r#"
/// global @flag: i32 = 0
/// fn @wait() : void {
/// loop:
///   %f = load i32, @flag
///   %c = cmp eq %f, 0
///   condbr %c, loop, done
/// done:
///   ret
/// }
/// "#;
/// let mut original = parse_module(src).unwrap();
/// let r0 = Pipeline::new(AtomigConfig::original()).port_module(&mut original);
/// assert_eq!(r0.implicit_barriers_added, 0);
///
/// let mut ported = parse_module(src).unwrap();
/// let r1 = Pipeline::new(AtomigConfig::full()).port_module(&mut ported);
/// assert_eq!(r1.spinloops, 1);
/// assert_eq!(r1.implicit_barriers_added, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: AtomigConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: AtomigConfig) -> Pipeline {
        Pipeline { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AtomigConfig {
        &self.config
    }

    /// Ports `m` in place and reports what happened: inlining, then the
    /// plan (seed, expand), then [`transform::apply`] of its marks.
    pub fn port_module(&self, m: &mut Module) -> PortReport {
        let clock = &self.config.clock;
        let t0 = clock.now();
        let mut report = PortReport {
            module: m.name.clone(),
            before: BarrierCensus::of(m),
            ..PortReport::default()
        };
        if self.config.stage == Stage::Original {
            report.after = report.before;
            report.porting_time = clock.now() - t0;
            report.metrics.record("port-total", report.porting_time, 0);
            return report;
        }

        // The after-census is this census plus the transform's counts.
        let mut base = report.before;
        let i0 = clock.now();
        if self.config.inline {
            report.inlined_calls = inline_module(m, &self.config.inline_options);
            // Inlining copies callee bodies and adds return-slot accesses,
            // so its census is taken again when it inlined anything.
            if report.inlined_calls > 0 {
                base = BarrierCensus::of(m);
            }
            report
                .metrics
                .record("inline", clock.now() - i0, report.inlined_calls);
        }

        // Planning reads the module as inlining left it, so provenance
        // names the analyzed module. Detection is timed as one phase.
        let d0 = clock.now();
        let mut planner = self.seed(m, report);
        let r = &mut planner.plan.report;
        let found = r.explicit_annotations + r.barrier_hints + r.spinloops + r.optiloops;
        r.metrics.record("detect", clock.now() - d0, found);
        self.expand(m, &mut planner, None);
        let Plan { marks, mut report } = planner.finish();

        // Pass 4: transformation.
        let x0 = clock.now();
        let stats = transform::apply(m, &marks);
        report.metrics.record(
            "transform",
            clock.now() - x0,
            stats.sc_upgraded() + stats.fences_inserted,
        );
        report.implicit_barriers_added = stats.sc_upgraded();
        report.explicit_barriers_added = stats.fences_inserted;
        report.after = BarrierCensus {
            explicit: base.explicit + stats.fences_inserted,
            implicit: base.implicit + stats.plain_to_sc,
            plain: base.plain - stats.plain_to_sc,
        };
        report.porting_time = clock.now() - t0;
        report
            .metrics
            .record("port-total", report.porting_time, report.ledger.len());
        report
    }

    /// Planning, step one: [`Planner::detect`] on every function, in
    /// `FuncId` order.
    pub(crate) fn seed<'m>(&self, m: &'m Module, report: PortReport) -> Planner<'m> {
        let mut p = Planner {
            indexes: LazyIndexes::new(m),
            m,
            alias_exploration: self.config.alias_exploration,
            plan: Plan {
                marks: MarkSet::default(),
                report,
            },
            seeds: Vec::new(),
            optimistic: Vec::new(),
        };
        if self.config.stage == Stage::Original {
            return p;
        }
        for fid in m.func_ids() {
            p.detect(&self.config, fid);
        }
        p
    }

    /// Planning, step two: builds this configuration's alias map — the one
    /// place the backend is chosen — and [`Planner::expand`]s over it.
    /// `solved` is the points-to map of a caller that holds one and times
    /// planning as one phase (the lint's `dry-run`). Without it, a map is
    /// built only when the plan needs one, and each build is timed as its
    /// own phase.
    fn expand(&self, m: &Module, planner: &mut Planner<'_>, solved: Option<&AliasMap>) {
        let config = &self.config;
        // A points-to map has work with buddies on, or writers to fence.
        let needs_points_to = config.alias_exploration || !planner.optimistic.is_empty();
        let metrics = &mut planner.plan.report.metrics;
        let built;
        let am = match (config.alias_mode, solved) {
            (AliasMode::PointsTo, Some(solved)) => solved,
            (AliasMode::PointsTo, None) if needs_points_to => {
                built = points_to_alias(m, config, metrics).1;
                &built
            }
            (AliasMode::TypeBased, _) if config.alias_exploration => {
                let a0 = solved.is_none().then(|| config.clock.now());
                built = AliasMap::build(m, config.pointee_buddies);
                if let Some(a0) = a0 {
                    let scanned = built.accesses_scanned;
                    metrics.record("alias-build", config.clock.now() - a0, scanned);
                }
                &built
            }
            _ => {
                built = AliasMap::default();
                &built
            }
        };
        planner.expand(am);
    }

    /// Seed and expand, for callers that time planning as one phase (the
    /// lint's `dry-run`). `am_pt` is the points-to alias map, used when
    /// that backend is selected.
    pub(crate) fn plan(&self, m: &Module, am_pt: &AliasMap) -> Plan {
        let mut planner = self.seed(m, PortReport::default());
        self.expand(m, &mut planner, Some(am_pt));
        planner.finish()
    }
}

/// Solves points-to over `m` and builds its alias classes, recording the
/// `points-to-solve` and `alias-build` phases and the solver counters.
pub(crate) fn points_to_alias(
    m: &Module,
    config: &AtomigConfig,
    metrics: &mut PipelineMetrics,
) -> (PointsTo, AliasMap) {
    let clock = &config.clock;
    let s0 = clock.now();
    let pt = PointsTo::analyze(m);
    let solve = clock.now() - s0;
    // Re-measure with the injected clock so metrics stay byte-comparable
    // under a deterministic clock.
    metrics.solver = Some(PointsToStats {
        solve_time: solve,
        ..pt.stats
    });
    metrics.record("points-to-solve", solve, pt.stats.iterations);
    let a0 = clock.now();
    let am = AliasMap::build_points_to(m, &pt);
    metrics.record("alias-build", clock.now() - a0, am.classes().len());
    (pt, am)
}

/// What planning decided: the marks the transform applies (and the lint
/// audits), and a report holding the ledger that explains each mark and
/// the detection and expansion counters.
pub(crate) struct Plan {
    pub(crate) marks: MarkSet,
    pub(crate) report: PortReport,
}

/// A plan in the making: seeded by [`Pipeline::seed`],
/// [`expand`](Planner::expand)ed over an alias map, then
/// [`finish`](Planner::finish)ed. It reads no clock; callers time the
/// steps under their own phase names.
pub(crate) struct Planner<'m> {
    m: &'m Module,
    indexes: LazyIndexes<'m>,
    alias_exploration: bool,
    plan: Plan,
    /// Accesses that seed sticky-buddy expansion, with their locations,
    /// in detection order, so the expansion and its ledger are
    /// deterministic.
    seeds: Vec<((FuncId, InstId), MemLoc)>,
    /// Optimistic controls, with their locations, in detection order:
    /// stores in their alias classes get fences.
    optimistic: Vec<((FuncId, InstId), MemLoc)>,
}

impl Planner<'_> {
    /// Records a decision on access `i` of `f`.
    fn record(&mut self, f: FuncId, i: InstId, action: TraceAction, cause: TraceCause) {
        let index = self.indexes.of(f);
        record(&mut self.plan.report.ledger, index, f, i, action, cause);
    }

    /// Marks access `i` of `f` SC and records why; `index` indexes `f`.
    fn upgrade(&mut self, index: &InstIndex<'_>, f: FuncId, i: InstId, cause: TraceCause) {
        self.plan.marks.mark_sc(f, i);
        let ledger = &mut self.plan.report.ledger;
        record(ledger, index, f, i, TraceAction::UpgradeSc, cause);
    }

    /// Marks a sticky buddy SC; whether it was not marked before.
    fn mark_buddy(&mut self, f: FuncId, i: InstId) -> bool {
        let newly = self.plan.marks.sc_marks.entry(f).or_default().insert(i);
        self.plan.report.buddy_marks += usize::from(newly);
        newly
    }

    /// Marks a store to an optimistic location: SC, with a fence after it.
    fn fence_writer(&mut self, f: FuncId, i: InstId) {
        self.plan.marks.mark_fence_after(f, i);
        self.plan.marks.mark_sc(f, i);
    }

    /// Runs the staged detection passes on function `fid` and records each
    /// mark, its ledger decision, the report counters and the alias seeds
    /// as it finds them: annotations, then barrier hints, then spinloop
    /// controls loop by loop, then optimistic controls.
    pub(crate) fn detect(&mut self, config: &AtomigConfig, fid: FuncId) {
        let func = self.m.func(fid);
        // The one instruction index of this function: annotations, hints
        // and the ledger read it here, the influence analysis keeps it for
        // the pattern passes.
        let index = func.inst_index();
        let ann = scan_annotations(&index, &config.volatile_blacklist);
        let hints = if config.compiler_barrier_hints {
            barrier_adjacent_accesses(&index)
        } else {
            Vec::new()
        };
        let r = &mut self.plan.report;
        r.explicit_annotations += ann.atomics.len() + ann.volatiles.len();
        r.barrier_hints += hints.len();
        // Pass 1: explicit annotations (§3.2), then the opt-in §6
        // extension: compiler barriers as entry points.
        let annotation = |volatile| TraceCause::Annotation { volatile };
        let atomics = ann.atomics.into_iter().map(|mk| (mk, annotation(false)));
        let volatiles = ann.volatiles.into_iter().map(|mk| (mk, annotation(true)));
        let hinted = hints.into_iter().map(|mk| (mk, TraceCause::BarrierHint));
        for (mk, cause) in atomics.chain(volatiles).chain(hinted) {
            self.upgrade(&index, fid, mk.inst, cause);
            self.seeds.push(((fid, mk.inst), mk.loc));
        }
        if config.stage < Stage::Spin {
            return;
        }

        // Pass 2: implicit synchronization patterns (§3.3).
        let inf = InfluenceAnalysis::with_index(index);
        let index = inf.index();
        let spins = detect_spinloops(func, &inf);
        self.plan.report.spinloops += spins.len();
        let header_span = |s: &SpinLoopInfo| {
            let header = &func.block(s.natural.header).insts;
            header
                .iter()
                .map(|i| i.span)
                .find(|&sp| sp != 0)
                .unwrap_or(0)
        };
        for (loop_index, s) in spins.iter().enumerate() {
            let header_span = header_span(s);
            for (&c, loc) in s.controls.iter().zip(&s.control_locs) {
                let cause = TraceCause::SpinControl {
                    loop_index,
                    header_span,
                };
                self.upgrade(index, fid, c, cause);
                self.seeds.push(((fid, c), loc.clone()));
            }
        }
        if config.stage < Stage::Full {
            return;
        }

        let opts = detect_optimistic(func, &inf, &spins);
        self.plan.report.optiloops += opts.len();
        for o in &opts {
            let spin = &spins[o.spin_index];
            let cause = TraceCause::OptimisticControl {
                loop_index: o.spin_index,
                header_span: header_span(spin),
            };
            // The optimistic controls are this loop's spin controls, so
            // they already seed buddy expansion.
            for (&c, loc) in o.optimistic_controls.iter().zip(&spin.control_locs) {
                // Explicit barrier before each optimistic-control load
                // within the optimistic loop (Figure 6, reader side); the
                // other controls only seed alias exploration.
                let action = if matches!(index.get(c), Some(InstKind::Load { .. })) {
                    self.plan.marks.mark_fence_before(fid, c);
                    TraceAction::FenceBefore
                } else {
                    TraceAction::Seed
                };
                let ledger = &mut self.plan.report.ledger;
                record(ledger, index, fid, c, action, cause.clone());
                self.optimistic.push(((fid, c), loc.clone()));
            }
        }
    }

    /// Planning, step two (§3.4, Figure 6 writer side), on either backend:
    /// each seed's alias class, visited once, makes its unmarked members
    /// SC sticky buddies; then one module-order scan fences every store
    /// whose class holds an optimistic control, crediting the class's
    /// first one. The scan runs with alias exploration off too.
    pub(crate) fn expand(&mut self, am: &AliasMap) {
        let backend = am.backend();
        if self.alias_exploration {
            let mut visited: HashSet<AliasClass, FxBuild> = HashSet::default();
            for (seed, loc) in std::mem::take(&mut self.seeds) {
                let Some(class) = am.class_of(seed, loc) else {
                    continue;
                };
                if !visited.insert(class.clone()) {
                    continue;
                }
                for &(f, i) in am.members(&class) {
                    if self.mark_buddy(f, i) {
                        let class = class.clone();
                        let cause = TraceCause::StickyBuddy {
                            seed,
                            class,
                            backend,
                        };
                        self.record(f, i, TraceAction::UpgradeSc, cause);
                    }
                }
            }
        }
        let mut seeder: HashMap<AliasClass, (FuncId, InstId), FxBuild> = HashMap::default();
        for (c, loc) in std::mem::take(&mut self.optimistic) {
            if let Some(class) = am.class_of(c, loc) {
                seeder.entry(class).or_insert(c);
            }
        }
        if seeder.is_empty() {
            return;
        }
        let m = self.m;
        for fid in m.func_ids() {
            // The scan's own index also resolves its ledger records, so
            // no function's index outlives its scan.
            let func = m.func(fid);
            let index = func.inst_index();
            for (_, inst) in func.insts() {
                if !inst.kind.may_write() || !inst.kind.is_memory_access() {
                    continue;
                }
                let class = am.class_of((fid, inst.id), loc_of(&index, &inst.kind));
                let Some(&seed) = class.and_then(|c| seeder.get(&c)) else {
                    continue;
                };
                self.fence_writer(fid, inst.id);
                let cause = TraceCause::OptimisticStore { seed };
                let ledger = &mut self.plan.report.ledger;
                record(ledger, &index, fid, inst.id, TraceAction::FenceAfter, cause);
            }
        }
    }

    /// The finished plan.
    pub(crate) fn finish(self) -> Plan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, verify_module, Ordering};

    /// Figure 4: the full pipeline makes the TAS unlock store SC through
    /// alias exploration ("once atomic, always atomic").
    #[test]
    fn tas_lock_unlock_store_marked_via_buddies() {
        let mut m = parse_module(
            r#"
            global @locked: i32 = 0
            fn @lock() : void {
            spin:
              %old = cmpxchg i32 @locked, 0, 1 seq_cst
              %c = cmp ne %old, 0
              condbr %c, spin, done
            done:
              ret
            }
            fn @unlock() : void {
            bb0:
              store i32 0, @locked
              ret
            }
            "#,
        )
        .unwrap();
        let report = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        assert_eq!(report.spinloops, 1);
        verify_module(&m).unwrap();
        let unlock = m.func(m.func_by_name("unlock").unwrap());
        let store_ord = unlock.blocks[0].insts[0].kind.ordering();
        assert_eq!(store_ord, Some(Ordering::SeqCst));
    }

    /// Figure 5: both the reader's loads of flag and the writer's store
    /// become SC; msg stays plain (protected transitively by the flag).
    #[test]
    fn message_passing_transformation() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            loop:
              %f = load i32, @flag
              %c = cmp ne %f, 1
              condbr %c, loop, done
            done:
              %v = load i32, @msg
              ret %v
            }
            fn @writer() : void {
            bb0:
              store i32 7, @msg
              store i32 1, @flag
              ret
            }
            "#,
        )
        .unwrap();
        let report = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        assert_eq!(report.spinloops, 1);
        assert_eq!(report.optiloops, 0);
        assert_eq!(report.implicit_barriers_added, 2); // flag load + store
        assert_eq!(report.explicit_barriers_added, 0);
        let writer = m.func(m.func_by_name("writer").unwrap());
        assert_eq!(
            writer.blocks[0].insts[0].kind.ordering(),
            Some(Ordering::NotAtomic)
        ); // msg store untouched
        assert_eq!(
            writer.blocks[0].insts[1].kind.ordering(),
            Some(Ordering::SeqCst)
        );
    }

    /// Figure 6: the seqlock gets SC controls plus explicit fences before
    /// in-loop control loads and after control stores.
    #[test]
    fn seqlock_gets_explicit_fences() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            entry:
              %i = alloca i32
              %data = alloca i32
              br loop
            loop:
              %f1 = load i32, @flag
              store i32 %f1, %i
              %m = load i32, @msg
              store i32 %m, %data
              %iv = load i32, %i
              %odd = rem %iv, 2
              %c1 = cmp ne %odd, 0
              condbr %c1, loop, check2
            check2:
              %iv2 = load i32, %i
              %f2 = load i32, @flag
              %c2 = cmp ne %iv2, %f2
              condbr %c2, loop, done
            done:
              %d = load i32, %data
              ret %d
            }
            fn @writer() : void {
            bb0:
              %f1 = load i32, @flag
              %inc1 = add %f1, 1
              store i32 %inc1, @flag
              store i32 42, @msg
              %f2 = load i32, @flag
              %inc2 = add %f2, 1
              store i32 %inc2, @flag
              ret
            }
            "#,
        )
        .unwrap();
        let report = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        assert_eq!(report.spinloops, 1);
        assert_eq!(report.optiloops, 1);
        // Fences: before the two in-loop control loads of @flag, and after
        // each of the writer's two stores to @flag.
        assert!(report.explicit_barriers_added >= 4);
        verify_module(&m).unwrap();
        // The writer's flag stores are SC and followed by fences.
        let writer = m.func(m.func_by_name("writer").unwrap());
        let insts = &writer.blocks[0].insts;
        let mut saw_store_fence = 0;
        for w in insts.windows(2) {
            if matches!(
                &w[0].kind,
                InstKind::Store {
                    ord: Ordering::SeqCst,
                    ..
                }
            ) && matches!(&w[1].kind, InstKind::Fence { .. })
            {
                saw_store_fence += 1;
            }
        }
        assert_eq!(saw_store_fence, 2);
    }

    /// On modules whose sharing flows through direct globals, the two
    /// alias backends agree: the MP reader/writer transformation is
    /// identical in points-to mode.
    #[test]
    fn points_to_mode_matches_type_based_on_direct_globals() {
        let src = r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            loop:
              %f = load i32, @flag
              %c = cmp ne %f, 1
              condbr %c, loop, done
            done:
              %v = load i32, @msg
              ret %v
            }
            fn @writer() : void {
            bb0:
              store i32 7, @msg
              store i32 1, @flag
              ret
            }
            "#;
        let mut tb = parse_module(src).unwrap();
        let r_tb = Pipeline::new(AtomigConfig::full()).port_module(&mut tb);
        let mut cfg = AtomigConfig::full();
        cfg.alias_mode = crate::config::AliasMode::PointsTo;
        let mut pt = parse_module(src).unwrap();
        let r_pt = Pipeline::new(cfg).port_module(&mut pt);
        assert_eq!(r_pt.implicit_barriers_added, r_tb.implicit_barriers_added);
        assert_eq!(r_pt.explicit_barriers_added, r_tb.explicit_barriers_added);
        assert_eq!(tb, pt, "identical transformed modules");
    }

    /// The precision win: two struct globals handled through pointer
    /// parameters share one type-based `Field` key, so an atomic access
    /// through one handle drags the other handle's accesses to SC.
    /// Points-to keeps the allocation sites apart.
    #[test]
    fn points_to_mode_does_not_over_promote_aliased_handles() {
        let src = r#"
            struct %S { i64, i64 }
            global @a: %S = 0
            global @b: %S = 0
            fn @ta(%h: ptr %S) : void {
            bb0:
              %f = gep %S, %h, 0, 0
              %old = cmpxchg i64 %f, 0, 1 seq_cst
              ret
            }
            fn @tb(%h: ptr %S) : void {
            bb0:
              %f = gep %S, %h, 0, 0
              store i64 2, %f
              ret
            }
            fn @main() : void {
            bb0:
              call void @ta(@a)
              call void @tb(@b)
              ret
            }
            "#;
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let mut tb = parse_module(src).unwrap();
        let r_tb = Pipeline::new(cfg.clone()).port_module(&mut tb);
        cfg.alias_mode = crate::config::AliasMode::PointsTo;
        let mut pt = parse_module(src).unwrap();
        let r_pt = Pipeline::new(cfg).port_module(&mut pt);
        assert_eq!(r_tb.implicit_barriers_added, 1, "{r_tb}");
        assert_eq!(
            r_pt.implicit_barriers_added, 0,
            "points-to keeps @b's store plain: {r_pt}"
        );
        let tb_store = tb.func(tb.func_by_name("tb").unwrap()).blocks[0].insts[1]
            .kind
            .ordering();
        assert_eq!(tb_store, Some(Ordering::SeqCst));
        let pt_store = pt.func(pt.func_by_name("tb").unwrap()).blocks[0].insts[1]
            .kind
            .ordering();
        assert_eq!(pt_store, Some(Ordering::NotAtomic));
    }

    #[test]
    fn staged_configs_are_monotone() {
        let src = r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            entry:
              %data = alloca i32
              br loop
            loop:
              %f1 = load i32, @flag volatile
              %m = load i32, @msg
              store i32 %m, %data
              %f2 = load i32, @flag volatile
              %c = cmp ne %f1, %f2
              condbr %c, loop, done
            done:
              %d = load i32, %data
              ret %d
            }
            "#;
        let run = |cfg: AtomigConfig| {
            let mut m = parse_module(src).unwrap();
            let r = Pipeline::new(cfg).port_module(&mut m);
            (r.implicit_barriers_added, r.explicit_barriers_added)
        };
        let (orig_i, orig_e) = run(AtomigConfig::original());
        let (expl_i, expl_e) = run(AtomigConfig::explicit_only());
        let (spin_i, spin_e) = run(AtomigConfig::spin());
        let (full_i, full_e) = run(AtomigConfig::full());
        assert_eq!((orig_i, orig_e), (0, 0));
        assert!(expl_i >= 2); // the two volatile loads
        assert_eq!(expl_e, 0);
        assert!(spin_i >= expl_i);
        assert_eq!(spin_e, 0);
        assert!(full_i >= spin_i);
        assert!(full_e > 0); // optimistic fences only in the full stage
    }

    #[test]
    fn porting_is_idempotent() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @wait() : void {
            loop:
              %f = load i32, @flag
              %c = cmp eq %f, 0
              condbr %c, loop, done
            done:
              ret
            }
            "#,
        )
        .unwrap();
        let p = Pipeline::new(AtomigConfig::full());
        let r1 = p.port_module(&mut m);
        assert_eq!(r1.implicit_barriers_added, 1);
        let snapshot = m.clone();
        let r2 = p.port_module(&mut m);
        assert_eq!(r2.implicit_barriers_added, 0);
        assert_eq!(m, snapshot);
    }

    /// Regression: a decision on an instruction that did not exist when
    /// detection ran — a transform-inserted fence here — must resolve its
    /// span from the current module rather than silently degrading to
    /// `(0, MemLoc::Unknown)`.
    #[test]
    fn record_resolves_transform_inserted_instructions_from_the_module() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            entry:
              %i = alloca i32
              %data = alloca i32
              br loop
            loop:
              %f1 = load i32, @flag
              store i32 %f1, %i
              %m = load i32, @msg
              store i32 %m, %data
              %iv = load i32, %i
              %odd = rem %iv, 2
              %c1 = cmp ne %odd, 0
              condbr %c1, loop, done
            done:
              %d = load i32, %data
              ret %d
            }
            fn @writer() : void {
            bb0:
              %f = load i32, @flag
              %inc = add %f, 1
              store i32 %inc, @flag
              ret
            }
            "#,
        )
        .unwrap();
        let r = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        assert!(r.explicit_barriers_added > 0, "{r}");
        let (fid, fence_id, fence_span) = m
            .func_ids()
            .find_map(|fid| {
                m.func(fid)
                    .insts()
                    .find(|(_, i)| matches!(i.kind, InstKind::Fence { .. }))
                    .map(|(_, i)| (fid, i.id, i.span))
            })
            .expect("porting inserted a fence");
        // An index of the ported module knows the fence.
        let mut ledger = DecisionLedger::default();
        record(
            &mut ledger,
            &m.func(fid).inst_index(),
            fid,
            fence_id,
            TraceAction::FenceAfter,
            TraceCause::OptimisticStore {
                seed: (fid, fence_id),
            },
        );
        assert_eq!(ledger.decisions()[0].span, fence_span);

        // Same for a plain store: span and alias key both come back from
        // the module.
        let wid = m.func_by_name("writer").unwrap();
        let writer = m.func(wid);
        let (store_id, store_span) = writer
            .insts()
            .find(|(_, i)| matches!(i.kind, InstKind::Store { .. }))
            .map(|(_, i)| (i.id, i.span))
            .unwrap();
        record(
            &mut ledger,
            &writer.inst_index(),
            wid,
            store_id,
            TraceAction::UpgradeSc,
            TraceCause::BarrierHint,
        );
        let d = &ledger.decisions()[1];
        assert_eq!(d.span, store_span);
        assert!(
            matches!(d.loc, MemLoc::Global(..)),
            "store location resolved from the module, got {:?}",
            d.loc
        );
    }

    #[test]
    fn report_censuses_are_consistent() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @wait() : void {
            loop:
              %f = load i32, @flag
              %c = cmp eq %f, 0
              condbr %c, loop, done
            done:
              ret
            }
            fn @set() : void {
            bb0:
              store i32 1, @flag
              ret
            }
            "#,
        )
        .unwrap();
        let r = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        assert_eq!(r.before.implicit, 0);
        assert_eq!(
            r.after.implicit,
            r.before.implicit + r.implicit_barriers_added
        );
        assert_eq!(
            r.after.explicit,
            r.before.explicit + r.explicit_barriers_added
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use atomig_mir::MemLoc;

    const POINTER_SPIN: &str = r#"
        global @flag_storage: i32 = 0
        global @unrelated: i32 = 0
        fn @wait(%w: ptr i32) : void {
        loop:
          %v = load i32, %w
          %c = cmp eq %v, 0
          condbr %c, loop, done
        done:
          ret
        }
        fn @touch(%p: ptr i32) : i32 {
        bb0:
          %v = load i32, %p
          ret %v
        }
        "#;

    /// The coarse pointee-typed buckets (§3.4's rejected alternative,
    /// kept as a knob): a spin through a raw `int*` sweeps in every other
    /// `int*` dereference in the module.
    #[test]
    fn pointee_buddies_expand_raw_pointer_controls() {
        let m0 = atomig_mir::parse_module(POINTER_SPIN).unwrap();

        let mut precise = m0.clone();
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let r1 = Pipeline::new(cfg.clone()).port_module(&mut precise);

        let mut coarse = m0.clone();
        cfg.pointee_buddies = true;
        let r2 = Pipeline::new(cfg).port_module(&mut coarse);

        assert_eq!(r1.spinloops, 1);
        assert_eq!(r2.spinloops, 1);
        assert!(
            r2.implicit_barriers_added > r1.implicit_barriers_added,
            "coarse {r2} vs precise {r1}"
        );
        // The unrelated @touch load became atomic only in the coarse run.
        let touch_sc = |m: &Module| {
            m.func(m.func_by_name("touch").unwrap())
                .insts()
                .any(|(_, i)| i.kind.ordering() == Some(atomig_mir::Ordering::SeqCst))
        };
        assert!(!touch_sc(&precise));
        assert!(touch_sc(&coarse));
    }

    /// §6 compiler-barrier hints: a fenced straight-line publication with
    /// no loop gets its adjacent accesses marked (and their buddies).
    #[test]
    fn compiler_barrier_hints_mark_straightline_publication() {
        let src = r#"
            int ready; long payload;
            void publish(long v) {
                payload = v;
                asm("" ::: "memory");
                ready = 1;
            }
            int consume() { return ready; }
        "#;
        let m0 = atomig_frontc::compile(src, "cb").unwrap();

        let mut plain = m0.clone();
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let r1 = Pipeline::new(cfg.clone()).port_module(&mut plain);
        assert_eq!(r1.barrier_hints, 0);
        assert_eq!(r1.implicit_barriers_added, 0);

        let mut hinted = m0.clone();
        cfg.compiler_barrier_hints = true;
        let r2 = Pipeline::new(cfg).port_module(&mut hinted);
        assert_eq!(r2.barrier_hints, 2);
        // payload store, ready store, plus the buddy load in @consume.
        assert!(r2.implicit_barriers_added >= 3, "{r2}");
    }

    /// Detection records one function's decisions in a fixed order,
    /// whatever the source order: atomics, volatiles, barrier hints, then
    /// spin controls loop by loop, then optimistic controls.
    #[test]
    fn detection_records_in_ledger_order() {
        let src = r#"
            volatile int vflag; _Atomic int aflag;
            int h1; int h2; int flag; int seq; int payload;
            int all() {
                h1 = 1;
                asm("" ::: "memory");
                h2 = 1;
                vflag = 1;
                aflag = 2;
                while (flag == 0) { }
                int s; int data;
                do {
                    s = seq;
                    data = payload;
                } while (s % 2 != 0 || s != seq);
                return data;
            }
        "#;
        let mut m = atomig_frontc::compile(src, "order").unwrap();
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        cfg.alias_exploration = false;
        cfg.compiler_barrier_hints = true;
        let r = Pipeline::new(cfg).port_module(&mut m);
        let rank = |c: &TraceCause| match c {
            TraceCause::Annotation { volatile: false } => (0, 0),
            TraceCause::Annotation { volatile: true } => (1, 0),
            TraceCause::BarrierHint => (2, 0),
            TraceCause::SpinControl { loop_index, .. } => (3, *loop_index),
            TraceCause::OptimisticControl { .. } => (4, 0),
            other => panic!("not a detection cause: {other:?}"),
        };
        let ranks: Vec<(u8, usize)> = r
            .ledger
            .decisions()
            .iter()
            .map(|d| rank(&d.cause))
            .collect();
        let kinds: HashSet<u8> = ranks.iter().map(|&(k, _)| k).collect();
        assert_eq!(kinds.len(), 5, "every detection cause occurs: {ranks:?}");
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
        assert!(ranks.contains(&(3, 1)), "two spinloops: {ranks:?}");
    }

    /// The volatile blacklist excludes device-style locations from the
    /// §3.2 conversion.
    #[test]
    fn volatile_blacklist_is_honored() {
        let src = r#"
            volatile int mmio_reg;
            volatile int shared_flag;
            void poke() { mmio_reg = 1; shared_flag = 1; }
        "#;
        let m0 = atomig_frontc::compile(src, "bl").unwrap();
        let mmio = m0.global_by_name("mmio_reg").unwrap();

        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        cfg.volatile_blacklist = vec![MemLoc::Global(mmio, vec![])];
        let mut m = m0.clone();
        let report = Pipeline::new(cfg).port_module(&mut m);
        assert_eq!(report.explicit_annotations, 1); // only shared_flag
        let f = m.func(m.func_by_name("poke").unwrap());
        let mut orderings = vec![];
        for (_, i) in f.insts() {
            if let Some(addr) = i.kind.address() {
                orderings.push((addr, i.kind.ordering().unwrap()));
            }
        }
        use atomig_mir::{Ordering, Value};
        assert!(orderings.contains(&(Value::Global(mmio), Ordering::NotAtomic)));
    }
}
