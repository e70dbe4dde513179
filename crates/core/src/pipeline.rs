//! The Figure 2 workflow: annotations → pattern detection → alias
//! exploration → transformation, producing a [`PortReport`].

use crate::alias::AliasMap;
use crate::annotations::{loc_of, scan_annotations};
use crate::config::{AliasMode, AtomigConfig, Stage};
use crate::optimistic::detect_optimistic;
use crate::report::{BarrierCensus, PortReport};
use crate::spinloop::detect_spinloops;
use crate::trace::{
    AliasClass, Decision, DecisionLedger, PipelineMetrics, SolverMetrics, TraceAction, TraceCause,
};
use crate::transform::{self, MarkSet};
use atomig_analysis::{inline_module, InfluenceAnalysis, PointsTo};
use atomig_mir::{FuncId, InstId, InstIndex, InstKind, MemLoc, Module};
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

/// Per-function detection results. Computed in parallel on the worker
/// pool (plain owned data, no marks or ledger writes) and merged on the
/// coordinating thread in `FuncId` order.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct FuncDetect {
    /// §3.2 annotation marks, paired with whether they came from a
    /// volatile access.
    pub(crate) ann_marks: Vec<(crate::annotations::Mark, bool)>,
    /// §6 compiler-barrier hint marks (opt-in).
    pub(crate) hint_marks: Vec<crate::annotations::Mark>,
    /// §3.3 spinloops, with header spans pre-resolved.
    pub(crate) spins: Vec<SpinDetect>,
    /// Optimistic (seqlock-style) loops, with per-control load-ness
    /// pre-resolved so the merge needs no instruction index.
    pub(crate) opts: Vec<OptDetect>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpinDetect {
    pub(crate) controls: Vec<InstId>,
    pub(crate) control_locs: Vec<MemLoc>,
    pub(crate) header_span: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OptDetect {
    pub(crate) spin_index: usize,
    pub(crate) header_span: u32,
    /// (control, is-load): loads get an explicit fence before them, the
    /// rest only seed alias exploration.
    pub(crate) controls: Vec<(InstId, bool)>,
    pub(crate) control_locs: Vec<MemLoc>,
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

    /// Runs the staged detection passes on one function. Pure with
    /// respect to the module — safe to run for many functions in
    /// parallel.
    pub(crate) fn detect_func(&self, m: &Module, fid: FuncId) -> FuncDetect {
        let func = m.func(fid);
        // The one instruction index of this function: annotations and
        // hints read it here, the influence analysis keeps it for the
        // pattern passes.
        let index = func.inst_index();
        let ann = scan_annotations(&index, &self.config.volatile_blacklist);
        let mut det = FuncDetect {
            ann_marks: ann
                .atomics
                .into_iter()
                .map(|mk| (mk, false))
                .chain(ann.volatiles.into_iter().map(|mk| (mk, true)))
                .collect(),
            ..FuncDetect::default()
        };
        if self.config.compiler_barrier_hints {
            det.hint_marks = crate::hints::barrier_adjacent_accesses(&index);
        }
        if self.config.stage < Stage::Spin {
            return det;
        }
        let inf = InfluenceAnalysis::with_index(index);
        let spins = detect_spinloops(func, &inf);
        let header_span_of = |s: &crate::spinloop::SpinLoopInfo| {
            func.block(s.natural.header)
                .insts
                .iter()
                .map(|i| i.span)
                .find(|&sp| sp != 0)
                .unwrap_or(0)
        };
        det.spins = spins
            .iter()
            .map(|s| SpinDetect {
                controls: s.controls.clone(),
                control_locs: s.control_locs.clone(),
                header_span: header_span_of(s),
            })
            .collect();
        if self.config.stage < Stage::Full {
            return det;
        }
        let opts = detect_optimistic(func, &inf, &spins);
        let index = inf.index();
        det.opts = opts
            .iter()
            .map(|o| OptDetect {
                spin_index: o.spin_index,
                header_span: det.spins[o.spin_index].header_span,
                controls: o
                    .optimistic_controls
                    .iter()
                    .map(|&c| (c, matches!(index.get(c), Some(InstKind::Load { .. }))))
                    .collect(),
                control_locs: o.control_locs.clone(),
            })
            .collect();
        det
    }

    /// Runs [`Pipeline::detect_func`] over every function on the worker
    /// pool, consulting the configured artifact cache first. Results come
    /// back in `FuncId` order; cache bookkeeping (puts for misses, the
    /// counter snapshot) happens in the sequential merge, and the path
    /// reads no clock at all, so hit and miss runs stay byte-identical
    /// under a deterministic clock.
    pub(crate) fn detect_all(
        &self,
        m: &Module,
    ) -> (Vec<FuncDetect>, Option<crate::trace::CacheMetrics>) {
        let fids: Vec<FuncId> = m.func_ids().collect();
        let pool = atomig_par::WorkerPool::new(self.config.jobs);
        let Some(store) = &self.config.cache else {
            return (pool.map(&fids, |_, &fid| self.detect_func(m, fid)), None);
        };
        let seed = crate::cache::full_seed(&self.config, m);
        let results = pool.map(&fids, |_, &fid| {
            let body = atomig_mir::printer::print_function(m, m.func(fid));
            let key = crate::cache::func_fingerprint(&seed, &body);
            let cached = store
                .get(key)
                .and_then(|payload| crate::cache::decode_detect(&payload, m.func(fid)));
            match cached {
                Some(det) => (det, None),
                None => (self.detect_func(m, fid), Some(key)),
            }
        });
        let mut metrics = crate::trace::CacheMetrics {
            evictions: store.evictions(),
            ..Default::default()
        };
        let mut dets = Vec::with_capacity(results.len());
        for (det, miss_key) in results {
            match miss_key {
                None => metrics.hits += 1,
                Some(key) => {
                    store.put(key, &crate::cache::encode_detect(&det));
                    metrics.misses += 1;
                }
            }
            dets.push(det);
        }
        (dets, Some(metrics))
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

        let i0 = clock.now();
        if self.config.inline {
            report.inlined_calls = inline_module(m, &self.config.inline_options);
            report
                .metrics
                .record("inline", clock.now() - i0, report.inlined_calls);
        }

        // Planning reads the module as inlining left it, so provenance
        // names the analyzed module. Detection is timed as one phase: the
        // injected clock is only read on the coordinating thread.
        let d0 = clock.now();
        let mut planner = self.seed(m, report);
        let r = &mut planner.plan.report;
        let found = r.explicit_annotations + r.barrier_hints + r.spinloops + r.optiloops;
        r.metrics.record("detect", clock.now() - d0, found);
        match self.config.alias_mode {
            AliasMode::TypeBased => {
                let am = self.config.alias_exploration.then(|| {
                    let a0 = clock.now();
                    let am = AliasMap::build(m, self.config.pointee_buddies);
                    let scanned = am.accesses_scanned;
                    r.metrics.record("alias-build", clock.now() - a0, scanned);
                    am
                });
                planner.expand_type_based(am.as_ref());
            }
            AliasMode::PointsTo => {
                if planner.needs_points_to() {
                    let metrics = &mut planner.plan.report.metrics;
                    let (_, am) = points_to_alias(m, &self.config, metrics);
                    planner.expand_points_to(&am);
                }
            }
        }
        let Plan { marks, mut report } = planner.finish();

        // Pass 4: transformation.
        let x0 = clock.now();
        let stats = transform::apply(m, &marks);
        report.metrics.record(
            "transform",
            clock.now() - x0,
            stats.sc_upgraded + stats.fences_inserted,
        );
        report.implicit_barriers_added = stats.sc_upgraded;
        report.explicit_barriers_added = stats.fences_inserted;
        report.after = BarrierCensus::of(m);
        report.porting_time = clock.now() - t0;
        report
            .metrics
            .record("port-total", report.porting_time, report.ledger.len());
        report
    }

    /// Planning, step one: per-function detection (passes 1–2 and
    /// optimistic loops), merged in `FuncId` order into marks, ledger
    /// records, counters in `report`, and the seeds of alias expansion.
    /// Detection runs on the worker pool; everything order-sensitive
    /// happens in the merge, so the plan is byte-identical for any job
    /// count.
    pub(crate) fn seed<'m>(&self, m: &'m Module, report: PortReport) -> Planner<'m> {
        let mut p = Planner {
            indexes: LazyIndexes::new(m),
            m,
            alias_exploration: self.config.alias_exploration,
            pointee_buddies: self.config.pointee_buddies,
            plan: Plan {
                marks: MarkSet::default(),
                report,
            },
            seed_locs: Vec::new(),
            seed_seen: HashSet::new(),
            seed_of_loc: HashMap::new(),
            seed_of_optimistic: HashMap::new(),
            optimistic_accesses: Vec::new(),
        };
        if self.config.stage == Stage::Original {
            return p;
        }
        let (dets, cache) = self.detect_all(m);
        p.plan.report.metrics.cache = cache;
        for (fid, det) in m.func_ids().zip(&dets) {
            p.merge(fid, det);
        }
        p
    }

    /// Seed and expand with this configuration's alias arm, for callers
    /// that time planning as one phase (the lint's `dry-run`). `am_pt` is
    /// the points-to alias map, used when that backend is selected.
    pub(crate) fn plan(&self, m: &Module, am_pt: &AliasMap) -> Plan {
        let mut planner = self.seed(m, PortReport::default());
        match self.config.alias_mode {
            AliasMode::TypeBased => {
                let am = self
                    .config
                    .alias_exploration
                    .then(|| AliasMap::build(m, self.config.pointee_buddies));
                planner.expand_type_based(am.as_ref());
            }
            AliasMode::PointsTo => planner.expand_points_to(am_pt),
        }
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
    let pt = PointsTo::analyze_with_jobs(m, config.jobs);
    let solve = clock.now() - s0;
    let mut solver = SolverMetrics::from(pt.stats);
    // Re-measure with the injected clock so metrics stay byte-comparable
    // under a deterministic clock.
    solver.solve_time = solve;
    metrics.solver = Some(solver);
    metrics.record("points-to-solve", solve, pt.stats.iterations);
    let a0 = clock.now();
    let am = AliasMap::build_points_to(m, &pt);
    metrics.record("alias-build", clock.now() - a0, am.class_count());
    (pt, am)
}

/// What planning decided: the marks the transform applies (and the lint
/// audits), and a report holding the ledger that explains each mark, the
/// detection and expansion counters, and the artifact-cache counters.
pub(crate) struct Plan {
    pub(crate) marks: MarkSet,
    pub(crate) report: PortReport,
}

/// A plan in the making: seeded by [`Pipeline::seed`], expanded by one
/// alias arm, then [`finish`](Planner::finish)ed. It reads no clock;
/// callers time the steps under their own phase names.
pub(crate) struct Planner<'m> {
    m: &'m Module,
    indexes: LazyIndexes<'m>,
    alias_exploration: bool,
    pointee_buddies: bool,
    plan: Plan,
    /// Seed keys in insertion order (deduplicated by `seed_seen`), so
    /// sticky-buddy expansion, and with it the ledger, is deterministic.
    seed_locs: Vec<MemLoc>,
    seed_seen: HashSet<MemLoc>,
    /// First access that seeded each key / optimistic location, for buddy
    /// and writer-fence provenance.
    seed_of_loc: HashMap<MemLoc, (FuncId, InstId)>,
    seed_of_optimistic: HashMap<MemLoc, (FuncId, InstId)>,
    optimistic_accesses: Vec<(FuncId, InstId)>,
}

impl Planner<'_> {
    /// Records a decision on access `i` of `f`.
    fn record(&mut self, f: FuncId, i: InstId, action: TraceAction, cause: TraceCause) {
        let index = self.indexes.of(f);
        record(&mut self.plan.report.ledger, index, f, i, action, cause);
    }

    /// Marks access `i` of `f` SC and records why.
    fn upgrade(&mut self, f: FuncId, i: InstId, cause: TraceCause) {
        self.plan.marks.mark_sc(f, i);
        self.record(f, i, TraceAction::UpgradeSc, cause);
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

    /// Records `loc` as a seed key if it may seed expansion. The paper's
    /// scheme uses precise keys only; the coarse pointee-typed buckets are
    /// the §3.4 alternative it rejects, kept as an ablation knob.
    fn add_seed(&mut self, loc: &MemLoc, seeder: Option<(FuncId, InstId)>) {
        let seedable =
            loc.is_buddy_key() || (self.pointee_buddies && matches!(loc, MemLoc::Pointee(_)));
        if !seedable {
            return;
        }
        if let Some(s) = seeder {
            self.seed_of_loc.entry(loc.clone()).or_insert(s);
        }
        if self.seed_seen.insert(loc.clone()) {
            self.seed_locs.push(loc.clone());
        }
    }

    /// Merges one function's detection results.
    fn merge(&mut self, fid: FuncId, det: &FuncDetect) {
        let r = &mut self.plan.report;
        r.explicit_annotations += det.ann_marks.len();
        r.barrier_hints += det.hint_marks.len();
        r.spinloops += det.spins.len();
        r.optiloops += det.opts.len();

        // Pass 1: explicit annotations (§3.2).
        for &(ref mk, volatile) in &det.ann_marks {
            self.upgrade(fid, mk.inst, TraceCause::Annotation { volatile });
            self.add_seed(&mk.loc, Some((fid, mk.inst)));
        }

        // §6 extension (opt-in): compiler barriers as entry points.
        for mk in &det.hint_marks {
            self.upgrade(fid, mk.inst, TraceCause::BarrierHint);
            self.add_seed(&mk.loc, Some((fid, mk.inst)));
        }

        // Pass 2: implicit synchronization patterns (§3.3).
        for (loop_index, s) in det.spins.iter().enumerate() {
            let header_span = s.header_span;
            for &c in &s.controls {
                let cause = TraceCause::SpinControl {
                    loop_index,
                    header_span,
                };
                self.upgrade(fid, c, cause);
            }
            let c0 = s.controls.first().map(|&c| (fid, c));
            for l in &s.control_locs {
                self.add_seed(l, c0);
            }
        }

        for o in &det.opts {
            let cause = TraceCause::OptimisticControl {
                loop_index: o.spin_index,
                header_span: o.header_span,
            };
            for &(c, is_load) in &o.controls {
                // Explicit barrier before each optimistic-control load
                // within the optimistic loop (Figure 6, reader side); the
                // other controls only seed alias exploration.
                let action = if is_load {
                    self.plan.marks.mark_fence_before(fid, c);
                    TraceAction::FenceBefore
                } else {
                    TraceAction::Seed
                };
                self.record(fid, c, action, cause.clone());
                self.optimistic_accesses.push((fid, c));
            }
            let c0 = o.controls.first().map(|&(c, _)| (fid, c));
            for l in &o.control_locs {
                self.plan.marks.optimistic_locs.insert(l.clone());
                if let Some(s) = c0 {
                    self.seed_of_optimistic.entry(l.clone()).or_insert(s);
                }
                self.add_seed(l, c0);
            }
        }
    }

    /// Whether the points-to arm has any work: alias exploration, or
    /// optimistic controls whose writers need fences.
    pub(crate) fn needs_points_to(&self) -> bool {
        self.alias_exploration || !self.optimistic_accesses.is_empty()
    }

    /// Planning, step two, on type-based keys (§3.4): every access sharing
    /// a seed key becomes SC (`am` is `None` when alias exploration is
    /// off), then every store to an optimistic location, module-wide, gets
    /// a fence after it (Figure 6, writer side).
    pub(crate) fn expand_type_based(&mut self, am: Option<&AliasMap>) {
        if let Some(am) = am {
            let seed_locs = std::mem::take(&mut self.seed_locs);
            self.plan.report.seed_locations = seed_locs.len();
            for loc in &seed_locs {
                for &(f, i) in am.buddies(loc) {
                    if !self.mark_buddy(f, i) {
                        continue;
                    }
                    if let Some(&seed) = self.seed_of_loc.get(loc) {
                        let class = AliasClass::Key(loc.clone());
                        let backend = AliasMode::TypeBased;
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
        if self.plan.marks.optimistic_locs.is_empty() {
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
                let loc = loc_of(&index, &inst.kind);
                if self.plan.marks.optimistic_locs.contains(&loc) {
                    self.fence_writer(fid, inst.id);
                    let seed = self.seed_of_optimistic.get(&loc).copied();
                    let cause = TraceCause::OptimisticStore { seed };
                    let ledger = &mut self.plan.report.ledger;
                    record(ledger, &index, fid, inst.id, TraceAction::FenceAfter, cause);
                }
            }
        }
    }

    /// Planning, step two, on points-to classes: the seeds are the
    /// accesses themselves (everything marked SC so far, then the
    /// optimistic controls), and the writers that get fences are the
    /// stores aliasing an optimistic control.
    pub(crate) fn expand_points_to(&mut self, am: &AliasMap) {
        let optimistic = std::mem::take(&mut self.optimistic_accesses);
        if self.alias_exploration {
            // Sorted so the expansion, and the ledger, is deterministic.
            let sc = &self.plan.marks.sc_marks;
            let mut seeds: Vec<(FuncId, InstId)> = sc
                .iter()
                .flat_map(|(&f, is)| is.iter().map(move |&i| (f, i)))
                .collect();
            seeds.sort_unstable_by_key(|&(f, i)| (f.0, i.0));
            seeds.extend(optimistic.iter().copied());
            self.plan.report.seed_locations = seeds.len();
            for (f, i) in seeds {
                for &(bf, bi) in am.buddies_of_access(f, i) {
                    if self.mark_buddy(bf, bi) {
                        let class = AliasClass::Class(am.class_index(bf, bi).unwrap_or(0));
                        let backend = AliasMode::PointsTo;
                        let seed = (f, i);
                        let cause = TraceCause::StickyBuddy {
                            seed,
                            class,
                            backend,
                        };
                        self.record(bf, bi, TraceAction::UpgradeSc, cause);
                    }
                }
            }
        }
        let mut fenced: HashSet<(FuncId, InstId)> = HashSet::new();
        for &(f, i) in &optimistic {
            for &(bf, bi) in am.buddies_of_access(f, i) {
                let kind = self.indexes.of(bf).get(bi);
                if !kind.is_some_and(|k| k.is_memory_access() && k.may_write()) {
                    continue;
                }
                self.fence_writer(bf, bi);
                if fenced.insert((bf, bi)) {
                    let cause = TraceCause::OptimisticStore { seed: Some((f, i)) };
                    self.record(bf, bi, TraceAction::FenceAfter, cause);
                }
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
            TraceCause::OptimisticStore { seed: None },
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
