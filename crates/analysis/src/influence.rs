//! The scoped *instruction-influence analysis* of §3.5.
//!
//! Given a value (typically a loop exit condition), compute the closure of
//! instructions it transitively depends on, flowing through `-O0` stack
//! slots: a load from a private slot depends on the stores to that slot
//! (within a caller-chosen scope — a loop body or the whole function).
//! The closure records which **non-local** memory reads feed the value;
//! those are the paper's *spin control* candidates.
//!
//! The paper caches this information per function so that repeated
//! queries stay cheap (§3.5). An [`InfluenceAnalysis`] keeps the
//! function's index, escape tables and slot stores, and its queries share
//! one visited array, stamped with a new generation per query, and one
//! worklist. [`InfluenceAnalysis::reset`] re-targets all of it to the
//! next function, so a sweep over a module allocates them once.
//! [`InfluenceAnalysis::summarize`] and
//! [`InfluenceAnalysis::store_has_nonlocal`] answer the spinloop rules
//! without building a [`DepSet`]'s hash sets; both walk the same closure
//! as [`InfluenceAnalysis::value_deps`].

use crate::escape::EscapeInfo;
use atomig_mir::{BlockId, Function, FxBuild, InstId, InstIndex, InstKind, Value};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;

/// The dependency closure of a value.
#[derive(Debug, Clone, Default)]
pub struct DepSet {
    /// Every instruction in the closure.
    pub insts: HashSet<InstId, FxBuild>,
    /// Reads (load/cmpxchg/rmw) of non-local memory in the closure.
    pub nonlocal_reads: HashSet<InstId, FxBuild>,
    /// Private stack slots (alloca ids) read by the closure.
    pub local_slots_read: HashSet<InstId, FxBuild>,
    /// Whether the closure passes through an opaque call result. Calls may
    /// read shared state, so this conservatively counts as a non-local
    /// dependency (the inliner usually removes these first).
    pub has_opaque: bool,
}

impl DepSet {
    /// Whether the value has any non-local dependency (§3.3's spinloop
    /// requirement on exit conditions).
    pub fn has_nonlocal(&self) -> bool {
        !self.nonlocal_reads.is_empty() || self.has_opaque
    }
}

/// The parts of dependency closures that the spinloop rules read,
/// gathered over several [`InfluenceAnalysis::summarize`] queries into
/// vectors a caller can reuse.
#[derive(Debug, Clone, Default)]
pub struct DepSummary {
    /// Reads of non-local memory; a read in two closures appears twice.
    pub nonlocal_reads: Vec<InstId>,
    /// Private stack slots read, once per read.
    pub local_slots_read: Vec<InstId>,
}

impl DepSummary {
    /// Empties the summary, keeping its capacity.
    pub fn clear(&mut self) {
        self.nonlocal_reads.clear();
        self.local_slots_read.clear();
    }
}

/// One finding of a closure walk.
enum Dep {
    /// An instruction in the closure.
    Inst(InstId),
    /// A read of non-local memory in the closure.
    NonlocalRead(InstId),
    /// A read of this private slot in the closure.
    SlotRead(InstId),
    /// A call whose result the closure passes through.
    Opaque,
}

/// Per-function influence analysis with precomputed slot/store maps.
///
/// Construction is `O(instructions)`: it builds the function's dense
/// [`InstIndex`] once and keeps it, together with dense escape
/// information and the stores of each private slot. Queries walk only
/// the relevant use-def chains. The paper
/// caches exactly this information to keep repeated queries cheap
/// (§3.5), and the detection passes reuse the index through
/// [`InfluenceAnalysis::index`] instead of rebuilding it. The queries
/// also share one visited array and worklist: each query stamps the
/// array with a new generation instead of allocating and clearing its
/// own.
#[derive(Debug)]
pub struct InfluenceAnalysis<'f> {
    index: InstIndex<'f>,
    escape: EscapeInfo,
    /// `(private slot, store writing it)`, sorted by slot; each slot's
    /// stores stay in layout order.
    slot_stores: Vec<(InstId, InstId)>,
    /// The visited array and worklist of the queries.
    scratch: RefCell<Scratch>,
}

/// What each query walks with, kept from one query to the next.
#[derive(Debug, Default)]
struct Scratch {
    visited: Stamps,
    work: Vec<Value>,
}

/// A visited set that empties in `O(1)`: an id is in it when its entry
/// holds the current generation.
#[derive(Debug, Default)]
struct Stamps {
    marks: Vec<u32>,
    generation: u32,
}

impl Stamps {
    /// Empties the set, sized for `n` ids.
    fn clear(&mut self, n: usize) {
        self.marks.resize(n, 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // After 2^32 - 1 queries a stale mark could match again.
            self.marks.fill(0);
            self.generation = 1;
        }
    }

    /// Adds `id`; whether it was absent. Ids past the array are never
    /// recorded and always read as absent.
    fn insert(&mut self, id: InstId) -> bool {
        match self.marks.get_mut(id.0 as usize) {
            Some(mark) => std::mem::replace(mark, self.generation) != self.generation,
            None => true,
        }
    }
}

impl<'f> InfluenceAnalysis<'f> {
    /// Builds the analysis for `func`.
    pub fn new(func: &'f Function) -> InfluenceAnalysis<'f> {
        InfluenceAnalysis::with_index(func.inst_index())
    }

    /// Builds the analysis over an index the caller already built, and
    /// keeps it.
    pub fn with_index(index: InstIndex<'f>) -> InfluenceAnalysis<'f> {
        let mut inf = InfluenceAnalysis {
            index,
            escape: EscapeInfo::default(),
            slot_stores: Vec::new(),
            scratch: RefCell::default(),
        };
        inf.analyze();
        inf
    }

    /// Makes this the analysis of `func`, reusing the index, the tables
    /// and the visited array of the previous function: a sweep over the
    /// functions of one module keeps one analysis alive.
    pub fn reset(&mut self, func: &'f Function) {
        self.index.reindex(func);
        self.analyze();
    }

    /// Fills the escape information and the slot stores from the index.
    fn analyze(&mut self) {
        self.escape.recompute(&self.index);
        self.slot_stores.clear();
        for (_, inst) in self.index.func().insts() {
            if let InstKind::Store { ptr, .. } = &inst.kind {
                if let Some(slot) = self.escape.private_root(*ptr) {
                    self.slot_stores.push((slot, inst.id));
                }
            }
        }
        // A stable sort: each slot's stores stay in layout order.
        self.slot_stores.sort_by_key(|&(slot, _)| slot);
    }

    /// The underlying escape information.
    pub fn escape(&self) -> &EscapeInfo {
        &self.escape
    }

    /// The function under analysis.
    pub fn func(&self) -> &'f Function {
        self.index.func()
    }

    /// The function's dense instruction index.
    pub fn index(&self) -> &InstIndex<'f> {
        &self.index
    }

    /// The block containing instruction `id`.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.index.block_of(id)
    }

    /// The stores writing private slot `slot`, in layout order.
    fn stores_of(&self, slot: InstId) -> impl Iterator<Item = InstId> + '_ {
        let lo = self.slot_stores.partition_point(|&(s, _)| s < slot);
        self.slot_stores[lo..]
            .iter()
            .take_while(move |&&(s, _)| s == slot)
            .map(|&(_, store)| store)
    }

    /// Computes the dependency closure of `v`.
    ///
    /// When `scope` is `Some(blocks)`, stores into private stack slots are
    /// followed only if they occur inside `blocks` — the fine-grained
    /// scoping of §3.5 (e.g. "just within the loop").
    pub fn value_deps(&self, v: Value, scope: Option<&BTreeSet<BlockId>>) -> DepSet {
        let mut out = DepSet::default();
        let _ = self.walk(&[v], scope, |dep| {
            match dep {
                Dep::Inst(id) => {
                    out.insts.insert(id);
                }
                Dep::NonlocalRead(id) => {
                    out.nonlocal_reads.insert(id);
                }
                Dep::SlotRead(slot) => {
                    out.local_slots_read.insert(slot);
                }
                Dep::Opaque => out.has_opaque = true,
            }
            ControlFlow::Continue(())
        });
        out
    }

    /// Adds the non-local reads and private slots of the dependency
    /// closure of `v` to `into`, and says whether the closure has a
    /// non-local dependency: [`value_deps`](Self::value_deps) without
    /// building its sets.
    pub fn summarize(
        &self,
        v: Value,
        scope: Option<&BTreeSet<BlockId>>,
        into: &mut DepSummary,
    ) -> bool {
        let mut nonlocal = false;
        let _ = self.walk(&[v], scope, |dep| {
            match dep {
                Dep::Inst(_) => {}
                Dep::NonlocalRead(id) => {
                    into.nonlocal_reads.push(id);
                    nonlocal = true;
                }
                Dep::SlotRead(slot) => into.local_slots_read.push(slot),
                Dep::Opaque => nonlocal = true,
            }
            ControlFlow::Continue(())
        });
        nonlocal
    }

    /// Walks the dependency closure of `roots`, reporting each instruction
    /// once, each read of non-local memory, each private slot read (once
    /// per read) and each opaque call, until `visit` breaks. Stores are
    /// followed through the slots they write, in `scope` only.
    fn walk(
        &self,
        roots: &[Value],
        scope: Option<&BTreeSet<BlockId>>,
        mut visit: impl FnMut(Dep) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Scratch { visited, work } = &mut *self.scratch.borrow_mut();
        visited.clear(self.index.len());
        work.clear();
        work.extend_from_slice(roots);
        while let Some(v) = work.pop() {
            let id = match v.as_inst() {
                Some(id) => id,
                None => continue,
            };
            // An id past the index defines nothing: it is reported (again)
            // and dropped below, so it needs no visited bit.
            if !visited.insert(id) {
                continue;
            }
            visit(Dep::Inst(id))?;
            let (ptr, operands) = match self.index.get(id) {
                None => continue,
                Some(InstKind::Load { ptr, .. }) => (*ptr, [Some(*ptr), None, None]),
                Some(InstKind::Cmpxchg(c)) => (c.ptr, [Some(c.ptr), Some(c.expected), Some(c.new)]),
                Some(InstKind::Rmw { ptr, val, .. }) => (*ptr, [Some(*ptr), Some(*val), None]),
                Some(InstKind::Call { args, .. }) => {
                    visit(Dep::Opaque)?;
                    work.extend(args.iter().copied());
                    continue;
                }
                // The address itself is a constant; no dependencies.
                Some(InstKind::Alloca { .. }) => continue,
                Some(other) => {
                    work.extend(other.operands());
                    continue;
                }
            };
            // A read: of shared memory, or of a private slot, whose stores
            // feed it.
            match self.escape.private_root(ptr) {
                None => visit(Dep::NonlocalRead(id))?,
                Some(slot) => {
                    visit(Dep::SlotRead(slot))?;
                    for sid in self.stores_of(slot) {
                        if let Some(sc) = scope {
                            match self.index.block_of(sid) {
                                Some(b) if sc.contains(&b) => {}
                                _ => continue,
                            }
                        }
                        if visited.insert(sid) {
                            visit(Dep::Inst(sid))?;
                            if let Some(InstKind::Store { val, ptr, .. }) = self.index.get(sid) {
                                work.extend([*val, *ptr]);
                            }
                        }
                    }
                }
            }
            work.extend(operands.into_iter().flatten());
        }
        ControlFlow::Continue(())
    }

    /// Whether a store has a non-local dependency: its target is
    /// non-local memory (its effect is shared), or the closure of its value
    /// or address reaches a non-local read or an opaque call. Used by
    /// spinloop rule (2): stores without one that influence the exit
    /// condition disqualify the loop. The walk stops at the first
    /// non-local dependency.
    pub fn store_has_nonlocal(&self, store_id: InstId, scope: Option<&BTreeSet<BlockId>>) -> bool {
        let Some(InstKind::Store { val, ptr, .. }) = self.index.get(store_id) else {
            return false;
        };
        self.escape.private_root(*ptr).is_none()
            || self
                .walk(&[*val, *ptr], scope, |dep| match dep {
                    Dep::NonlocalRead(_) | Dep::Opaque => ControlFlow::Break(()),
                    Dep::Inst(_) | Dep::SlotRead(_) => ControlFlow::Continue(()),
                })
                .is_break()
    }

    /// The private slot a store writes to, if any.
    pub fn store_target_slot(&self, store_id: InstId) -> Option<InstId> {
        match self.index.get(store_id) {
            Some(InstKind::Store { ptr, .. }) => self.escape.private_root(*ptr),
            _ => None,
        }
    }

    /// Whether a store writes a compile-time constant (the paper's
    /// "constant store" exemption in spinloop rule (2), Figure 3).
    pub fn store_is_constant(&self, store_id: InstId) -> bool {
        matches!(
            self.index.get(store_id),
            Some(InstKind::Store { val, .. }) if val.is_const()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    /// Figure 3, spinloop 3: condition depends on a local that copies a
    /// masked non-local value inside the loop.
    #[test]
    fn chases_through_stack_slot_within_scope() {
        let m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              %lflag = alloca i32
              br loop
            loop:
              %fv = load i32, @flag
              %masked = and %fv, 3
              store i32 %masked, %lflag
              %lv = load i32, %lflag
              %c = cmp ne %lv, 2
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let cond = f.blocks[1].insts.last().unwrap().id;
        let scope: BTreeSet<BlockId> = [BlockId(1)].into_iter().collect();
        let deps = inf.value_deps(Value::Inst(cond), Some(&scope));
        assert!(deps.has_nonlocal());
        assert_eq!(deps.nonlocal_reads.len(), 1);
        // The non-local read is the load of @flag.
        let nl = *deps.nonlocal_reads.iter().next().unwrap();
        assert_eq!(nl, f.blocks[1].insts[0].id);
        assert_eq!(deps.local_slots_read.len(), 1);
    }

    /// Figure 3, non-spinloop 2: `for (i = 0; i < turns; i++)`.
    #[test]
    fn local_counter_store_has_no_nonlocal_deps() {
        let m = parse_module(
            r#"
            global @turns: i32 = 7
            fn @f() : void {
            entry:
              %i = alloca i32
              store i32 0, %i
              br header
            header:
              %iv = load i32, %i
              %tv = load i32, @turns
              %c = cmp lt %iv, %tv
              condbr %c, latch, exit
            latch:
              %iv2 = load i32, %i
              %inc = add %iv2, 1
              store i32 %inc, %i
              br header
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let scope: BTreeSet<BlockId> = [BlockId(1), BlockId(2)].into_iter().collect();
        // Exit condition depends on @turns (non-local) and slot i.
        let cond = f.blocks[1].insts[2].id;
        let deps = inf.value_deps(Value::Inst(cond), Some(&scope));
        assert!(deps.has_nonlocal());
        assert_eq!(deps.local_slots_read.len(), 1);
        // The i++ store: only local deps, not constant, targets slot i.
        let inc_store = f.blocks[2].insts[2].id;
        assert!(!inf.store_has_nonlocal(inc_store, Some(&scope)));
        assert!(!inf.store_is_constant(inc_store));
        let slot = inf.store_target_slot(inc_store).unwrap();
        assert!(deps.local_slots_read.contains(&slot));
    }

    /// Figure 3, spinloop 2: constant stores are recognized.
    #[test]
    fn constant_store_detected() {
        let m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              %lflag = alloca i32
              br loop
            loop:
              store i32 1, %lflag
              %lv = load i32, %lflag
              %fv = load i32, @flag
              %c = cmp ne %lv, %fv
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let const_store = f.blocks[1].insts[0].id;
        assert!(inf.store_is_constant(const_store));
        assert!(!inf.store_has_nonlocal(const_store, None));
    }

    #[test]
    fn scope_excludes_out_of_loop_stores() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            entry:
              %l = alloca i32
              %xv = load i32, @x
              store i32 %xv, %l
              br loop
            loop:
              %lv = load i32, %l
              %c = cmp ne %lv, 0
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let cond = f.blocks[1].insts[1].id;
        let scope: BTreeSet<BlockId> = [BlockId(1)].into_iter().collect();
        // Loop-scoped: the store (and its @x load) is outside -> no
        // non-local deps visible.
        let deps = inf.value_deps(Value::Inst(cond), Some(&scope));
        assert!(!deps.has_nonlocal());
        // Function-scoped: the @x load is reachable.
        let deps_full = inf.value_deps(Value::Inst(cond), None);
        assert!(deps_full.has_nonlocal());
    }

    #[test]
    fn call_results_are_opaque_nonlocal() {
        let m = parse_module(
            r#"
            fn @get() : i32 {
            bb0:
              ret 0
            }
            fn @f() : void {
            entry:
              br loop
            loop:
              %v = call i32 @get()
              %c = cmp eq %v, 0
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[1];
        let inf = InfluenceAnalysis::new(f);
        let cond = f.blocks[1].insts[1].id;
        let deps = inf.value_deps(Value::Inst(cond), None);
        assert!(deps.has_opaque);
        assert!(deps.has_nonlocal());
        assert!(deps.nonlocal_reads.is_empty());
    }

    #[test]
    fn cmpxchg_on_global_is_nonlocal_read() {
        let m = parse_module(
            r#"
            global @lock: i32 = 0
            fn @f() : void {
            entry:
              br spin
            spin:
              %old = cmpxchg i32 @lock, 0, 1 seq_cst
              %c = cmp ne %old, 0
              condbr %c, spin, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let cond = f.blocks[1].insts[1].id;
        let deps = inf.value_deps(Value::Inst(cond), None);
        assert_eq!(deps.nonlocal_reads.len(), 1);
        assert!(deps.nonlocal_reads.contains(&f.blocks[1].insts[0].id));
    }

    #[test]
    fn store_to_nonlocal_memory_counts_as_nonlocal_dep() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @x
              ret
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let sid = f.blocks[0].insts[0].id;
        assert!(inf.store_has_nonlocal(sid, None));
        assert_eq!(inf.store_target_slot(sid), None);
    }
}
