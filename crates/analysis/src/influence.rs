//! The scoped *instruction-influence analysis* of §3.5.
//!
//! Given a value (typically a loop exit condition), compute the closure of
//! instructions it transitively depends on, flowing through `-O0` stack
//! slots: a load from a private slot depends on the stores to that slot
//! (within a caller-chosen scope — a loop body or the whole function).
//! The closure records which **non-local** memory reads feed the value;
//! those are the paper's *spin control* candidates.

use crate::escape::EscapeInfo;
use atomig_mir::{BlockId, Function, InstId, InstIndex, InstKind, Value};
use std::collections::{BTreeSet, HashSet};

/// The dependency closure of a value.
#[derive(Debug, Clone, Default)]
pub struct DepSet {
    /// Every instruction in the closure.
    pub insts: HashSet<InstId>,
    /// Reads (load/cmpxchg/rmw) of non-local memory in the closure.
    pub nonlocal_reads: HashSet<InstId>,
    /// Private stack slots (alloca ids) read by the closure.
    pub local_slots_read: HashSet<InstId>,
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

    /// Merges another closure into this one.
    pub fn merge(&mut self, other: DepSet) {
        self.insts.extend(other.insts);
        self.nonlocal_reads.extend(other.nonlocal_reads);
        self.local_slots_read.extend(other.local_slots_read);
        self.has_opaque |= other.has_opaque;
    }
}

/// Per-function influence analysis with precomputed slot/store maps.
///
/// Construction is `O(instructions)`: it builds the function's dense
/// [`InstIndex`] once and keeps it, together with dense escape
/// information and the stores of each private slot. Queries walk only
/// the relevant use-def chains. The paper
/// caches exactly this information to keep repeated queries cheap
/// (§3.5), and the detection passes reuse the index through
/// [`InfluenceAnalysis::index`] instead of rebuilding it.
#[derive(Debug)]
pub struct InfluenceAnalysis<'f> {
    index: InstIndex<'f>,
    escape: EscapeInfo,
    /// `(private slot, store writing it)`, sorted by slot; each slot's
    /// stores stay in layout order.
    slot_stores: Vec<(InstId, InstId)>,
}

impl<'f> InfluenceAnalysis<'f> {
    /// Builds the analysis for `func`.
    pub fn new(func: &'f Function) -> InfluenceAnalysis<'f> {
        InfluenceAnalysis::with_index(func.inst_index())
    }

    /// Builds the analysis over an index the caller already built, and
    /// keeps it.
    pub fn with_index(index: InstIndex<'f>) -> InfluenceAnalysis<'f> {
        let func = index.func();
        let escape = EscapeInfo::new(&index);
        let mut slot_stores: Vec<(InstId, InstId)> = Vec::new();
        for (_, inst) in func.insts() {
            if let InstKind::Store { ptr, .. } = &inst.kind {
                if let Some(slot) = escape.private_root(*ptr) {
                    slot_stores.push((slot, inst.id));
                }
            }
        }
        // A stable sort: each slot's stores stay in layout order.
        slot_stores.sort_by_key(|&(slot, _)| slot);
        InfluenceAnalysis {
            index,
            escape,
            slot_stores,
        }
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
        let mut visited = vec![false; self.index.len()];
        let mut work: Vec<Value> = vec![v];
        while let Some(v) = work.pop() {
            let id = match v.as_inst() {
                Some(id) => id,
                None => continue,
            };
            // An id past the index defines nothing: it is recorded (again,
            // idempotently) and dropped below, so it needs no visited bit.
            if let Some(seen) = visited.get_mut(id.0 as usize) {
                if std::mem::replace(seen, true) {
                    continue;
                }
            }
            out.insts.insert(id);
            let kind = match self.index.get(id) {
                Some(k) => k,
                None => continue,
            };
            match kind {
                InstKind::Load { ptr, .. } => {
                    self.visit_read(id, *ptr, scope, &mut out, &mut work);
                    work.push(*ptr);
                }
                InstKind::Cmpxchg(c) => {
                    self.visit_read(id, c.ptr, scope, &mut out, &mut work);
                    work.extend([c.ptr, c.expected, c.new]);
                }
                InstKind::Rmw { ptr, val, .. } => {
                    self.visit_read(id, *ptr, scope, &mut out, &mut work);
                    work.push(*ptr);
                    work.push(*val);
                }
                InstKind::Call { args, .. } => {
                    out.has_opaque = true;
                    work.extend(args.iter().copied());
                }
                InstKind::Alloca { .. } => {
                    // The address itself is a constant; no dependencies.
                }
                other => work.extend(other.operands()),
            }
        }
        out
    }

    fn visit_read(
        &self,
        read_id: InstId,
        ptr: Value,
        scope: Option<&BTreeSet<BlockId>>,
        out: &mut DepSet,
        work: &mut Vec<Value>,
    ) {
        match self.escape.private_root(ptr) {
            None => {
                out.nonlocal_reads.insert(read_id);
            }
            Some(slot) => {
                out.local_slots_read.insert(slot);
                for sid in self.stores_of(slot) {
                    if let Some(sc) = scope {
                        match self.index.block_of(sid) {
                            Some(b) if sc.contains(&b) => {}
                            _ => continue,
                        }
                    }
                    if out.insts.insert(sid) {
                        if let Some(InstKind::Store { val, ptr, .. }) = self.index.get(sid) {
                            work.push(*val);
                            work.push(*ptr);
                        }
                    }
                }
            }
        }
    }

    /// The dependency closure of a *store*: its value and address deps.
    /// Used by spinloop rule (2): stores without non-local dependencies
    /// that influence the exit condition disqualify the loop.
    pub fn store_deps(&self, store_id: InstId, scope: Option<&BTreeSet<BlockId>>) -> DepSet {
        let mut out = DepSet::default();
        if let Some(InstKind::Store { val, ptr, .. }) = self.index.get(store_id) {
            out.merge(self.value_deps(*val, scope));
            out.merge(self.value_deps(*ptr, scope));
            // A store whose *target* is non-local memory counts as having a
            // non-local dependency (its effect is shared).
            if self.escape.private_root(*ptr).is_none() {
                out.has_opaque = true;
            }
        }
        out
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
        let sdeps = inf.store_deps(inc_store, Some(&scope));
        assert!(!sdeps.has_nonlocal());
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
        let sdeps = inf.store_deps(const_store, None);
        assert!(!sdeps.has_nonlocal());
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
        assert!(inf.store_deps(sid, None).has_nonlocal());
        assert_eq!(inf.store_target_slot(sid), None);
    }
}
