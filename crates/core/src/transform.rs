//! The program transformation (§3.2–§3.4, applied in one pass).
//!
//! Marked accesses become sequentially consistent atomics (implicit
//! barriers — `LDAR`/`STLR` on Arm); optimistic controls additionally get
//! explicit `fence seq_cst` barriers: before each optimistic-control load
//! inside an optimistic loop, and after every store to an optimistic
//! location anywhere in the module (Figure 6's orange marks).

use atomig_mir::{FuncId, Inst, InstId, InstKind, Module, Ordering};
use std::collections::{HashMap, HashSet};

/// The accumulated marks of all detection passes, to be applied at once.
#[derive(Debug, Clone, Default)]
pub struct MarkSet {
    /// Per function: accesses to upgrade to `SeqCst`.
    pub sc_marks: HashMap<FuncId, HashSet<InstId>>,
    /// Per function: loads that get an explicit fence inserted before them.
    pub fence_before: HashMap<FuncId, HashSet<InstId>>,
    /// Per function: stores that get an explicit fence inserted after them.
    pub fence_after: HashMap<FuncId, HashSet<InstId>>,
}

impl MarkSet {
    /// Adds an SC-upgrade mark.
    pub fn mark_sc(&mut self, f: FuncId, i: InstId) {
        self.sc_marks.entry(f).or_default().insert(i);
    }

    /// Adds a fence-before mark.
    pub fn mark_fence_before(&mut self, f: FuncId, i: InstId) {
        self.fence_before.entry(f).or_default().insert(i);
    }

    /// Adds a fence-after mark.
    pub fn mark_fence_after(&mut self, f: FuncId, i: InstId) {
        self.fence_after.entry(f).or_default().insert(i);
    }

    /// Total number of SC marks.
    pub fn sc_mark_count(&self) -> usize {
        self.sc_marks.values().map(HashSet::len).sum()
    }
}

/// What the transformation changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Plain accesses made `SeqCst`: each moves from the plain to the
    /// implicit-barrier column of the [`crate::BarrierCensus`].
    pub plain_to_sc: usize,
    /// Weaker atomic accesses raised to `SeqCst`: each already counted
    /// as an implicit barrier.
    pub atomic_to_sc: usize,
    /// Accesses already `SeqCst` that were marked (idempotence).
    pub already_sc: usize,
    /// Explicit fences inserted.
    pub fences_inserted: usize,
}

impl TransformStats {
    /// Accesses whose ordering was actually raised to `SeqCst`.
    pub fn sc_upgraded(&self) -> usize {
        self.plain_to_sc + self.atomic_to_sc
    }
}

/// Applies `marks` to the module.
pub fn apply(m: &mut Module, marks: &MarkSet) -> TransformStats {
    let mut stats = TransformStats::default();
    for fid in 0..m.funcs.len() as u32 {
        let fid = FuncId(fid);
        let empty = HashSet::new();
        let sc = marks.sc_marks.get(&fid).unwrap_or(&empty);
        let before = marks.fence_before.get(&fid).unwrap_or(&empty);
        let after = marks.fence_after.get(&fid).unwrap_or(&empty);
        if sc.is_empty() && before.is_empty() && after.is_empty() {
            continue;
        }
        let func = m.func_mut(fid);
        let mut next = func.next_inst;
        let is_sc_fence = |i: &Inst| {
            matches!(
                i.kind,
                InstKind::Fence {
                    ord: Ordering::SeqCst
                }
            )
        };
        for block in &mut func.blocks {
            let old = std::mem::take(&mut block.insts);
            let mut new_insts: Vec<Inst> = Vec::with_capacity(old.len());
            let n = old.len();
            for pos in 0..n {
                let mut inst = old[pos].clone();
                // Idempotence: skip insertion when a fence is already
                // adjacent (e.g. from a previous run of the pipeline).
                let already_before = new_insts.last().map(is_sc_fence).unwrap_or(false);
                if before.contains(&inst.id) && !already_before {
                    new_insts.push(Inst::with_span(
                        InstId(next),
                        InstKind::Fence {
                            ord: Ordering::SeqCst,
                        },
                        inst.span,
                    ));
                    next += 1;
                    stats.fences_inserted += 1;
                }
                if sc.contains(&inst.id) {
                    match inst.kind.ordering() {
                        Some(Ordering::SeqCst) => stats.already_sc += 1,
                        Some(o) if o.is_atomic() => stats.atomic_to_sc += 1,
                        _ => stats.plain_to_sc += 1,
                    }
                    inst.kind.upgrade_ordering(Ordering::SeqCst);
                }
                let followed_by_fence = old.get(pos + 1).map(is_sc_fence).unwrap_or(false);
                let fence_here = after.contains(&inst.id) && !followed_by_fence;
                let span = inst.span;
                new_insts.push(inst);
                if fence_here {
                    new_insts.push(Inst::with_span(
                        InstId(next),
                        InstKind::Fence {
                            ord: Ordering::SeqCst,
                        },
                        span,
                    ));
                    next += 1;
                    stats.fences_inserted += 1;
                }
            }
            block.insts = new_insts;
        }
        func.next_inst = next;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, verify_module};

    #[test]
    fn upgrades_marked_accesses() {
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @w() : void {
            bb0:
              store i32 1, @flag
              store i32 2, @flag release
              ret
            }
            "#,
        )
        .unwrap();
        let mut marks = MarkSet::default();
        for inst in &m.funcs[0].blocks[0].insts {
            marks.mark_sc(FuncId(0), inst.id);
        }
        let stats = apply(&mut m, &marks);
        assert_eq!((stats.plain_to_sc, stats.atomic_to_sc), (1, 1));
        assert_eq!(stats.sc_upgraded(), 2);
        assert_eq!(stats.fences_inserted, 0);
        for inst in &m.funcs[0].blocks[0].insts {
            assert_eq!(inst.kind.ordering(), Some(Ordering::SeqCst));
        }
        verify_module(&m).unwrap();
    }

    #[test]
    fn inserts_fences_around_marked_insts() {
        let mut m = parse_module(
            r#"
            global @seq: i32 = 0
            fn @w() : void {
            bb0:
              %v = load i32, @seq
              store i32 1, @seq
              ret
            }
            "#,
        )
        .unwrap();
        let load_id = m.funcs[0].blocks[0].insts[0].id;
        let store_id = m.funcs[0].blocks[0].insts[1].id;
        let mut marks = MarkSet::default();
        marks.mark_fence_before(FuncId(0), load_id);
        marks.mark_fence_after(FuncId(0), store_id);
        let stats = apply(&mut m, &marks);
        assert_eq!(stats.fences_inserted, 2);
        let kinds: Vec<bool> = m.funcs[0].blocks[0]
            .insts
            .iter()
            .map(|i| matches!(i.kind, InstKind::Fence { .. }))
            .collect();
        assert_eq!(kinds, vec![true, false, false, true]);
        verify_module(&m).unwrap();
    }

    #[test]
    fn marking_is_idempotent() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @x seq_cst
              ret
            }
            "#,
        )
        .unwrap();
        let sid = m.funcs[0].blocks[0].insts[0].id;
        let mut marks = MarkSet::default();
        marks.mark_sc(FuncId(0), sid);
        let stats = apply(&mut m, &marks);
        assert_eq!(stats.sc_upgraded(), 0);
        assert_eq!(stats.already_sc, 1);
    }

    #[test]
    fn never_downgrades() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              %v = rmw add i32 @x, 1 seq_cst
              ret
            }
            "#,
        )
        .unwrap();
        let rid = m.funcs[0].blocks[0].insts[0].id;
        let mut marks = MarkSet::default();
        marks.mark_sc(FuncId(0), rid);
        apply(&mut m, &marks);
        assert_eq!(
            m.funcs[0].blocks[0].insts[0].kind.ordering(),
            Some(Ordering::SeqCst)
        );
    }

    #[test]
    fn untouched_functions_unchanged() {
        let mut m = parse_module(
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
        let before = m.clone();
        let stats = apply(&mut m, &MarkSet::default());
        assert_eq!(stats, TransformStats::default());
        assert_eq!(m, before);
    }
}
