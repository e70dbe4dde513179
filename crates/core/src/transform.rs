//! The program transformation (§3.2–§3.4, applied in one pass).
//!
//! Marked accesses become sequentially consistent atomics (implicit
//! barriers — `LDAR`/`STLR` on Arm); optimistic controls additionally get
//! explicit `fence seq_cst` barriers: before each optimistic-control load
//! inside an optimistic loop, and after every store to an optimistic
//! location anywhere in the module (Figure 6's orange marks).
//!
//! One rule decides what a mark still needs: `pending` lists the edits,
//! [`apply`] makes them, and the lint's fence-placement rule reports
//! them. A mark the module already realizes yields no edit, so a second
//! application changes nothing.

use atomig_mir::{BlockId, FuncId, Function, Inst, InstId, InstKind, Module, Ordering};
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
    /// Explicit fences inserted.
    pub fences_inserted: usize,
}

impl TransformStats {
    /// Accesses whose ordering was actually raised to `SeqCst`.
    pub fn sc_upgraded(&self) -> usize {
        self.plain_to_sc + self.atomic_to_sc
    }
}

/// What realizing a mark takes at one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EditKind {
    /// Raise the access's ordering from `from` to `SeqCst`.
    Upgrade { from: Ordering },
    /// Insert a `fence seq_cst` before the instruction.
    FenceBefore,
    /// Insert a `fence seq_cst` after the instruction.
    FenceAfter,
}

/// One edit [`apply`] makes: `kind` at instruction `pos` of `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edit {
    pub block: BlockId,
    pub pos: usize,
    pub kind: EditKind,
}

/// The edits that realize `marks` in function `fid`, in layout order and,
/// per instruction, upgrade, fence before, fence after. A mark the
/// function already realizes yields none: an access already `seq_cst`, a
/// load right after a `fence seq_cst` (or after an instruction that gets
/// a fence after it), a store right before a `fence seq_cst`.
pub(crate) fn pending(func: &Function, fid: FuncId, marks: &MarkSet) -> Vec<Edit> {
    let empty = HashSet::new();
    let sc = marks.sc_marks.get(&fid).unwrap_or(&empty);
    let before = marks.fence_before.get(&fid).unwrap_or(&empty);
    let after = marks.fence_after.get(&fid).unwrap_or(&empty);
    let mut edits = Vec::new();
    if sc.is_empty() && before.is_empty() && after.is_empty() {
        return edits;
    }
    let is_sc_fence = |i: &Inst| {
        matches!(
            i.kind,
            InstKind::Fence {
                ord: Ordering::SeqCst
            }
        )
    };
    for (block, b) in func.block_ids().zip(&func.blocks) {
        // Whether an SC fence precedes `pos` once the edits are made.
        let mut fenced = false;
        for (pos, inst) in b.insts.iter().enumerate() {
            let mut edit = |kind| edits.push(Edit { block, pos, kind });
            if sc.contains(&inst.id) {
                match inst.kind.ordering() {
                    Some(Ordering::SeqCst) => {}
                    from => edit(EditKind::Upgrade {
                        from: from.unwrap_or(Ordering::NotAtomic),
                    }),
                }
            }
            if before.contains(&inst.id) && !fenced {
                edit(EditKind::FenceBefore);
            }
            fenced = is_sc_fence(inst);
            if after.contains(&inst.id) && !b.insts.get(pos + 1).is_some_and(is_sc_fence) {
                edit(EditKind::FenceAfter);
                fenced = true;
            }
        }
    }
    edits
}

/// Applies `marks` to the module: makes the `pending` edits of every
/// function, numbering inserted fences from its `next_inst`. A block that
/// gains fences is rebuilt at exactly its new length.
pub fn apply(m: &mut Module, marks: &MarkSet) -> TransformStats {
    let mut stats = TransformStats::default();
    for fid in 0..m.funcs.len() as u32 {
        let fid = FuncId(fid);
        let edits = pending(m.func(fid), fid, marks);
        let mut rest = &edits[..];
        let func = m.func_mut(fid);
        let first = func.next_inst;
        let mut next = first;
        let mut fence = |span| {
            next += 1;
            let ord = Ordering::SeqCst;
            Inst::with_span(InstId(next - 1), InstKind::Fence { ord }, span)
        };
        for (block, b) in (0..).map(BlockId).zip(&mut func.blocks) {
            let n = rest.iter().take_while(|e| e.block == block).count();
            if n == 0 {
                continue;
            }
            let (here, after) = rest.split_at(n);
            rest = after;
            let fences = here
                .iter()
                .filter(|e| !matches!(e.kind, EditKind::Upgrade { .. }))
                .count();
            let len = b.insts.len() + fences;
            let old = std::mem::replace(&mut b.insts, Vec::with_capacity(len));
            let mut here = here.iter().peekable();
            for (pos, mut inst) in old.into_iter().enumerate() {
                let mut fence_after = false;
                while let Some(e) = here.next_if(|e| e.pos == pos) {
                    match e.kind {
                        EditKind::Upgrade { from } => {
                            if from.is_atomic() {
                                stats.atomic_to_sc += 1;
                            } else {
                                stats.plain_to_sc += 1;
                            }
                            inst.kind.upgrade_ordering(Ordering::SeqCst);
                        }
                        EditKind::FenceBefore => b.insts.push(fence(inst.span)),
                        EditKind::FenceAfter => fence_after = true,
                    }
                }
                let span = inst.span;
                b.insts.push(inst);
                if fence_after {
                    b.insts.push(fence(span));
                }
            }
        }
        stats.fences_inserted += (next - first) as usize;
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
        assert_eq!(pending(&m.funcs[0], FuncId(0), &marks), vec![]);
        let before = m.clone();
        assert_eq!(apply(&mut m, &marks), TransformStats::default());
        assert_eq!(m, before);
    }

    #[test]
    fn fence_after_a_store_serves_the_next_load() {
        let mut m = parse_module(
            r#"
            global @seq: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @seq
              %v = load i32, @seq
              ret
            }
            "#,
        )
        .unwrap();
        let store_id = m.funcs[0].blocks[0].insts[0].id;
        let load_id = m.funcs[0].blocks[0].insts[1].id;
        let mut marks = MarkSet::default();
        marks.mark_fence_after(FuncId(0), store_id);
        marks.mark_fence_before(FuncId(0), load_id);
        let want = Edit {
            block: BlockId(0),
            pos: 0,
            kind: EditKind::FenceAfter,
        };
        assert_eq!(pending(&m.funcs[0], FuncId(0), &marks), vec![want]);
        assert_eq!(apply(&mut m, &marks).fences_inserted, 1);
        assert_eq!(pending(&m.funcs[0], FuncId(0), &marks), vec![]);
        verify_module(&m).unwrap();
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
