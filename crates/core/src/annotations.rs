//! Pass 1: analyzing explicit annotations (§3.2).
//!
//! * Existing atomic accesses with orderings weaker than SC are upgraded —
//!   "on TSO, most of the attached memory orders … are indistinguishable,
//!   so it is frequent for code to use insufficiently strong memory
//!   orders. To ensure correctness under WMM, we therefore turn all of
//!   these memory orders into SC."
//! * `volatile` accesses become SC atomics — volatile suppresses compiler
//!   optimizations but "has no influence on how the hardware treats those
//!   accesses".
//! * x86 inline assembly is normalized to builtins by the frontend (see
//!   `atomig_frontc::asm`), so at this level it already appears as atomic
//!   instructions/fences and is covered by the first rule.
//!
//! The pass only *collects* marks; [`crate::transform`] applies them, so
//! that alias exploration can expand the mark set first.

use atomig_mir::{InstId, InstIndex, InstKind, MemLoc};

/// An access marked for SC-atomic conversion, with the location key used
/// for sticky-buddy expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mark {
    /// The marked instruction.
    pub inst: InstId,
    /// Alias key of the accessed location.
    pub loc: MemLoc,
}

/// Result of scanning one function for explicit annotations.
#[derive(Debug, Clone, Default)]
pub struct AnnotationMarks {
    /// Accesses that were already atomic (any ordering).
    pub atomics: Vec<Mark>,
    /// Plain accesses with the `volatile` qualifier.
    pub volatiles: Vec<Mark>,
}

/// Scans the function `index` indexes for explicitly annotated
/// synchronization accesses.
///
/// `blacklist` suppresses volatile locations that communicate with the
/// *environment* (device registers, signal handlers) rather than with other
/// threads — the paper's volatile blacklisting knob. It was never needed in
/// the paper's experiments and defaults to empty.
pub fn scan_annotations(index: &InstIndex<'_>, blacklist: &[MemLoc]) -> AnnotationMarks {
    let mut out = AnnotationMarks::default();
    for (_, inst) in index.func().insts() {
        let kind = &inst.kind;
        if !kind.is_memory_access() {
            continue;
        }
        let loc = loc_of(index, kind);
        let is_atomic = kind.ordering().map(|o| o.is_atomic()).unwrap_or(false);
        let is_volatile = matches!(
            kind,
            InstKind::Load { volatile: true, .. } | InstKind::Store { volatile: true, .. }
        );
        if is_atomic {
            out.atomics.push(Mark { inst: inst.id, loc });
        } else if is_volatile && !blacklist.contains(&loc) {
            out.volatiles.push(Mark { inst: inst.id, loc });
        }
    }
    out
}

/// Resolves the alias key of a memory access of the function `index`
/// indexes.
pub fn loc_of(index: &InstIndex<'_>, kind: &InstKind) -> MemLoc {
    match kind.address() {
        Some(ptr) => atomig_mir::loc::resolve_loc(index, ptr),
        None => MemLoc::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, GlobalId};

    #[test]
    fn finds_existing_atomics_of_any_order() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              %a = load i32, @x rlx
              store i32 1, @x rel
              %b = rmw add i32 @x, 1 acq_rel
              %c = cmpxchg i32 @x, 0, 1 seq_cst
              %d = load i32, @x
              ret
            }
            "#,
        )
        .unwrap();
        let marks = scan_annotations(&m.funcs[0].inst_index(), &[]);
        assert_eq!(marks.atomics.len(), 4);
        assert!(marks.volatiles.is_empty());
        for mk in &marks.atomics {
            assert_eq!(mk.loc, MemLoc::Global(GlobalId(0), vec![]));
        }
    }

    #[test]
    fn finds_volatile_accesses() {
        let m = parse_module(
            r#"
            global @v: i32 = 0
            fn @f() : i32 {
            bb0:
              %a = load i32, @v volatile
              store i32 1, @v volatile
              %b = load i32, @v
              ret %a
            }
            "#,
        )
        .unwrap();
        let marks = scan_annotations(&m.funcs[0].inst_index(), &[]);
        assert_eq!(marks.volatiles.len(), 2);
        assert!(marks.atomics.is_empty());
    }

    #[test]
    fn blacklist_suppresses_device_volatiles() {
        let m = parse_module(
            r#"
            global @mmio: i32 = 0
            global @shared: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @mmio volatile
              store i32 1, @shared volatile
              ret
            }
            "#,
        )
        .unwrap();
        let bl = vec![MemLoc::Global(GlobalId(0), vec![])];
        let marks = scan_annotations(&m.funcs[0].inst_index(), &bl);
        assert_eq!(marks.volatiles.len(), 1);
        assert_eq!(marks.volatiles[0].loc, MemLoc::Global(GlobalId(1), vec![]));
    }

    #[test]
    fn plain_accesses_not_marked() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              %a = load i32, @x
              store i32 2, @x
              ret
            }
            "#,
        )
        .unwrap();
        let marks = scan_annotations(&m.funcs[0].inst_index(), &[]);
        assert!(marks.atomics.is_empty());
        assert!(marks.volatiles.is_empty());
    }
}
