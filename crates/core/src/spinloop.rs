//! Spinloop detection (§3.3).
//!
//! "A loop is a spinloop if (1) all its exit conditions have non-local
//! dependencies, and (2) all the stores in the loop without non-local
//! dependencies do not influence the loop exit conditions" — with the
//! Figure 3 refinement that stores of loop-invariant *constants* cannot
//! influence the exit (they always write the same value).

use crate::annotations::loc_of;
use atomig_analysis::{find_loops, Cfg, DomTree, InfluenceAnalysis, NaturalLoop};
use atomig_mir::{BlockId, Function, InstId, InstKind, MemLoc};
use std::collections::BTreeSet;

/// A detected spinloop with its spin controls.
#[derive(Debug, Clone)]
pub struct SpinLoopInfo {
    /// The underlying natural loop.
    pub natural: NaturalLoop,
    /// Non-local reads inside the loop that the exit conditions depend on
    /// ("spin controls"). These get converted to SC atomics.
    pub controls: Vec<InstId>,
    /// Alias keys of the control locations (for sticky-buddy expansion),
    /// one per control, in the same order.
    pub control_locs: Vec<MemLoc>,
}

impl SpinLoopInfo {
    /// The loop header block.
    pub fn header(&self) -> BlockId {
        self.natural.header
    }
}

/// Detects all spinloops in `func`.
///
/// `inf` must be an [`InfluenceAnalysis`] of the same function (callers
/// construct it once and reuse it across passes, §3.5).
pub fn detect_spinloops(func: &Function, inf: &InfluenceAnalysis<'_>) -> Vec<SpinLoopInfo> {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg);
    let loops = find_loops(func, &cfg, &dom);
    let index = inf.index();

    let mut out = Vec::new();
    for natural in loops {
        if natural.exits.is_empty() {
            // No conditional way out: nothing controls the spin; there is
            // no access to transform (and nothing to re-read), skip.
            continue;
        }
        let scope: BTreeSet<BlockId> = natural.body.iter().copied().collect();

        // Rule (1): every exit condition must have a non-local dependency.
        let mut all_deps = atomig_analysis::DepSet::default();
        let mut ok = true;
        for exit in &natural.exits {
            let deps = inf.value_deps(exit.cond, Some(&scope));
            if !deps.has_nonlocal() {
                ok = false;
                break;
            }
            all_deps.merge(deps);
        }
        if !ok {
            continue;
        }

        // Rule (2): no local-only, non-constant store in the loop may
        // influence an exit condition.
        let mut disqualified = false;
        'outer: for &b in &natural.body {
            for inst in &func.block(b).insts {
                if !matches!(inst.kind, InstKind::Store { .. }) {
                    continue;
                }
                if inf.store_is_constant(inst.id) {
                    continue;
                }
                let sdeps = inf.store_deps(inst.id, Some(&scope));
                if sdeps.has_nonlocal() {
                    continue;
                }
                if let Some(slot) = inf.store_target_slot(inst.id) {
                    if all_deps.local_slots_read.contains(&slot) {
                        disqualified = true;
                        break 'outer;
                    }
                }
            }
        }
        if disqualified {
            continue;
        }

        // Spin controls: the non-local reads inside the loop feeding the
        // exit conditions (not their stack copies).
        let mut controls: Vec<InstId> = all_deps
            .nonlocal_reads
            .iter()
            .copied()
            .filter(|&id| index.block_of(id).is_some_and(|b| natural.contains(b)))
            .collect();
        controls.sort();
        if controls.is_empty() {
            // Exit depends on non-local state read only outside the loop
            // (or through an opaque call): nothing in the loop to mark.
            continue;
        }
        let control_locs: Vec<MemLoc> = controls
            .iter()
            .map(|&id| index.get(id).map_or(MemLoc::Unknown, |k| loc_of(index, k)))
            .collect();
        out.push(SpinLoopInfo {
            natural,
            controls,
            control_locs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    fn spins_of(src: &str) -> Vec<SpinLoopInfo> {
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        detect_spinloops(f, &inf)
    }

    /// Figure 3, spinloop 1: `while (flag != DONE) ;`
    #[test]
    fn fig3_spinloop_1() {
        let spins = spins_of(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              br loop
            loop:
              %v = load i32, @flag
              %c = cmp ne %v, 1
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(spins.len(), 1);
        assert_eq!(spins[0].controls.len(), 1);
        assert!(matches!(spins[0].control_locs[0], MemLoc::Global(..)));
    }

    /// Figure 3, spinloop 2: constant store to a local the condition reads.
    #[test]
    fn fig3_spinloop_2_constant_store() {
        let spins = spins_of(
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
        );
        assert_eq!(spins.len(), 1);
    }

    /// Figure 3, spinloop 3: in-loop dependency through a masked copy.
    #[test]
    fn fig3_spinloop_3_inloop_dep() {
        let spins = spins_of(
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
        );
        assert_eq!(spins.len(), 1);
        // The spin control is the @flag load, not the stack copy.
        assert_eq!(spins[0].controls.len(), 1);
    }

    /// Figure 3, non-spinloop 1: a bounded for-loop with an early break.
    #[test]
    fn fig3_non_spinloop_local_exit() {
        let spins = spins_of(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              %i = alloca i32
              store i32 0, %i
              br header
            header:
              %iv = load i32, %i
              %c = cmp lt %iv, 100
              condbr %c, body, exit
            body:
              %fv = load i32, @flag
              %d = cmp eq %fv, 1
              condbr %d, exit, latch
            latch:
              %iv2 = load i32, %i
              %inc = add %iv2, 1
              store i32 %inc, %i
              br header
            exit:
              ret
            }
            "#,
        );
        assert!(spins.is_empty());
    }

    /// Figure 3, non-spinloop 2: exit depends on a local store (i++).
    #[test]
    fn fig3_non_spinloop_local_store_influences_exit() {
        let spins = spins_of(
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
        );
        assert!(spins.is_empty());
    }

    /// Figure 4: the test-and-set lock acquisition loop.
    #[test]
    fn tas_lock_spin_is_detected() {
        let spins = spins_of(
            r#"
            global @locked: i32 = 0
            fn @lock() : void {
            entry:
              br spin
            spin:
              %old = cmpxchg i32 @locked, 0, 1 seq_cst
              %c = cmp ne %old, 0
              condbr %c, spin, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(spins.len(), 1);
        assert_eq!(spins[0].controls.len(), 1);
    }

    /// Spin on a pointer parameter (MCS-style `while (!node->locked)`).
    #[test]
    fn spin_through_pointer_param() {
        let spins = spins_of(
            r#"
            struct %Node { i32, ptr %Node }
            fn @wait(%n: ptr %Node) : void {
            entry:
              br loop
            loop:
              %a = gep %Node, %n, 0, 0
              %v = load i32, %a
              %c = cmp eq %v, 0
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(spins.len(), 1);
        assert!(matches!(spins[0].control_locs[0], MemLoc::Field(..)));
    }

    /// A loop over a private array is not a spinloop.
    #[test]
    fn private_array_scan_is_not_spinloop() {
        let spins = spins_of(
            r#"
            fn @f() : void {
            entry:
              %a = alloca [8 x i32]
              %i = alloca i32
              store i32 0, %i
              br header
            header:
              %iv = load i32, %i
              %e = gep [8 x i32], %a, 0, %iv
              %v = load i32, %e
              %c = cmp ne %v, 0
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
        );
        assert!(spins.is_empty());
    }

    /// An infinite loop without conditional exits yields nothing to mark.
    #[test]
    fn infinite_loop_skipped() {
        let spins = spins_of(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            entry:
              br loop
            loop:
              %v = load i32, @x
              br loop
            }
            "#,
        );
        assert!(spins.is_empty());
    }
}
