//! Optimistic-loop detection (§3.3, "Optimistic Accesses").
//!
//! "A spinloop is called an optimistic loop if it contains a read of a
//! non-local variable different from all the spin controls that is used by
//! some operation outside the loop." Sequence locks (Figure 6) and the
//! MariaDB lf-hash reader (Figure 7) are the motivating instances.

use crate::annotations::loc_of;
use crate::spinloop::SpinLoopInfo;
use atomig_analysis::InfluenceAnalysis;
use atomig_mir::{Function, InstId, InstKind, MemLoc, Value};
use std::collections::HashSet;

/// A spinloop classified as optimistic.
#[derive(Debug, Clone)]
pub struct OptimisticLoop {
    /// Index of the spinloop in the caller's `Vec<SpinLoopInfo>`.
    pub spin_index: usize,
    /// The optimistic (uncontrolled) non-local reads inside the loop whose
    /// values are used after the loop.
    pub optimistic_reads: Vec<InstId>,
    /// The spin controls of this loop, now promoted to *optimistic
    /// controls*: they receive explicit fences in addition to SC upgrades.
    pub optimistic_controls: Vec<InstId>,
    /// Alias keys of the optimistic controls.
    pub control_locs: Vec<MemLoc>,
}

/// Classifies the given spinloops of `func`, returning the optimistic ones.
pub fn detect_optimistic(
    func: &Function,
    inf: &InfluenceAnalysis<'_>,
    spins: &[SpinLoopInfo],
) -> Vec<OptimisticLoop> {
    let index = inf.index();
    let mut out = Vec::new();

    for (spin_index, spin) in spins.iter().enumerate() {
        let body = &spin.natural.body;
        let mut in_loop = vec![false; index.len()];
        for &b in body {
            for inst in &func.block(b).insts {
                in_loop[inst.id.0 as usize] = true;
            }
        }
        let control_locs: HashSet<&MemLoc> = spin.control_locs.iter().collect();

        // Candidate optimistic reads: in-loop non-local loads that are not
        // spin controls and access a different location than every control.
        let mut optimistic_reads = Vec::new();
        for &b in body {
            for inst in &func.block(b).insts {
                let is_read = matches!(inst.kind, InstKind::Load { .. });
                if !is_read || spin.controls.contains(&inst.id) {
                    continue;
                }
                let ptr = inst.kind.address().expect("loads have addresses");
                if !inf.escape().is_nonlocal(ptr) {
                    continue;
                }
                let loc = loc_of(index, &inst.kind);
                if control_locs.contains(&loc) {
                    continue;
                }
                if value_used_outside_loop(func, inf, inst.id, &in_loop, body) {
                    optimistic_reads.push(inst.id);
                }
            }
        }
        if optimistic_reads.is_empty() {
            continue;
        }
        optimistic_reads.sort();
        out.push(OptimisticLoop {
            spin_index,
            optimistic_reads,
            optimistic_controls: spin.controls.clone(),
            control_locs: spin.control_locs.clone(),
        });
    }
    out
}

/// Does the value produced by `id` flow to an instruction outside the loop?
///
/// With `-O0` lowering there are no phis, so values can only leave a loop
/// through stack slots: the load's result is stored to a private slot that
/// is read outside the loop (directly or via further slot-to-slot copies).
/// Direct out-of-loop uses are also checked for robustness.
fn value_used_outside_loop(
    func: &Function,
    inf: &InfluenceAnalysis<'_>,
    id: InstId,
    in_loop: &[bool],
    body: &std::collections::BTreeSet<atomig_mir::BlockId>,
) -> bool {
    // Track the set of values carrying the datum: the instruction result
    // itself plus any private slots it is stored into (transitively). All
    // three sets are dense over the function's ids.
    let n = in_loop.len();
    let is = |set: &[bool], v: InstId| set.get(v.0 as usize).copied().unwrap_or(false);
    let mut carrier_insts = vec![false; n];
    carrier_insts[id.0 as usize] = true;
    let mut carrier_slots = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for (_, inst) in func.insts() {
            match &inst.kind {
                InstKind::Store { val, ptr, .. } => {
                    let carries = val.as_inst().is_some_and(|vid| is(&carrier_insts, vid));
                    if carries && in_loop[inst.id.0 as usize] {
                        if let Some(slot) = inf.escape().private_root(*ptr) {
                            changed |=
                                !std::mem::replace(&mut carrier_slots[slot.0 as usize], true);
                        }
                    }
                }
                InstKind::Load { ptr, .. } => {
                    if let Some(slot) = inf.escape().private_root(*ptr) {
                        if carrier_slots[slot.0 as usize] && in_loop[inst.id.0 as usize] {
                            changed |=
                                !std::mem::replace(&mut carrier_insts[inst.id.0 as usize], true);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Any direct use of a carrier value outside the loop?
    let carried = |op: Value| op.as_inst().is_some_and(|vid| is(&carrier_insts, vid));
    for (_, inst) in func.insts() {
        if in_loop[inst.id.0 as usize] {
            continue;
        }
        // A load outside the loop from a carrier slot observes the datum.
        if let InstKind::Load { ptr, .. } = &inst.kind {
            if let Some(slot) = inf.escape().private_root(*ptr) {
                if carrier_slots[slot.0 as usize] {
                    return true;
                }
            }
        }
        if inst.kind.operands().any(carried) {
            return true;
        }
    }
    // Terminator uses (e.g. `ret data`).
    for b in func.block_ids() {
        if body.contains(&b) {
            continue;
        }
        if func.block(b).term.operands().any(carried) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spinloop::detect_spinloops;
    use atomig_mir::parse_module;

    fn analyze(src: &str) -> (usize, usize) {
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let spins = detect_spinloops(f, &inf);
        let opts = detect_optimistic(f, &inf, &spins);
        (spins.len(), opts.len())
    }

    /// Figure 6 reader: the sequence-count loop is optimistic.
    #[test]
    fn seqlock_reader_is_optimistic() {
        let (spins, opts) = analyze(
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
            "#,
        );
        assert_eq!(spins, 1);
        assert_eq!(opts, 1);
    }

    /// Figure 5 reader: plain message passing is a spinloop but NOT
    /// optimistic (the msg read happens after the loop).
    #[test]
    fn mp_reader_is_not_optimistic() {
        let (spins, opts) = analyze(
            r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @reader() : i32 {
            entry:
              br loop
            loop:
              %f = load i32, @flag
              %c = cmp ne %f, 1
              condbr %c, loop, done
            done:
              %m = load i32, @msg
              ret %m
            }
            "#,
        );
        assert_eq!(spins, 1);
        assert_eq!(opts, 0);
    }

    /// An in-loop read of another shared variable that is *not* used after
    /// the loop does not make the loop optimistic.
    #[test]
    fn unused_extra_read_is_not_optimistic() {
        let (spins, opts) = analyze(
            r#"
            global @flag: i32 = 0
            global @stats: i32 = 0
            fn @reader() : void {
            entry:
              %tmp = alloca i32
              br loop
            loop:
              %s = load i32, @stats
              store i32 %s, %tmp
              %f = load i32, @flag
              %c = cmp ne %f, 1
              condbr %c, loop, done
            done:
              ret
            }
            "#,
        );
        assert_eq!(spins, 1);
        assert_eq!(opts, 0);
    }

    /// Figure 7 abstraction: the lf-hash l_find loop reading key between
    /// state reads is optimistic.
    #[test]
    fn lf_hash_find_is_optimistic() {
        let (spins, opts) = analyze(
            r#"
            struct %Node { i64, i64 }
            fn @l_find(%n: ptr %Node) : i64 {
            entry:
              %state = alloca i64
              %key = alloca i64
              br loop
            loop:
              %sa = gep %Node, %n, 0, 0
              %sv = load i64, %sa
              store i64 %sv, %state
              %ka = gep %Node, %n, 0, 1
              %kv = load i64, %ka
              store i64 %kv, %key
              %sv1 = load i64, %state
              %sa2 = gep %Node, %n, 0, 0
              %sv2 = load i64, %sa2
              %c = cmp ne %sv1, %sv2
              condbr %c, loop, done
            done:
              %k = load i64, %key
              ret %k
            }
            "#,
        );
        assert_eq!(spins, 1);
        assert_eq!(opts, 1);
    }

    /// The optimistic controls are exactly the loop's spin controls.
    #[test]
    fn optimistic_controls_match_spin_controls() {
        let m = parse_module(
            r#"
            global @seq: i32 = 0
            global @val: i32 = 0
            fn @reader() : i32 {
            entry:
              %data = alloca i32
              br loop
            loop:
              %s1 = load i32, @seq
              %v = load i32, @val
              store i32 %v, %data
              %s2 = load i32, @seq
              %c = cmp ne %s1, %s2
              condbr %c, loop, done
            done:
              %d = load i32, %data
              ret %d
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let inf = InfluenceAnalysis::new(f);
        let spins = detect_spinloops(f, &inf);
        let opts = detect_optimistic(f, &inf, &spins);
        assert_eq!(opts.len(), 1);
        assert_eq!(
            opts[0].optimistic_controls,
            spins[opts[0].spin_index].controls
        );
        assert!(!opts[0].optimistic_reads.is_empty());
    }
}
