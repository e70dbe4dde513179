//! A Lasagne-style baseline (§2.2, Table 6).
//!
//! Lasagne lifts an x86 binary to LLVM IR, makes the program SC by
//! bracketing memory operations with **explicit** fences, and then removes
//! fences it can prove redundant. Working on lifted binaries it cannot see
//! much structure, so "it often does not manage to remove many barriers" —
//! and explicit fences are much slower than the implicit SC accesses the
//! naïve approach uses, which is why it loses to Naïve in Table 6.
//!
//! This reimplementation mirrors that cost structure: explicit `fence
//! seq_cst` before every shared load and around every shared store, then a
//! verified-peephole-style cleanup that (a) collapses adjacent fences and
//! (b) drops fences around provably thread-private stack traffic.

use atomig_analysis::EscapeInfo;
use atomig_mir::{Inst, InstId, InstKind, Module, Ordering};

/// Statistics of a Lasagne-style port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LasagneStats {
    /// Fences inserted by the SC-by-construction phase.
    pub fences_inserted: usize,
    /// Fences removed by the optimization phase.
    pub fences_removed: usize,
}

impl LasagneStats {
    /// Fences remaining in the output.
    pub fn fences_remaining(&self) -> usize {
        self.fences_inserted - self.fences_removed
    }
}

/// Applies the Lasagne-style port to the whole module.
pub fn lasagne_port(m: &mut Module) -> LasagneStats {
    let mut stats = LasagneStats::default();
    for func in &mut m.funcs {
        let escape = EscapeInfo::new(&func.inst_index());
        let mut next = func.next_inst;
        // Phase 1: bracket shared accesses with explicit fences.
        for block in &mut func.blocks {
            let old = std::mem::take(&mut block.insts);
            let mut out = Vec::with_capacity(old.len() * 2);
            for inst in old {
                let shared = inst.kind.is_memory_access()
                    && escape.is_nonlocal(inst.kind.address().expect("access"));
                if shared {
                    out.push(Inst::with_span(
                        InstId(next),
                        InstKind::Fence {
                            ord: Ordering::SeqCst,
                        },
                        inst.span,
                    ));
                    next += 1;
                    stats.fences_inserted += 1;
                }
                let was_write = inst.kind.may_write() && shared;
                let span = inst.span;
                out.push(inst);
                if was_write {
                    out.push(Inst::with_span(
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
            block.insts = out;
        }
        // Phase 2: peephole removal — collapse runs of fences separated
        // only by non-memory instructions.
        for block in &mut func.blocks {
            let old = std::mem::take(&mut block.insts);
            let mut out: Vec<Inst> = Vec::with_capacity(old.len());
            let mut fence_active = false;
            for inst in old {
                match &inst.kind {
                    InstKind::Fence { .. } => {
                        if fence_active {
                            stats.fences_removed += 1;
                            continue;
                        }
                        fence_active = true;
                        out.push(inst);
                    }
                    k if k.is_memory_access() || matches!(k, InstKind::Call { .. }) => {
                        fence_active = false;
                        out.push(inst);
                    }
                    _ => out.push(inst),
                }
            }
            block.insts = out;
        }
        func.next_inst = next;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, verify_module};

    fn fence_count(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.insts())
            .filter(|(_, i)| matches!(i.kind, InstKind::Fence { .. }))
            .count()
    }

    #[test]
    fn brackets_shared_accesses() {
        let mut m = parse_module(
            r#"
            global @a: i32 = 0
            fn @f() : i32 {
            bb0:
              %v = load i32, @a
              store i32 1, @a
              ret %v
            }
            "#,
        )
        .unwrap();
        let stats = lasagne_port(&mut m);
        // load: 1 before; store: 1 before + 1 after = 3 inserted.
        assert_eq!(stats.fences_inserted, 3);
        // The fence after the load and before the store are adjacent
        // (separated by nothing) -> one removed.
        assert_eq!(stats.fences_removed, 0);
        assert_eq!(fence_count(&m), 3);
        verify_module(&m).unwrap();
    }

    #[test]
    fn adjacent_fences_collapse() {
        let mut m = parse_module(
            r#"
            global @a: i32 = 0
            global @b: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @a
              store i32 2, @b
              ret
            }
            "#,
        )
        .unwrap();
        let stats = lasagne_port(&mut m);
        // 2 per store = 4 inserted; fence-after-a and fence-before-b are
        // adjacent -> 1 removed.
        assert_eq!(stats.fences_inserted, 4);
        assert_eq!(stats.fences_removed, 1);
        assert_eq!(fence_count(&m), 3);
        assert_eq!(stats.fences_remaining(), 3);
    }

    #[test]
    fn private_stack_traffic_unfenced() {
        let mut m = parse_module(
            r#"
            fn @f() : i32 {
            bb0:
              %x = alloca i32
              store i32 1, %x
              %v = load i32, %x
              ret %v
            }
            "#,
        )
        .unwrap();
        let stats = lasagne_port(&mut m);
        assert_eq!(stats.fences_inserted, 0);
        assert_eq!(fence_count(&m), 0);
    }

    #[test]
    fn lasagne_uses_more_explicit_fences_than_atomig_would() {
        // On a write-heavy kernel Lasagne's fence count scales with the
        // number of shared accesses.
        let mut m = parse_module(
            r#"
            global @arr: [8 x i64] = 0
            fn @f(%i: i64) : void {
            bb0:
              %e = gep [8 x i64], @arr, 0, %i
              store i64 1, %e
              store i64 2, %e
              store i64 3, %e
              ret
            }
            "#,
        )
        .unwrap();
        let stats = lasagne_port(&mut m);
        assert!(stats.fences_remaining() >= 4);
        verify_module(&m).unwrap();
    }
}
