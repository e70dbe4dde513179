//! The Naïve baseline (§2.2): make *every* shared memory access
//! sequentially consistent.
//!
//! "The simplest solution is to make all memory accesses SC by using Arm's
//! implicit SC barriers … This solution fulfills our safety, scalability,
//! and practicality requirements, but introduces significantly high runtime
//! overhead." Accesses provably confined to a private stack slot are left
//! alone (they are unobservable by other threads by construction).

use atomig_analysis::EscapeInfo;
use atomig_mir::{Module, Ordering};

/// Statistics of a naïve port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveStats {
    /// Accesses upgraded to SC.
    pub upgraded: usize,
    /// Accesses left plain (private stack traffic).
    pub skipped_private: usize,
}

/// Applies the naïve port to the whole module.
pub fn naive_port(m: &mut Module) -> NaiveStats {
    let mut stats = NaiveStats::default();
    for func in &mut m.funcs {
        let escape = EscapeInfo::new(&func.inst_index());
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                if !inst.kind.is_memory_access() {
                    continue;
                }
                let ptr = inst.kind.address().expect("memory access has address");
                if escape.is_nonlocal(ptr) {
                    inst.kind.upgrade_ordering(Ordering::SeqCst);
                    stats.upgraded += 1;
                } else {
                    stats.skipped_private += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, verify_module};

    #[test]
    fn upgrades_all_shared_accesses() {
        let mut m = parse_module(
            r#"
            global @a: i32 = 0
            global @b: i32 = 0
            fn @f(%p: ptr i32) : i32 {
            bb0:
              %x = alloca i32
              store i32 1, %x
              %v = load i32, @a
              store i32 %v, @b
              %w = load i32, %p
              %l = load i32, %x
              %s = add %w, %l
              ret %s
            }
            "#,
        )
        .unwrap();
        let stats = naive_port(&mut m);
        assert_eq!(stats.upgraded, 3); // @a, @b, %p
        assert_eq!(stats.skipped_private, 2); // the two %x accesses
        verify_module(&m).unwrap();
        let f = &m.funcs[0];
        let sc_count = f
            .insts()
            .filter(|(_, i)| i.kind.ordering() == Some(Ordering::SeqCst))
            .count();
        assert_eq!(sc_count, 3);
    }

    #[test]
    fn idempotent() {
        let mut m = parse_module(
            r#"
            global @a: i32 = 0
            fn @f() : void {
            bb0:
              store i32 1, @a
              ret
            }
            "#,
        )
        .unwrap();
        naive_port(&mut m);
        let snapshot = m.clone();
        let stats = naive_port(&mut m);
        assert_eq!(m, snapshot);
        assert_eq!(stats.upgraded, 1); // counted again, but no change
    }
}
