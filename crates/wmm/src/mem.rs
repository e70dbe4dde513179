//! Flat-memory layout shared by the model checker and the interpreter.
//!
//! Every scalar (integer or pointer) occupies one address unit ("slot").
//! The address space is partitioned into globals, heap, and per-thread
//! stacks so the executor can tell thread-private stack traffic from
//! shared accesses.

use atomig_mir::{GlobalId, Module, Type};

/// Base address of the globals segment.
pub const GLOBAL_BASE: u64 = 0x1000;
/// Base address of the heap segment.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Base address of the stack segment.
pub const STACK_BASE: u64 = 0x8000_0000;
/// Stack bytes (slots) reserved per thread.
pub const STACK_SIZE: u64 = 0x10_000;

/// Base of thread `tid`'s stack.
pub fn stack_base(tid: usize) -> u64 {
    STACK_BASE + tid as u64 * STACK_SIZE
}

/// Which thread's stack (if any) contains `addr`.
pub fn stack_owner(addr: u64) -> Option<usize> {
    if addr < STACK_BASE {
        return None;
    }
    Some(((addr - STACK_BASE) / STACK_SIZE) as usize)
}

/// Precomputed sizes and global addresses of a module.
#[derive(Debug, Clone)]
pub struct Layout {
    struct_sizes: Vec<u32>,
    global_base: Vec<u64>,
    globals_end: u64,
}

impl Layout {
    /// Computes the layout of `m`.
    pub fn new(m: &Module) -> Layout {
        let struct_sizes = m.struct_slot_sizes();
        let mut global_base = Vec::with_capacity(m.globals.len());
        let mut next = GLOBAL_BASE;
        for g in &m.globals {
            global_base.push(next);
            next += g.ty.slot_count(&struct_sizes).max(1) as u64;
        }
        Layout {
            struct_sizes,
            global_base,
            globals_end: next,
        }
    }

    /// Slots occupied by `ty`.
    pub fn slots(&self, ty: &Type) -> u64 {
        ty.slot_count(&self.struct_sizes) as u64
    }

    /// Address of global `g`.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.global_base[g.0 as usize]
    }

    /// One-past-the-end of the globals segment.
    pub fn globals_end(&self) -> u64 {
        self.globals_end
    }

    /// Initial `(addr, value)` pairs for all non-zero global slots.
    pub fn initial_values<'a>(&'a self, m: &'a Module) -> impl Iterator<Item = (u64, i64)> + 'a {
        m.globals.iter().enumerate().flat_map(move |(gi, g)| {
            let base = self.global_base[gi];
            g.init
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0)
                .map(move |(si, v)| (base + si as u64, *v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    #[test]
    fn globals_are_laid_out_sequentially() {
        let m = parse_module(
            r#"
            global @a: i32 = 1
            global @arr: [4 x i64] = [1, 2, 3, 4]
            global @b: i32 = 9
            fn @f() : void {
            bb0:
              ret
            }
            "#,
        )
        .unwrap();
        let l = Layout::new(&m);
        assert_eq!(l.global_addr(GlobalId(0)), GLOBAL_BASE);
        assert_eq!(l.global_addr(GlobalId(1)), GLOBAL_BASE + 1);
        assert_eq!(l.global_addr(GlobalId(2)), GLOBAL_BASE + 5);
        assert_eq!(l.globals_end(), GLOBAL_BASE + 6);
    }

    #[test]
    fn initial_values_skip_zeros() {
        let m = parse_module(
            r#"
            global @a: i32 = 0
            global @arr: [3 x i32] = [0, 7, 0]
            fn @f() : void {
            bb0:
              ret
            }
            "#,
        )
        .unwrap();
        let l = Layout::new(&m);
        let vals: Vec<(u64, i64)> = l.initial_values(&m).collect();
        assert_eq!(vals, vec![(GLOBAL_BASE + 2, 7)]);
    }

    #[test]
    fn stack_regions_are_disjoint_per_thread() {
        assert_eq!(stack_owner(stack_base(0)), Some(0));
        assert_eq!(stack_owner(stack_base(3) + 100), Some(3));
        assert_eq!(stack_owner(GLOBAL_BASE), None);
        assert_eq!(stack_owner(HEAP_BASE), None);
        assert!(stack_base(1) - stack_base(0) == STACK_SIZE);
    }
}
