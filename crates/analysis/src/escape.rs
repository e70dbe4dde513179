//! Escape analysis: which stack slots stay private to the function?
//!
//! The paper (§3.3): "A memory access is non-local in a function if it may
//! also be accessed from outside that function; e.g., a global variable, a
//! function argument passed by reference, or a stack variable whose address
//! is taken and escapes the function scope."

use atomig_mir::{InstId, InstIndex, InstKind, Terminator, Value};

/// Escape information for one function, in dense tables indexed by
/// `InstId.0`.
#[derive(Debug, Clone, Default)]
pub struct EscapeInfo {
    /// Allocas whose address escapes the function.
    escaping: Vec<bool>,
    /// Whether each id is an alloca.
    allocas: Vec<bool>,
    /// `value -> root alloca` cache for address chasing: `None` until a
    /// query reaches the id.
    roots: Vec<Option<Option<InstId>>>,
}

/// Chases a value back through gep/cast to its root alloca (if any).
fn root_of(
    v: Value,
    index: &InstIndex<'_>,
    allocas: &[bool],
    roots: &mut [Option<Option<InstId>>],
    depth: u32,
) -> Option<InstId> {
    if depth == 0 {
        return None;
    }
    let id = v.as_inst()?;
    let slot = id.0 as usize;
    if let Some(Some(r)) = roots.get(slot) {
        return *r;
    }
    let r = match index.get(id) {
        Some(InstKind::Alloca { .. }) if allocas[slot] => Some(id),
        Some(InstKind::Gep { base, .. }) => root_of(*base, index, allocas, roots, depth - 1),
        Some(InstKind::Cast { value, .. }) => root_of(*value, index, allocas, roots, depth - 1),
        _ => None,
    };
    if let Some(cached) = roots.get_mut(slot) {
        *cached = Some(r);
    }
    r
}

impl EscapeInfo {
    /// Computes escape information for the function `index` indexes.
    pub fn new(index: &InstIndex<'_>) -> EscapeInfo {
        // Zero-filled allocations leave fresh heap pages untouched until
        // written. The points-to solver builds one of these per function
        // at its peak; allocating and then filling the tables raised
        // `lint-corpus`'s peak RSS by about 1 MiB.
        let n = index.len();
        let mut info = EscapeInfo {
            allocas: vec![false; n],
            roots: vec![None; n],
            escaping: vec![false; n],
        };
        info.fill(index);
        info
    }

    /// Recomputes the information for the function `index` indexes, in
    /// the tables of the previous one.
    pub fn recompute(&mut self, index: &InstIndex<'_>) {
        let n = index.len();
        for table in [&mut self.allocas, &mut self.escaping] {
            table.clear();
            table.resize(n, false);
        }
        self.roots.clear();
        self.roots.resize(n, None);
        self.fill(index);
    }

    /// Fills the cleared tables, sized for `index`.
    fn fill(&mut self, index: &InstIndex<'_>) {
        let func = index.func();
        let EscapeInfo {
            escaping,
            allocas,
            roots,
        } = self;
        for (_, inst) in index.iter() {
            if matches!(inst.kind, InstKind::Alloca { .. }) {
                allocas[inst.id.0 as usize] = true;
            }
        }

        // A use escapes the slot when the *address value* flows somewhere
        // we cannot see: stored as data, passed to a call, or returned.
        let mut mark = |v: Value| {
            if let Some(a) = root_of(v, index, allocas, roots, 32) {
                escaping[a.0 as usize] = true;
            }
        };
        for (_, inst) in func.insts() {
            match &inst.kind {
                InstKind::Store { val, .. } => mark(*val),
                InstKind::Call { args, .. } => {
                    for a in args {
                        mark(*a);
                    }
                }
                InstKind::Cmpxchg(c) => {
                    mark(c.expected);
                    mark(c.new);
                }
                InstKind::Rmw { val, .. } => mark(*val),
                _ => {}
            }
        }
        for b in func.block_ids() {
            if let Terminator::Ret(Some(v)) = func.block(b).term {
                mark(v);
            }
        }

        // Pre-warm the root cache for all address operands so later queries
        // are pure lookups (the paper caches its scope queries, §3.5).
        for (_, inst) in func.insts() {
            if let Some(ptr) = inst.kind.address() {
                root_of(ptr, index, allocas, roots, 32);
            }
        }
    }

    /// Whether `id` is an alloca whose address never escapes.
    pub fn is_private_slot(&self, id: InstId) -> bool {
        let i = id.0 as usize;
        self.allocas.get(i).copied().unwrap_or(false) && !self.escaping[i]
    }

    /// The root private alloca behind an address value, if any.
    pub fn private_root(&self, ptr: Value) -> Option<InstId> {
        match ptr {
            Value::Inst(id) => {
                let i = id.0 as usize;
                let root = if self.allocas.get(i).copied().unwrap_or(false) {
                    Some(id)
                } else {
                    self.roots.get(i).copied().flatten().flatten()
                }?;
                self.is_private_slot(root).then_some(root)
            }
            _ => None,
        }
    }

    /// Whether an access through `ptr` is **non-local** in the paper's
    /// sense: not provably confined to a private stack slot.
    pub fn is_nonlocal(&self, ptr: Value) -> bool {
        self.private_root(ptr).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    fn info_of(src: &str) -> (atomig_mir::Module, EscapeInfo) {
        let m = parse_module(src).unwrap();
        let info = EscapeInfo::new(&m.funcs[0].inst_index());
        (m, info)
    }

    #[test]
    fn private_local_variable() {
        let (m, info) = info_of(
            r#"
            fn @f() : i32 {
            bb0:
              %x = alloca i32
              store i32 5, %x
              %v = load i32, %x
              ret %v
            }
            "#,
        );
        let f = &m.funcs[0];
        let alloca_id = f.blocks[0].insts[0].id;
        assert!(info.is_private_slot(alloca_id));
        assert!(!info.is_nonlocal(Value::Inst(alloca_id)));
    }

    #[test]
    fn address_passed_to_call_escapes() {
        let (m, info) = info_of(
            r#"
            fn @g(%p: ptr i32) : void {
            bb0:
              ret
            }
            fn @f() : void {
            bb0:
              %x = alloca i32
              call void @g(%x)
              ret
            }
            "#,
        );
        // info is for @g (funcs[0]); recompute for @f.
        let info_f = EscapeInfo::new(&m.funcs[1].inst_index());
        let alloca_id = m.funcs[1].blocks[0].insts[0].id;
        assert!(!info_f.is_private_slot(alloca_id));
        assert!(info_f.is_nonlocal(Value::Inst(alloca_id)));
        drop(info);
    }

    #[test]
    fn address_stored_to_memory_escapes() {
        let (m, info) = info_of(
            r#"
            global @p: ptr i32 = 0
            fn @f() : void {
            bb0:
              %x = alloca i32
              store ptr i32 %x, @p
              ret
            }
            "#,
        );
        let alloca_id = m.funcs[0].blocks[0].insts[0].id;
        assert!(info.is_nonlocal(Value::Inst(alloca_id)));
    }

    #[test]
    fn returned_address_escapes() {
        let (m, info) = info_of(
            r#"
            fn @f() : ptr i32 {
            bb0:
              %x = alloca i32
              ret %x
            }
            "#,
        );
        let alloca_id = m.funcs[0].blocks[0].insts[0].id;
        assert!(info.is_nonlocal(Value::Inst(alloca_id)));
    }

    #[test]
    fn gep_into_private_array_stays_local() {
        let (m, info) = info_of(
            r#"
            fn @f() : void {
            bb0:
              %a = alloca [4 x i32]
              %e = gep [4 x i32], %a, 0, 2
              store i32 1, %e
              ret
            }
            "#,
        );
        let f = &m.funcs[0];
        let gep = f.blocks[0].insts[1].id;
        assert!(!info.is_nonlocal(Value::Inst(gep)));
        assert_eq!(
            info.private_root(Value::Inst(gep)),
            Some(f.blocks[0].insts[0].id)
        );
    }

    #[test]
    fn globals_and_params_are_nonlocal() {
        let (_, info) = info_of(
            r#"
            global @g: i32 = 0
            fn @f(%p: ptr i32) : void {
            bb0:
              %v = load i32, %p
              %w = load i32, @g
              ret
            }
            "#,
        );
        assert!(info.is_nonlocal(Value::Param(0)));
        assert!(info.is_nonlocal(Value::Global(atomig_mir::GlobalId(0))));
    }

    #[test]
    fn pointer_passed_through_call_and_returned_is_nonlocal() {
        // The identity function hands the address straight back, but the
        // caller's slot already escaped at the call site, and the
        // returned pointer has no visible private root.
        let (m, _info) = info_of(
            r#"
            fn @id(%p: ptr i32) : ptr i32 {
            bb0:
              ret %p
            }
            fn @f() : i32 {
            bb0:
              %x = alloca i32
              %p = call ptr i32 @id(%x)
              store i32 1, %p
              %v = load i32, %x
              ret %v
            }
            "#,
        );
        let f = &m.funcs[1];
        let info_f = EscapeInfo::new(&f.inst_index());
        let alloca_id = f.blocks[0].insts[0].id;
        let call_id = f.blocks[0].insts[1].id;
        assert!(!info_f.is_private_slot(alloca_id));
        assert!(info_f.is_nonlocal(Value::Inst(alloca_id)));
        assert!(info_f.is_nonlocal(Value::Inst(call_id)));
        assert_eq!(info_f.private_root(Value::Inst(call_id)), None);
    }

    #[test]
    fn access_through_returned_pointer_is_nonlocal() {
        let (m, _info) = info_of(
            r#"
            global @cell: i32 = 0
            fn @mk() : ptr i32 {
            bb0:
              ret @cell
            }
            fn @f() : i32 {
            bb0:
              %p = call ptr i32 @mk()
              %v = load i32, %p
              ret %v
            }
            "#,
        );
        let info_f = EscapeInfo::new(&m.funcs[1].inst_index());
        let call_id = m.funcs[1].blocks[0].insts[0].id;
        assert!(info_f.is_nonlocal(Value::Inst(call_id)));
        assert_eq!(info_f.private_root(Value::Inst(call_id)), None);
    }

    #[test]
    fn cmpxchg_operand_escapes_the_slot() {
        // Publishing the slot's address as a cmpxchg operand makes it
        // reachable from whoever reads @owner.
        let (m, info) = info_of(
            r#"
            global @owner: ptr i32 = 0
            fn @f() : void {
            bb0:
              %x = alloca i32
              %old = cmpxchg ptr i32 @owner, %x, %x seq_cst
              ret
            }
            "#,
        );
        let alloca_id = m.funcs[0].blocks[0].insts[0].id;
        assert!(!info.is_private_slot(alloca_id));
        assert!(info.is_nonlocal(Value::Inst(alloca_id)));
    }

    #[test]
    fn escape_via_gep_of_address() {
        // Passing &x[1] to a call escapes x.
        let (m, info) = info_of(
            r#"
            fn @g(%p: ptr i32) : void {
            bb0:
              ret
            }
            fn @f() : void {
            bb0:
              %a = alloca [4 x i32]
              %e = gep [4 x i32], %a, 0, 1
              call void @g(%e)
              ret
            }
            "#,
        );
        let info_f = EscapeInfo::new(&m.funcs[1].inst_index());
        let alloca_id = m.funcs[1].blocks[0].insts[0].id;
        assert!(info_f.is_nonlocal(Value::Inst(alloca_id)));
        drop(info);
    }
}
