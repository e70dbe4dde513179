//! Programmatic construction of functions.

use crate::func::{Block, BlockId, Function};
use crate::inst::{
    BinOp, Builtin, Callee, CmpPred, Cmpxchg, GepIndex, Inst, InstKind, Ordering, RmwOp, Terminator,
};
use crate::types::Type;
use crate::value::Value;

/// A cursor-style builder appending instructions to a current block.
///
/// # Examples
///
/// Build the paper's Figure 1 writer (`msg = 1; flag = 1;`):
///
/// ```
/// use atomig_mir::{FunctionBuilder, Type, Value, Module, GlobalDef};
///
/// let mut m = Module::new("mp");
/// let msg = m.add_global(GlobalDef { name: "msg".into(), ty: Type::I32, init: vec![0] });
/// let flag = m.add_global(GlobalDef { name: "flag".into(), ty: Type::I32, init: vec![0] });
/// let mut b = FunctionBuilder::new("writer", vec![], Type::Void);
/// b.store(Type::I32, Value::Global(msg), Value::Const(1));
/// b.store(Type::I32, Value::Global(flag), Value::Const(1));
/// b.ret(None);
/// m.add_func(b.finish());
/// assert_eq!(m.funcs[0].inst_count(), 2);
/// ```
///
/// The current block's instructions collect in one reusable buffer and
/// move into the block as an exact-size `Vec` when the builder switches
/// away or finishes, so no block holds spare capacity.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    /// Instructions pushed since the last switch, not yet in `current`.
    pending: Vec<Inst>,
    cur_line: u32,
}

impl FunctionBuilder {
    /// Starts building a function with an empty entry block.
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret: Type) -> Self {
        let func = Function::new(name, params, ret);
        FunctionBuilder {
            func,
            current: BlockId(0),
            pending: Vec::new(),
            cur_line: 0,
        }
    }

    /// Sets the source line stamped onto subsequently pushed instructions
    /// (`0` = unknown). Lowering calls this at each statement boundary.
    pub fn set_line(&mut self, line: u32) {
        self.cur_line = line;
    }

    /// Creates a new (empty, unterminated) block and returns its id without
    /// switching to it.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::default());
        id
    }

    /// Switches the insertion point to `block`. Switching back to a block
    /// that already holds instructions appends after them.
    pub fn switch_to(&mut self, block: BlockId) {
        self.flush();
        self.current = block;
    }

    /// Moves the pending instructions to the end of the current block,
    /// growing it by exactly their number.
    fn flush(&mut self) {
        let insts = &mut self.func.block_mut(self.current).insts;
        insts.reserve_exact(self.pending.len());
        insts.append(&mut self.pending);
    }

    /// Appends an instruction of `kind`, returning its result value.
    pub fn push(&mut self, kind: InstKind) -> Value {
        let id = self.func.fresh_inst_id();
        self.pending.push(Inst::with_span(id, kind, self.cur_line));
        Value::Inst(id)
    }

    /// `alloca ty` — a stack slot.
    pub fn alloca(&mut self, ty: Type) -> Value {
        self.push(InstKind::Alloca { ty })
    }

    /// A plain (non-atomic, non-volatile) load.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.load_ord(ty, ptr, Ordering::NotAtomic, false)
    }

    /// A load with explicit ordering and volatility.
    pub fn load_ord(&mut self, ty: Type, ptr: Value, ord: Ordering, volatile: bool) -> Value {
        self.push(InstKind::Load {
            ptr,
            ty,
            ord,
            volatile,
        })
    }

    /// A plain (non-atomic, non-volatile) store.
    pub fn store(&mut self, ty: Type, ptr: Value, val: Value) {
        self.store_ord(ty, ptr, val, Ordering::NotAtomic, false);
    }

    /// A store with explicit ordering and volatility.
    pub fn store_ord(&mut self, ty: Type, ptr: Value, val: Value, ord: Ordering, volatile: bool) {
        self.push(InstKind::Store {
            ptr,
            val,
            ty,
            ord,
            volatile,
        });
    }

    /// `cmpxchg` returning the old value.
    pub fn cmpxchg(
        &mut self,
        ty: Type,
        ptr: Value,
        expected: Value,
        new: Value,
        ord: Ordering,
    ) -> Value {
        self.push(InstKind::Cmpxchg(Box::new(Cmpxchg {
            ptr,
            expected,
            new,
            ty,
            ord,
        })))
    }

    /// `atomicrmw` returning the old value.
    pub fn rmw(&mut self, op: RmwOp, ty: Type, ptr: Value, val: Value, ord: Ordering) -> Value {
        self.push(InstKind::Rmw {
            op,
            ptr,
            val,
            ty,
            ord,
        })
    }

    /// A stand-alone fence.
    pub fn fence(&mut self, ord: Ordering) {
        self.push(InstKind::Fence { ord });
    }

    /// A `gep` with arbitrary indices.
    pub fn gep(&mut self, base_ty: Type, base: Value, indices: Vec<GepIndex>) -> Value {
        self.push(InstKind::Gep {
            base,
            base_ty,
            indices: indices.into_boxed_slice(),
        })
    }

    /// `&base[0].field` — the common struct-field address pattern.
    pub fn field_addr(&mut self, struct_ty: Type, base: Value, field: u32) -> Value {
        self.gep(
            struct_ty,
            base,
            vec![GepIndex::Const(0), GepIndex::Const(field as i64)],
        )
    }

    /// Binary arithmetic.
    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        self.push(InstKind::Bin { op, lhs, rhs })
    }

    /// Comparison.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        self.push(InstKind::Cmp { pred, lhs, rhs })
    }

    /// Cast.
    pub fn cast(&mut self, value: Value, to: Type) -> Value {
        self.push(InstKind::Cast { value, to })
    }

    /// A direct call.
    pub fn call(&mut self, callee: Callee, args: Vec<Value>, ret_ty: Type) -> Value {
        self.push(InstKind::Call {
            callee,
            args,
            ret_ty,
        })
    }

    /// A builtin call.
    pub fn call_builtin(&mut self, b: Builtin, args: Vec<Value>, ret_ty: Type) -> Value {
        self.call(Callee::Builtin(b), args, ret_ty)
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.func.block_mut(self.current).term = Terminator::Br(target);
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.func.block_mut(self.current).term = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, val: Option<Value>) {
        self.func.block_mut(self.current).term = Terminator::Ret(val);
    }

    /// Marks the current block unreachable.
    pub fn unreachable(&mut self) {
        self.func.block_mut(self.current).term = Terminator::Unreachable;
    }

    /// Whether the current block already has a real terminator.
    pub fn is_terminated(&self) -> bool {
        !matches!(self.func.block(self.current).term, Terminator::Unreachable)
    }

    /// Finishes and returns the function.
    pub fn finish(mut self) -> Function {
        self.flush();
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinloop_shape() {
        // while (flag != 1) ;  with flag as param pointer
        let mut b = FunctionBuilder::new(
            "spin",
            vec![("flag".into(), Type::ptr_to(Type::I32))],
            Type::Void,
        );
        let header = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let v = b.load(Type::I32, Value::Param(0));
        let c = b.cmp(CmpPred::Ne, v, Value::Const(1));
        b.cond_br(c, header, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.inst_count(), 2);
        assert_eq!(
            f.block(BlockId(1)).term.successors().collect::<Vec<_>>(),
            [BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn terminated_flag() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        assert!(!b.is_terminated());
        b.ret(None);
        assert!(b.is_terminated());
    }

    #[test]
    fn field_addr_emits_two_const_indices() {
        let mut b =
            FunctionBuilder::new("f", vec![("p".into(), Type::ptr_to(Type::I64))], Type::Void);
        let addr = b.field_addr(Type::I64, Value::Param(0), 2);
        b.ret(None);
        let f = b.finish();
        let id = addr.as_inst().unwrap();
        let idx = f.inst_index();
        match idx.get(id).unwrap() {
            InstKind::Gep { indices, .. } => {
                assert_eq!(indices.len(), 2);
                assert_eq!(indices[1].as_const(), Some(2));
            }
            other => panic!("expected gep, got {other:?}"),
        }
    }
}
