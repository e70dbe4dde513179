//! A precompiled, allocation-free runtime representation of a module.
//!
//! Executing [`atomig_mir::InstKind`] directly would clone types, GEP
//! index vectors and call argument lists on every executed instruction.
//! [`CompiledProgram`] resolves all of that once per module: GEPs become
//! `base + Σ const + Σ value·stride`, casts become masks, allocas become
//! slot counts. The interpreter and model checker then execute without
//! touching the heap per instruction.
//!
//! Only value-producing instructions get a register, numbered densely: a
//! [`CInst`]'s `id` and its `Value::Inst` operands name registers.

use crate::mem::Layout;
use atomig_mir::{
    BinOp, BlockId, Builtin, Callee, CmpPred, FuncId, Function, GepIndex, InstId, InstKind, Module,
    Ordering, RmwOp, Terminator, Type, TypeKind, Value,
};

/// One dynamic GEP term: `eval(value) * stride`.
#[derive(Debug, Clone, Copy)]
pub struct DynTerm {
    /// The index value.
    pub value: Value,
    /// Slots per index step.
    pub stride: i64,
}

/// A precompiled instruction.
#[derive(Debug, Clone)]
pub enum CInst {
    /// Stack slot reservation.
    Alloca {
        /// Result register.
        id: InstId,
        /// Slot count.
        slots: u64,
    },
    /// Memory load.
    Load {
        /// Result register.
        id: InstId,
        /// Address operand.
        ptr: Value,
        /// Atomic ordering.
        ord: Ordering,
    },
    /// Memory store.
    Store {
        /// Address operand.
        ptr: Value,
        /// Value operand.
        val: Value,
        /// Atomic ordering.
        ord: Ordering,
    },
    /// Compare-exchange (result = old value).
    Cmpxchg {
        /// Result register.
        id: InstId,
        /// Address operand.
        ptr: Value,
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
        /// Atomic ordering.
        ord: Ordering,
    },
    /// Read-modify-write (result = old value).
    Rmw {
        /// Result register.
        id: InstId,
        /// Combining operation.
        op: RmwOp,
        /// Address operand.
        ptr: Value,
        /// Operand value.
        val: Value,
        /// Atomic ordering.
        ord: Ordering,
    },
    /// Explicit fence.
    Fence {
        /// Ordering.
        ord: Ordering,
    },
    /// Resolved address arithmetic.
    Gep {
        /// Result register.
        id: InstId,
        /// Base pointer.
        base: Value,
        /// Compile-time slot offset.
        const_off: i64,
        /// Dynamic terms.
        dyn_terms: Box<[DynTerm]>,
    },
    /// Binary arithmetic.
    Bin {
        /// Result register.
        id: InstId,
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Comparison.
    Cmp {
        /// Result register.
        id: InstId,
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Width cast (mask application).
    Cast {
        /// Result register.
        id: InstId,
        /// Operand.
        value: Value,
        /// Truncation mask.
        mask: u64,
    },
    /// Direct call.
    CallFunc {
        /// Result register (None for void).
        id: Option<InstId>,
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Box<[Value]>,
    },
    /// Builtin call.
    CallBuiltin {
        /// Result register (None for void).
        id: Option<InstId>,
        /// Which builtin.
        builtin: Builtin,
        /// Arguments.
        args: Box<[Value]>,
    },
}

/// A precompiled terminator (fully `Copy`).
#[derive(Debug, Clone, Copy)]
pub enum CTerm {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch.
    CondBr {
        /// Condition value.
        cond: Value,
        /// Taken when non-zero.
        then_bb: BlockId,
        /// Taken when zero.
        else_bb: BlockId,
    },
    /// Return.
    Ret(Option<Value>),
    /// Unreachable.
    Unreachable,
}

/// A precompiled block.
#[derive(Debug, Clone)]
pub struct CBlock {
    /// Instructions.
    pub insts: Vec<CInst>,
    /// Terminator.
    pub term: CTerm,
}

/// A precompiled function.
#[derive(Debug, Clone)]
pub struct CFunc {
    /// Blocks, entry first.
    pub blocks: Vec<CBlock>,
    /// Register file size: the number of value-producing instructions.
    pub n_regs: u32,
    /// Function name (diagnostics).
    pub name: String,
}

/// A precompiled module.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Functions by id.
    pub funcs: Vec<CFunc>,
}

impl CompiledProgram {
    /// Compiles `module` against `layout`.
    pub fn compile(module: &Module, layout: &Layout) -> CompiledProgram {
        let funcs = module
            .funcs
            .iter()
            .map(|f| {
                let (regs, n_regs) = Registers::number(f);
                let blocks = f
                    .blocks
                    .iter()
                    .map(|b| CBlock {
                        insts: b
                            .insts
                            .iter()
                            .map(|i| {
                                let mut kind = i.kind.clone();
                                kind.for_each_operand_mut(|v| *v = regs.value(*v));
                                compile_inst(module, layout, regs.id(i.id), &kind)
                            })
                            .collect(),
                        term: compile_term(&regs, &b.term),
                    })
                    .collect();
                CFunc {
                    blocks,
                    n_regs,
                    name: f.name.clone(),
                }
            })
            .collect();
        CompiledProgram { funcs }
    }
}

/// A function's dense register numbers, indexed by instruction id: each
/// value-producing instruction's register, counted in layout order. Any
/// other id maps to `u32::MAX`, which reads 0, as a register never
/// written does.
struct Registers(Vec<u32>);

impl Registers {
    /// The numbering of `f` and its register count.
    fn number(f: &Function) -> (Registers, u32) {
        let mut of = vec![u32::MAX; f.next_inst as usize];
        let mut count = 0;
        for (_, inst) in f.insts() {
            let value = inst.kind.produces_value();
            if let Some(reg) = of.get_mut(inst.id.0 as usize).filter(|_| value) {
                *reg = count;
                count += 1;
            }
        }
        (Registers(of), count)
    }

    fn id(&self, id: InstId) -> InstId {
        InstId(self.0.get(id.0 as usize).copied().unwrap_or(u32::MAX))
    }

    /// `v` with an instruction operand renamed to its register.
    fn value(&self, v: Value) -> Value {
        match v {
            Value::Inst(id) => Value::Inst(self.id(id)),
            other => other,
        }
    }
}

fn compile_term(regs: &Registers, t: &Terminator) -> CTerm {
    match t {
        Terminator::Br(b) => CTerm::Br(*b),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => CTerm::CondBr {
            cond: regs.value(*cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        Terminator::Ret(v) => CTerm::Ret(v.map(|v| regs.value(v))),
        Terminator::Unreachable => CTerm::Unreachable,
    }
}

fn compile_inst(module: &Module, layout: &Layout, id: InstId, kind: &InstKind) -> CInst {
    match kind {
        InstKind::Alloca { ty, .. } => CInst::Alloca {
            id,
            slots: layout.slots(*ty).max(1),
        },
        InstKind::Load { ptr, ord, .. } => CInst::Load {
            id,
            ptr: *ptr,
            ord: *ord,
        },
        InstKind::Store { ptr, val, ord, .. } => CInst::Store {
            ptr: *ptr,
            val: *val,
            ord: *ord,
        },
        InstKind::Cmpxchg(c) => CInst::Cmpxchg {
            id,
            ptr: c.ptr,
            expected: c.expected,
            new: c.new,
            ord: c.ord,
        },
        InstKind::Rmw {
            op, ptr, val, ord, ..
        } => CInst::Rmw {
            id,
            op: *op,
            ptr: *ptr,
            val: *val,
            ord: *ord,
        },
        InstKind::Fence { ord } => CInst::Fence { ord: *ord },
        InstKind::Gep {
            base,
            base_ty,
            indices,
        } => {
            let (const_off, dyn_terms) = compile_gep(module, layout, *base_ty, indices);
            CInst::Gep {
                id,
                base: *base,
                const_off,
                dyn_terms: dyn_terms.into_boxed_slice(),
            }
        }
        InstKind::Bin { op, lhs, rhs } => CInst::Bin {
            id,
            op: *op,
            lhs: *lhs,
            rhs: *rhs,
        },
        InstKind::Cmp { pred, lhs, rhs } => CInst::Cmp {
            id,
            pred: *pred,
            lhs: *lhs,
            rhs: *rhs,
        },
        InstKind::Cast { value, to } => CInst::Cast {
            id,
            value: *value,
            mask: to.value_mask(),
        },
        InstKind::Call {
            callee,
            args,
            ret_ty,
        } => match callee {
            Callee::Func(f) => CInst::CallFunc {
                id: (*ret_ty != Type::Void).then_some(id),
                func: *f,
                args: args.clone().into_boxed_slice(),
            },
            Callee::Builtin(b) => CInst::CallBuiltin {
                id: (*ret_ty != Type::Void).then_some(id),
                builtin: *b,
                args: args.clone().into_boxed_slice(),
            },
        },
    }
}

/// Resolves a GEP into `const_off + Σ eval(v)·stride`.
fn compile_gep(
    module: &Module,
    layout: &Layout,
    base_ty: Type,
    indices: &[GepIndex],
) -> (i64, Vec<DynTerm>) {
    let mut const_off: i64 = 0;
    let mut dyn_terms = Vec::new();
    let mut cur = base_ty;
    for (i, idx) in indices.iter().enumerate() {
        let next = match cur.kind() {
            _ if i == 0 => cur,
            TypeKind::Struct(sid) => {
                // Struct field indices are structurally constant.
                let fi = idx.as_const().unwrap_or(0).max(0) as usize;
                let fields = &module.strukt(sid).fields;
                let fi = fi.min(fields.len().saturating_sub(1));
                let prefix: u64 = fields[..fi].iter().map(|&t| layout.slots(t)).sum();
                const_off += prefix as i64;
                cur = fields[fi];
                continue;
            }
            TypeKind::Array(elem, _) => elem,
            _ => cur,
        };
        let stride = layout.slots(next).max(1) as i64;
        match idx.as_const() {
            Some(c) => const_off += c * stride,
            None => dyn_terms.push(DynTerm {
                value: idx.as_value().expect("non-const index has a value"),
                stride,
            }),
        }
        cur = next;
    }
    (const_off, dyn_terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    #[test]
    fn gep_compiles_to_offsets() {
        let m = parse_module(
            r#"
            struct %Node { i64, i64, [4 x i32] }
            struct %Inner { i32, i32 }
            struct %Outer { i64, %Inner, [3 x i32] }
            fn @f(%n: ptr %Node, %i: i64) : void {
            bb0:
              %a = gep %Node, %n, 0, 1
              %b = gep %Node, %n, 0, 2, %i
              %c = gep %Node, %n, 1, 0
              ret
            }
            fn @g(%o: ptr %Outer) : void {
            bb0:
              %a = gep %Outer, %o, 0, 0
              %b = gep %Outer, %o, 0, 1, 1
              %c = gep %Outer, %o, 0, 2, 2
              %d = gep %Outer, %o, 1, 0
              ret
            }
            "#,
        )
        .unwrap();
        let layout = Layout::new(&m);
        let p = CompiledProgram::compile(&m, &layout);
        let insts = &p.funcs[0].blocks[0].insts;
        match &insts[0] {
            CInst::Gep {
                const_off,
                dyn_terms,
                ..
            } => {
                assert_eq!(*const_off, 1);
                assert!(dyn_terms.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &insts[1] {
            CInst::Gep {
                const_off,
                dyn_terms,
                ..
            } => {
                assert_eq!(*const_off, 2);
                assert_eq!(dyn_terms.len(), 1);
                assert_eq!(dyn_terms[0].stride, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &insts[2] {
            CInst::Gep { const_off, .. } => {
                // Node is 6 slots: [1].field0 = 6.
                assert_eq!(*const_off, 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Constant paths through a nested struct and an array; Outer is
        // 1 + 2 + 3 = 6 slots: .0 = 0, .inner.1 = 2, .arr[2] = 5, [1].0 = 6.
        let offsets: Vec<i64> = p.funcs[1].blocks[0]
            .insts
            .iter()
            .map(|i| match i {
                CInst::Gep {
                    const_off,
                    dyn_terms,
                    ..
                } if dyn_terms.is_empty() => *const_off,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(offsets, [0, 2, 5, 6]);
    }

    #[test]
    fn only_value_producing_instructions_get_registers() {
        let m = parse_module(
            r#"
            global @g: i64 = 0
            fn @f(%x: i64) : i64 {
            bb0:
              %a = alloca i64
              store i64 %x, %a
              fence seq_cst
              call void @pause()
              %v = load i64, %a
              call void @assert(%v)
              %s = add %v, %x
              condbr %s, bb1, bb1
            bb1:
              store i64 %s, @g
              ret %s
            }
            "#,
        )
        .unwrap();
        let layout = Layout::new(&m);
        let p = CompiledProgram::compile(&m, &layout);
        let f = &p.funcs[0];
        // alloca, load and add: three of eight instructions.
        assert_eq!(m.funcs[0].next_inst, 8);
        assert_eq!(f.n_regs, 3);
        let insts = &f.blocks[0].insts;
        assert!(matches!(insts[3], CInst::CallBuiltin { id: None, .. }));
        match &insts[6] {
            CInst::Bin { id, lhs, .. } => {
                assert_eq!(*id, InstId(2));
                assert_eq!(*lhs, Value::Inst(InstId(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            f.blocks[0].term,
            CTerm::CondBr {
                cond: Value::Inst(InstId(2)),
                ..
            }
        ));
        assert!(matches!(
            f.blocks[1].insts[0],
            CInst::Store {
                val: Value::Inst(InstId(2)),
                ..
            }
        ));
        assert!(matches!(
            f.blocks[1].term,
            CTerm::Ret(Some(Value::Inst(InstId(2))))
        ));
    }

    #[test]
    fn casts_compile_to_masks() {
        let m = parse_module(
            r#"
            fn @f(%x: i64) : void {
            bb0:
              %a = cast %x to i8
              ret
            }
            "#,
        )
        .unwrap();
        let layout = Layout::new(&m);
        let p = CompiledProgram::compile(&m, &layout);
        match &p.funcs[0].blocks[0].insts[0] {
            CInst::Cast { mask, .. } => assert_eq!(*mask, 0xff),
            other => panic!("unexpected {other:?}"),
        }
    }
}
