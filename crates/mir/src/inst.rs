//! Instructions, atomic orderings and terminators.

use crate::func::{BlockId, InstId};
use crate::module::FuncId;
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// C11-style atomic memory orderings, as they appear on LLVM memory
/// instructions.
///
/// `NotAtomic` marks a plain access. The AtoMig transformation (§3.2, §3.3)
/// upgrades detected synchronization accesses to [`Ordering::SeqCst`], which
/// an Arm backend lowers to implicit-barrier instructions (`LDAR`/`STLR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ordering {
    /// A plain, non-atomic access.
    NotAtomic,
    /// `memory_order_relaxed`.
    Relaxed,
    /// `memory_order_acquire` (loads / RMW).
    Acquire,
    /// `memory_order_release` (stores / RMW).
    Release,
    /// `memory_order_acq_rel` (RMW).
    AcqRel,
    /// `memory_order_seq_cst`.
    SeqCst,
}

impl Ordering {
    /// Returns `true` if the access is atomic at all.
    pub fn is_atomic(&self) -> bool {
        !matches!(self, Ordering::NotAtomic)
    }

    /// Returns `true` if the ordering has acquire semantics on loads.
    pub fn has_acquire(&self) -> bool {
        matches!(
            self,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// Returns `true` if the ordering has release semantics on stores.
    pub fn has_release(&self) -> bool {
        matches!(
            self,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// Parses the textual suffix used by the printer (`seq_cst`, `acq`, ...).
    pub fn from_keyword(s: &str) -> Option<Ordering> {
        Some(match s {
            "na" | "not_atomic" => Ordering::NotAtomic,
            "rlx" | "relaxed" => Ordering::Relaxed,
            "acq" | "acquire" => Ordering::Acquire,
            "rel" | "release" => Ordering::Release,
            "acq_rel" => Ordering::AcqRel,
            "sc" | "seq_cst" => Ordering::SeqCst,
            _ => return None,
        })
    }

    /// The textual keyword used by the printer.
    pub fn keyword(&self) -> &'static str {
        match self {
            Ordering::NotAtomic => "na",
            Ordering::Relaxed => "rlx",
            Ordering::Acquire => "acq",
            Ordering::Release => "rel",
            Ordering::AcqRel => "acq_rel",
            Ordering::SeqCst => "seq_cst",
        }
    }
}

impl fmt::Display for Ordering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Binary integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on zero in the interpreter).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// Textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }
}

/// Comparison predicates (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpPred {
    /// Textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<CmpPred> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => return None,
        })
    }

    /// Evaluates the predicate on two signed integers.
    pub fn eval(&self, l: i64, r: i64) -> bool {
        match self {
            CmpPred::Eq => l == r,
            CmpPred::Ne => l != r,
            CmpPred::Lt => l < r,
            CmpPred::Le => l <= r,
            CmpPred::Gt => l > r,
            CmpPred::Ge => l >= r,
        }
    }
}

/// Atomic read-modify-write operations (`atomicrmw` in LLVM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// Fetch-and-add.
    Add,
    /// Fetch-and-sub.
    Sub,
    /// Atomic exchange.
    Xchg,
    /// Fetch-and-and.
    And,
    /// Fetch-and-or.
    Or,
    /// Fetch-and-xor.
    Xor,
}

impl RmwOp {
    /// Textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            RmwOp::Add => "add",
            RmwOp::Sub => "sub",
            RmwOp::Xchg => "xchg",
            RmwOp::And => "and",
            RmwOp::Or => "or",
            RmwOp::Xor => "xor",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<RmwOp> {
        Some(match s {
            "add" => RmwOp::Add,
            "sub" => RmwOp::Sub,
            "xchg" => RmwOp::Xchg,
            "and" => RmwOp::And,
            "or" => RmwOp::Or,
            "xor" => RmwOp::Xor,
            _ => return None,
        })
    }

    /// Applies the operation, returning the new memory value.
    pub fn apply(&self, old: i64, operand: i64) -> i64 {
        match self {
            RmwOp::Add => old.wrapping_add(operand),
            RmwOp::Sub => old.wrapping_sub(operand),
            RmwOp::Xchg => operand,
            RmwOp::And => old & operand,
            RmwOp::Or => old | operand,
            RmwOp::Xor => old ^ operand,
        }
    }
}

/// Runtime intrinsics understood by the model checker and the interpreter.
///
/// These model the pthread / libc surface the paper's benchmarks use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `spawn(@fn, arg) -> tid` — start a thread running `@fn(arg)`.
    Spawn,
    /// `join(tid)` — wait for the thread to finish.
    Join,
    /// `assert(cond)` — report a violation if `cond == 0`.
    Assert,
    /// `assume(cond)` — prune executions where `cond == 0` (model checker).
    Assume,
    /// `barrier_wait(n)` — pthread-style barrier across `n` threads
    /// (Phoenix-style bulk-synchronous phases; not a memory fence).
    BarrierWait,
    /// `malloc(slots) -> ptr` — bump allocation in the flat heap.
    Malloc,
    /// `free(ptr)` — no-op in the flat heap model.
    Free,
    /// `pause()` — `cpu_relax` hint; a no-op with a tiny cost.
    Pause,
    /// A compiler-only barrier (`asm("" ::: "memory")`): no hardware
    /// effect, but kept in the IR because §6 of the paper proposes such
    /// sites as additional entry points for synchronization detection.
    CompilerBarrier,
    /// `nondet() -> i64` — an arbitrary value (model checker input).
    Nondet,
    /// `print(v)` — debug output from the interpreter.
    Print,
}

impl Builtin {
    /// Name as written in textual MIR (`call i64 @spawn(...)`).
    pub fn name(&self) -> &'static str {
        match self {
            Builtin::Spawn => "spawn",
            Builtin::Join => "join",
            Builtin::Assert => "assert",
            Builtin::Assume => "assume",
            Builtin::BarrierWait => "barrier_wait",
            Builtin::Malloc => "malloc",
            Builtin::Free => "free",
            Builtin::Pause => "pause",
            Builtin::CompilerBarrier => "compiler_barrier",
            Builtin::Nondet => "nondet",
            Builtin::Print => "print",
        }
    }

    /// Parses a builtin name.
    pub fn from_name(s: &str) -> Option<Builtin> {
        Some(match s {
            "spawn" => Builtin::Spawn,
            "join" => Builtin::Join,
            "assert" => Builtin::Assert,
            "assume" => Builtin::Assume,
            "barrier_wait" => Builtin::BarrierWait,
            "malloc" => Builtin::Malloc,
            "free" => Builtin::Free,
            "pause" => Builtin::Pause,
            "compiler_barrier" => Builtin::CompilerBarrier,
            "nondet" => Builtin::Nondet,
            "print" => Builtin::Print,
            _ => return None,
        })
    }
}

/// The target of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the module.
    Func(FuncId),
    /// A runtime intrinsic.
    Builtin(Builtin),
}

/// A single GEP index: either a compile-time constant (struct fields must
/// be constant) or a dynamic value (array subscripts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GepIndex {
    /// A constant index.
    Const(i64),
    /// A dynamically computed index.
    Dyn(Value),
}

impl GepIndex {
    /// The constant payload, if statically known.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            GepIndex::Const(c) => Some(*c),
            GepIndex::Dyn(v) => v.as_const(),
        }
    }

    /// The dynamic value, if not a constant.
    pub fn as_value(&self) -> Option<Value> {
        match self {
            GepIndex::Dyn(v) => Some(*v),
            GepIndex::Const(_) => None,
        }
    }
}

/// The operands of a compare-exchange ([`InstKind::Cmpxchg`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cmpxchg {
    /// Address operand.
    pub ptr: Value,
    /// Expected old value.
    pub expected: Value,
    /// Replacement value.
    pub new: Value,
    /// Accessed type.
    pub ty: Type,
    /// Ordering on success (failure ordering is derived).
    pub ord: Ordering,
}

/// The operation performed by an instruction.
///
/// 40 bytes, so an [`Inst`] is 48: the widest inline variants (`Store`,
/// `Rmw`) carry 38 bytes of operands, a 4-byte [`Type`] handle and flags
/// next to their tag. Rare variants whose payload would be wider keep it
/// behind a box ([`InstKind::Cmpxchg`], `Gep`'s index path).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Reserve a stack slot of `ty`; the result is its address.
    Alloca {
        /// Type of the slot.
        ty: Type,
    },
    /// Load a scalar of type `ty` from `ptr`.
    Load {
        /// Address operand.
        ptr: Value,
        /// Loaded type.
        ty: Type,
        /// Atomic ordering (`NotAtomic` for plain loads).
        ord: Ordering,
        /// C `volatile` qualifier on the access.
        volatile: bool,
    },
    /// Store scalar `val` of type `ty` to `ptr`.
    Store {
        /// Address operand.
        ptr: Value,
        /// Stored value.
        val: Value,
        /// Stored type.
        ty: Type,
        /// Atomic ordering (`NotAtomic` for plain stores).
        ord: Ordering,
        /// C `volatile` qualifier on the access.
        volatile: bool,
    },
    /// Atomic compare-exchange. The result is the *old* value read from
    /// memory; the exchange succeeded iff `old == expected`. Boxed: its
    /// three operands and type would widen every instruction by 16 bytes
    /// for a variant that is under 0.1 % of lowered code.
    Cmpxchg(Box<Cmpxchg>),
    /// Atomic read-modify-write; the result is the old value.
    Rmw {
        /// The combining operation.
        op: RmwOp,
        /// Address operand.
        ptr: Value,
        /// Operand value.
        val: Value,
        /// Accessed type.
        ty: Type,
        /// Atomic ordering.
        ord: Ordering,
    },
    /// A stand-alone explicit memory barrier (`FENCE SC` in the paper's
    /// figures; `DMB` on Arm).
    Fence {
        /// Fence ordering (the transformation only emits `SeqCst`).
        ord: Ordering,
    },
    /// Typed address arithmetic: `&base[i0].f1[i2]...`, LLVM's
    /// `getelementptr`. `base_ty` is the pointee type of `base`.
    Gep {
        /// Base pointer.
        base: Value,
        /// Pointee type of `base` (what the indices navigate).
        base_ty: Type,
        /// Index path. The first index scales by whole `base_ty` elements
        /// (as in LLVM); subsequent indices navigate into the type. A boxed
        /// slice rather than a `Vec`: the path never grows, and the spare
        /// capacity word would make `Gep` the widest variant.
        indices: Box<[GepIndex]>,
    },
    /// Binary integer arithmetic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Integer comparison producing an `i1`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Width or representation cast (zext/trunc/ptrtoint/inttoptr folded
    /// into one instruction for simplicity).
    Cast {
        /// Operand.
        value: Value,
        /// Target type.
        to: Type,
    },
    /// Call a function or builtin.
    Call {
        /// Call target.
        callee: Callee,
        /// Argument values.
        args: Vec<Value>,
        /// Return type (`Void` for none).
        ret_ty: Type,
    },
}

impl InstKind {
    /// Returns `true` for instructions that access memory (load, store,
    /// cmpxchg, rmw). Fences are ordering-only and excluded.
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            InstKind::Load { .. }
                | InstKind::Store { .. }
                | InstKind::Cmpxchg { .. }
                | InstKind::Rmw { .. }
        )
    }

    /// Returns `true` for stores, cmpxchg and RMW (anything that can write).
    pub fn may_write(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. } | InstKind::Cmpxchg { .. } | InstKind::Rmw { .. }
        )
    }

    /// Returns `true` if the instruction defines a result (`%tN`) that
    /// other instructions may use: everything but stores, fences and
    /// calls returning `void`.
    pub fn produces_value(&self) -> bool {
        match self {
            InstKind::Store { .. } | InstKind::Fence { .. } => false,
            InstKind::Call { ret_ty, .. } => *ret_ty != Type::Void,
            _ => true,
        }
    }

    /// The address operand of a memory access, if any.
    pub fn address(&self) -> Option<Value> {
        match self {
            InstKind::Load { ptr, .. }
            | InstKind::Store { ptr, .. }
            | InstKind::Rmw { ptr, .. } => Some(*ptr),
            InstKind::Cmpxchg(c) => Some(c.ptr),
            _ => None,
        }
    }

    /// The atomic ordering of a memory access or fence, if any.
    pub fn ordering(&self) -> Option<Ordering> {
        match self {
            InstKind::Load { ord, .. }
            | InstKind::Store { ord, .. }
            | InstKind::Rmw { ord, .. }
            | InstKind::Fence { ord } => Some(*ord),
            InstKind::Cmpxchg(c) => Some(c.ord),
            _ => None,
        }
    }

    /// Upgrades the ordering of a memory access (no-op for others).
    /// Never downgrades: the new ordering is the max of old and `new_ord`.
    pub fn upgrade_ordering(&mut self, new_ord: Ordering) {
        let ord = match self {
            InstKind::Load { ord, .. }
            | InstKind::Store { ord, .. }
            | InstKind::Rmw { ord, .. }
            | InstKind::Fence { ord } => ord,
            InstKind::Cmpxchg(c) => &mut c.ord,
            _ => return,
        };
        if new_ord > *ord {
            *ord = new_ord;
        }
    }

    /// Calls `f` on each value operand, in the order of
    /// [`operands`](Self::operands), so it can rewrite them in place.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Alloca { .. } | InstKind::Fence { .. } => {}
            InstKind::Load { ptr, .. } => f(ptr),
            InstKind::Store { ptr, val, .. } | InstKind::Rmw { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            InstKind::Cmpxchg(c) => {
                f(&mut c.ptr);
                f(&mut c.expected);
                f(&mut c.new);
            }
            InstKind::Gep { base, indices, .. } => {
                f(base);
                for i in indices.iter_mut() {
                    if let GepIndex::Dyn(v) = i {
                        f(v);
                    }
                }
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Cast { value, .. } => f(value),
            InstKind::Call { args, .. } => args.iter_mut().for_each(f),
        }
    }

    /// All value operands of the instruction, in a fixed order.
    pub fn operands(&self) -> impl Iterator<Item = Value> + '_ {
        let none = [None; 3];
        let (fixed, indices, args): ([Option<Value>; 3], &[GepIndex], &[Value]) = match self {
            InstKind::Alloca { .. } | InstKind::Fence { .. } => (none, &[], &[]),
            InstKind::Load { ptr, .. } => ([Some(*ptr), None, None], &[], &[]),
            InstKind::Store { ptr, val, .. } | InstKind::Rmw { ptr, val, .. } => {
                ([Some(*ptr), Some(*val), None], &[], &[])
            }
            InstKind::Cmpxchg(c) => ([Some(c.ptr), Some(c.expected), Some(c.new)], &[], &[]),
            InstKind::Gep { base, indices, .. } => ([Some(*base), None, None], indices, &[]),
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                ([Some(*lhs), Some(*rhs), None], &[], &[])
            }
            InstKind::Cast { value, .. } => ([Some(*value), None, None], &[], &[]),
            InstKind::Call { args, .. } => (none, &[], args),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(indices.iter().filter_map(GepIndex::as_value))
            .chain(args.iter().copied())
    }
}

/// A numbered instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// Function-unique id; also the SSA name of the result (`%tN`).
    pub id: InstId,
    /// What the instruction does.
    pub kind: InstKind,
    /// Source line this instruction was lowered from (1-based MiniC line;
    /// `0` = unknown/synthesized). Printed as a ` !N` suffix and carried
    /// through inlining and transformation so diagnostics can point at
    /// source.
    pub span: u32,
}

impl Inst {
    /// An instruction with no source span.
    pub fn new(id: InstId, kind: InstKind) -> Inst {
        Inst { id, kind, span: 0 }
    }

    /// An instruction annotated with a source line.
    pub fn with_span(id: InstId, kind: InstKind, span: u32) -> Inst {
        Inst { id, kind, span }
    }
}

/// Block terminators. The default is `Unreachable`, which a new block
/// holds until the builder terminates it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` value.
    CondBr {
        /// Branch condition.
        cond: Value,
        /// Successor when `cond != 0`.
        then_bb: BlockId,
        /// Successor when `cond == 0`.
        else_bb: BlockId,
    },
    /// Return, optionally with a value.
    Ret(Option<Value>),
    /// Unreachable control flow (e.g. after `assume(false)`).
    #[default]
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let succs = match self {
            Terminator::Br(b) => [Some(*b), None],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => [Some(*then_bb), Some(*else_bb)],
            Terminator::Ret(_) | Terminator::Unreachable => [None, None],
        };
        succs.into_iter().flatten()
    }

    /// Value operands of the terminator (condition / return value).
    pub fn operands(&self) -> impl Iterator<Item = Value> {
        match self {
            Terminator::CondBr { cond, .. } => Some(*cond),
            Terminator::Ret(v) => *v,
            _ => None,
        }
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_lattice() {
        assert!(Ordering::SeqCst > Ordering::Acquire);
        assert!(Ordering::Relaxed > Ordering::NotAtomic);
        assert!(Ordering::SeqCst.has_acquire());
        assert!(Ordering::SeqCst.has_release());
        assert!(Ordering::Acquire.has_acquire());
        assert!(!Ordering::Acquire.has_release());
        assert!(!Ordering::NotAtomic.is_atomic());
    }

    #[test]
    fn ordering_keywords_roundtrip() {
        for ord in [
            Ordering::NotAtomic,
            Ordering::Relaxed,
            Ordering::Acquire,
            Ordering::Release,
            Ordering::AcqRel,
            Ordering::SeqCst,
        ] {
            assert_eq!(Ordering::from_keyword(ord.keyword()), Some(ord));
        }
        assert_eq!(Ordering::from_keyword("bogus"), None);
    }

    #[test]
    fn upgrade_never_downgrades() {
        let mut k = InstKind::Load {
            ptr: Value::Param(0),
            ty: Type::I32,
            ord: Ordering::SeqCst,
            volatile: false,
        };
        k.upgrade_ordering(Ordering::Relaxed);
        assert_eq!(k.ordering(), Some(Ordering::SeqCst));
        k.upgrade_ordering(Ordering::SeqCst);
        assert_eq!(k.ordering(), Some(Ordering::SeqCst));
    }

    #[test]
    fn upgrade_plain_to_sc() {
        let mut k = InstKind::Store {
            ptr: Value::Param(0),
            val: Value::Const(1),
            ty: Type::I32,
            ord: Ordering::NotAtomic,
            volatile: false,
        };
        k.upgrade_ordering(Ordering::SeqCst);
        assert_eq!(k.ordering(), Some(Ordering::SeqCst));
    }

    #[test]
    fn memory_classification() {
        let load = InstKind::Load {
            ptr: Value::Param(0),
            ty: Type::I32,
            ord: Ordering::NotAtomic,
            volatile: false,
        };
        assert!(load.is_memory_access());
        assert!(!load.may_write());
        let fence = InstKind::Fence {
            ord: Ordering::SeqCst,
        };
        assert!(!fence.is_memory_access());
        assert!(load.produces_value() && !fence.produces_value());
        let call = |ret_ty| InstKind::Call {
            callee: Callee::Builtin(Builtin::Nondet),
            args: vec![],
            ret_ty,
        };
        assert!(call(Type::I64).produces_value() && !call(Type::Void).produces_value());
        let rmw = InstKind::Rmw {
            op: RmwOp::Add,
            ptr: Value::Param(0),
            val: Value::Const(1),
            ty: Type::I64,
            ord: Ordering::SeqCst,
        };
        assert!(rmw.is_memory_access() && rmw.may_write());
    }

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwOp::Add.apply(5, 3), 8);
        assert_eq!(RmwOp::Xchg.apply(5, 3), 3);
        assert_eq!(RmwOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(RmwOp::Sub.apply(i64::MIN, 1), i64::MAX);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpPred::Lt.eval(-1, 0));
        assert!(CmpPred::Ge.eval(3, 3));
        assert!(!CmpPred::Ne.eval(7, 7));
    }

    #[test]
    fn operand_collection() {
        let gep = InstKind::Gep {
            base: Value::Param(0),
            base_ty: Type::I32,
            indices: [GepIndex::Const(0), GepIndex::Dyn(Value::Inst(InstId(4)))].into(),
        };
        let ops = |k: &InstKind| k.operands().collect::<Vec<_>>();
        assert_eq!(ops(&gep), [Value::Param(0), Value::Inst(InstId(4))]);
        let cas = InstKind::Cmpxchg(Box::new(Cmpxchg {
            ty: Type::I64,
            ptr: Value::Param(0),
            expected: Value::Const(1),
            new: Value::Const(2),
            ord: Ordering::SeqCst,
        }));
        assert_eq!(
            ops(&cas),
            [Value::Param(0), Value::Const(1), Value::Const(2)]
        );
        let call = InstKind::Call {
            callee: Callee::Builtin(Builtin::Spawn),
            args: vec![Value::Param(1), Value::Const(7)],
            ret_ty: Type::I64,
        };
        assert_eq!(ops(&call), [Value::Param(1), Value::Const(7)]);
        assert_eq!(
            ops(&InstKind::Fence {
                ord: Ordering::SeqCst
            }),
            []
        );
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Value::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors().collect::<Vec<_>>(), [BlockId(1), BlockId(2)]);
        assert_eq!(t.operands().collect::<Vec<_>>(), [Value::Const(1)]);
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
        let ret = Terminator::Ret(Some(Value::Param(0)));
        assert_eq!(ret.operands().collect::<Vec<_>>(), [Value::Param(0)]);
    }

    #[test]
    fn builtin_names_roundtrip() {
        for b in [
            Builtin::Spawn,
            Builtin::Join,
            Builtin::Assert,
            Builtin::Assume,
            Builtin::BarrierWait,
            Builtin::Malloc,
            Builtin::Free,
            Builtin::Pause,
            Builtin::CompilerBarrier,
            Builtin::Nondet,
            Builtin::Print,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
    }
}
