//! A structural verifier for modules.
//!
//! Run after construction, parsing, or transformation to catch malformed IR
//! early: dangling value references, uses of instructions that produce no
//! value, out-of-range block targets, calls with wrong arity, non-scalar
//! loads, etc.
//!
//! Each function is checked in three tight loops: one over instruction
//! ids, one over instructions (operands first, then the instruction's own
//! checks) and one over terminators. The first problem in that order is
//! the one reported.

use crate::func::Function;
use crate::fxhash::FxBuild;
use crate::inst::{Builtin, Callee, GepIndex, InstKind, Terminator};
use crate::module::Module;
use crate::types::{Type, TypeKind};
use crate::value::Value;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found (if any).
    pub func: Option<String>,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in @{}: {}", name, self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl Error for VerifyError {}

/// Verifies structural well-formedness of a module.
///
/// # Errors
///
/// Returns the first problem found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    // Unique names.
    let mut seen: HashSet<&str, FxBuild> = HashSet::default();
    seen.reserve(m.funcs.len().max(m.globals.len()));
    for f in &m.funcs {
        if !seen.insert(&f.name) {
            return Err(VerifyError {
                func: None,
                msg: format!("duplicate function name `{}`", f.name),
            });
        }
    }
    seen.clear();
    for g in &m.globals {
        if !seen.insert(&g.name) {
            return Err(VerifyError {
                func: None,
                msg: format!("duplicate global name `{}`", g.name),
            });
        }
    }
    let mut defined = Vec::new();
    for f in &m.funcs {
        verify_function(m, f, &mut defined).map_err(|msg| VerifyError {
            func: Some(f.name.clone()),
            msg,
        })?;
    }
    Ok(())
}

/// What an instruction id names, in the verifier's `defined` table.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Def {
    /// No instruction has the id.
    Undefined,
    /// A store, fence or void call: nothing may use it.
    NoValue,
    /// An instruction with a result.
    Value,
}

/// Checks operands against one function's definitions.
struct Operands<'a> {
    defined: &'a [Def],
    params: usize,
    globals: usize,
    funcs: usize,
}

impl Operands<'_> {
    fn check(&self, v: Value) -> Result<(), String> {
        match v {
            Value::Inst(id) => match self.defined.get(id.0 as usize) {
                Some(Def::Value) => Ok(()),
                Some(Def::NoValue) => Err(format!("use of {id}, which produces no value")),
                _ => Err(format!("reference to undefined instruction {id}")),
            },
            Value::Param(i) if i as usize >= self.params => {
                Err(format!("parameter index {i} out of range"))
            }
            Value::Global(g) if g.0 as usize >= self.globals => {
                Err(format!("global {g} out of range"))
            }
            Value::Func(fid) if fid.0 as usize >= self.funcs => {
                Err(format!("function ref {fid} out of range"))
            }
            _ => Ok(()),
        }
    }

    /// Checks `kind`'s operands in [`InstKind::operands`] order.
    fn check_inst(&self, kind: &InstKind) -> Result<(), String> {
        match kind {
            InstKind::Alloca { .. } | InstKind::Fence { .. } => Ok(()),
            InstKind::Load { ptr, .. } => self.check(*ptr),
            InstKind::Store { ptr, val, .. } | InstKind::Rmw { ptr, val, .. } => {
                self.check(*ptr)?;
                self.check(*val)
            }
            InstKind::Cmpxchg(c) => {
                self.check(c.ptr)?;
                self.check(c.expected)?;
                self.check(c.new)
            }
            InstKind::Gep { base, indices, .. } => {
                self.check(*base)?;
                for i in indices.iter() {
                    if let GepIndex::Dyn(v) = i {
                        self.check(*v)?;
                    }
                }
                Ok(())
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                self.check(*lhs)?;
                self.check(*rhs)
            }
            InstKind::Cast { value, .. } => self.check(*value),
            InstKind::Call { args, .. } => args.iter().try_for_each(|&a| self.check(a)),
        }
    }
}

/// Verifies one function; `defined` is scratch space reused across
/// functions.
fn verify_function(m: &Module, f: &Function, defined: &mut Vec<Def>) -> Result<(), String> {
    if f.blocks.is_empty() {
        return Err("function has no blocks".into());
    }
    // Collect definitions and check id uniqueness. Ids are dense below
    // `next_inst`, so the table is indexed by id.
    defined.clear();
    defined.resize(f.next_inst as usize, Def::Undefined);
    for b in &f.blocks {
        for inst in &b.insts {
            let Some(seen) = defined.get_mut(inst.id.0 as usize) else {
                return Err(format!(
                    "instruction id {} not below next_inst {}",
                    inst.id, f.next_inst
                ));
            };
            if *seen != Def::Undefined {
                return Err(format!("duplicate instruction id {}", inst.id));
            }
            *seen = if inst.kind.produces_value() {
                Def::Value
            } else {
                Def::NoValue
            };
        }
    }
    let ops = Operands {
        defined,
        params: f.params.len(),
        globals: m.globals.len(),
        funcs: m.funcs.len(),
    };

    for (bid, b) in f.block_ids().zip(&f.blocks) {
        for inst in &b.insts {
            ops.check_inst(&inst.kind)
                .map_err(|e| format!("{e} (in {bid})"))?;
            match &inst.kind {
                InstKind::Load { ty, .. } if !ty.is_scalar() => {
                    return Err(format!("load of non-scalar type {ty} ({bid})"));
                }
                InstKind::Store { ty, .. } if !ty.is_scalar() => {
                    return Err(format!("store of non-scalar type {ty} ({bid})"));
                }
                InstKind::Rmw { ty, .. } if !ty.is_scalar() => {
                    return Err(format!("atomic access of non-scalar type {ty} ({bid})"));
                }
                InstKind::Cmpxchg(c) if !c.ty.is_scalar() => {
                    return Err(format!("atomic access of non-scalar type {} ({bid})", c.ty));
                }
                InstKind::Gep {
                    base_ty, indices, ..
                } => {
                    if indices.is_empty() {
                        return Err(format!("gep with no indices ({bid})"));
                    }
                    if let TypeKind::Struct(sid) = base_ty.kind() {
                        if sid.0 as usize >= m.structs.len() {
                            return Err(format!("gep into unknown struct {sid} ({bid})"));
                        }
                        // Constant field indices must be in range.
                        if let Some(fi) = indices.get(1).and_then(|i| i.as_const()) {
                            let nfields = m.strukt(sid).fields.len() as i64;
                            if fi < 0 || fi >= nfields {
                                return Err(format!(
                                    "gep field index {fi} out of range for %{} ({bid})",
                                    m.strukt(sid).name
                                ));
                            }
                        }
                    }
                }
                InstKind::Call { callee, args, .. } => match callee {
                    Callee::Func(fid) => {
                        let Some(target) = m.funcs.get(fid.0 as usize) else {
                            return Err(format!("call to unknown function {fid} ({bid})"));
                        };
                        if target.params.len() != args.len() {
                            return Err(format!(
                                "call to @{} with {} args, expected {} ({bid})",
                                target.name,
                                args.len(),
                                target.params.len()
                            ));
                        }
                    }
                    Callee::Builtin(b) => {
                        if let Some(n) = builtin_arity(*b) {
                            if args.len() != n {
                                return Err(format!(
                                    "builtin @{} takes {n} args, got {} ({bid})",
                                    b.name(),
                                    args.len()
                                ));
                            }
                        }
                    }
                },
                _ => {}
            }
        }
    }
    // Terminators.
    let nblocks = f.blocks.len();
    for (b, block) in f.block_ids().zip(&f.blocks) {
        let term = &block.term;
        let (operand, succs) = match *term {
            Terminator::Br(t) => (None, [Some(t), None]),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => (Some(cond), [Some(then_bb), Some(else_bb)]),
            Terminator::Ret(v) => (v, [None, None]),
            Terminator::Unreachable => (None, [None, None]),
        };
        if let Some(v) = operand {
            ops.check(v)
                .map_err(|e| format!("{e} (terminator of {b})"))?;
        }
        for succ in succs.into_iter().flatten() {
            if succ.0 as usize >= nblocks {
                return Err(format!("branch to unknown block {succ} (from {b})"));
            }
        }
        if let Terminator::Ret(v) = term {
            match (v, f.ret) {
                (None, Type::Void) => {}
                (Some(_), Type::Void) => {
                    return Err(format!("returning a value from a void function ({b})"))
                }
                (None, _) => return Err(format!("missing return value ({b})")),
                (Some(_), _) => {}
            }
        }
    }
    Ok(())
}

fn builtin_arity(b: Builtin) -> Option<usize> {
    Some(match b {
        Builtin::Spawn => 2,
        Builtin::Join => 1,
        Builtin::Assert => 1,
        Builtin::Assume => 1,
        Builtin::BarrierWait => 1,
        Builtin::Malloc => 1,
        Builtin::Free => 1,
        Builtin::Pause => 0,
        Builtin::CompilerBarrier => 0,
        Builtin::Nondet => 0,
        Builtin::Print => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::InstId;
    use crate::inst::{BinOp, Ordering};
    use crate::module::GlobalDef;
    use crate::parse_module;

    #[test]
    fn accepts_wellformed_module() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @main() : i32 {
            bb0:
              %v = load i32, @x
              ret %v
            }
            "#,
        )
        .unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_duplicate_function_names() {
        let mut m = Module::new("m");
        m.add_func(Function::new("f", vec![], Type::Void));
        m.add_func(Function::new("f", vec![], Type::Void));
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("duplicate function"));
    }

    #[test]
    fn rejects_dangling_value() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        // Reference an instruction id that is never defined.
        b.store(Type::I32, Value::Inst(InstId(99)), Value::Const(0));
        b.ret(None);
        let mut f = b.finish();
        f.next_inst = 100;
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("undefined instruction"));
    }

    #[test]
    fn rejects_out_of_range_param() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.store(Type::I32, Value::Param(3), Value::Const(0));
        b.ret(None);
        m.add_func(b.finish());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut m = Module::new("m");
        m.add_func(Function::new(
            "callee",
            vec![("a".into(), Type::I32)],
            Type::Void,
        ));
        let mut b = FunctionBuilder::new("caller", vec![], Type::Void);
        b.call(Callee::Func(crate::module::FuncId(0)), vec![], Type::Void);
        b.ret(None);
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("args"));
    }

    #[test]
    fn rejects_void_return_mismatch() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        b.ret(None);
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("missing return value"));
    }

    #[test]
    fn rejects_gep_field_out_of_range() {
        let mut m = Module::new("m");
        let sid = m.add_struct(crate::module::StructDef {
            name: "S".into(),
            fields: vec![Type::I32],
        });
        m.add_global(GlobalDef {
            name: "s".into(),
            ty: Type::struct_of(sid),
            init: vec![0],
        });
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.field_addr(
            Type::struct_of(sid),
            Value::Global(crate::module::GlobalId(0)),
            5,
        );
        b.ret(None);
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("out of range"));
    }

    #[test]
    fn rejects_uses_of_instructions_without_a_value() {
        // `ret %t0` naming a store: the printed text would not parse, and
        // the checker would read the missing value as 0.
        let mut m = Module::new("m");
        let params = vec![("p".to_string(), Type::ptr_to(Type::I64))];
        let mut b = FunctionBuilder::new("main", params, Type::I64);
        b.store(Type::I64, Value::Param(0), Value::Const(1));
        b.ret(Some(Value::Inst(InstId(0))));
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert_eq!(
            err.to_string(),
            "in @main: use of %t0, which produces no value (terminator of bb0)"
        );

        // A fence and a void call as operands of later instructions.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.fence(Ordering::SeqCst);
        b.bin(BinOp::Add, Value::Inst(InstId(0)), Value::Const(1));
        b.ret(None);
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert_eq!(err.msg, "use of %t0, which produces no value (in bb0)");

        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let call = b.call_builtin(Builtin::Pause, vec![], Type::Void);
        b.ret(Some(call));
        m.add_func(b.finish());
        assert!(verify_module(&m)
            .unwrap_err()
            .msg
            .contains("which produces no value"));

        // A call with a result is a value.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let call = b.call_builtin(Builtin::Nondet, vec![], Type::I64);
        b.ret(Some(call));
        m.add_func(b.finish());
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_builtin_arity() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.call_builtin(Builtin::Assert, vec![], Type::Void);
        b.ret(None);
        m.add_func(b.finish());
        assert!(verify_module(&m).is_err());
    }
}
