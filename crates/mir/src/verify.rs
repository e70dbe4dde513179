//! A structural verifier for modules.
//!
//! Run after construction, parsing, or transformation to catch malformed IR
//! early: dangling value references, out-of-range block targets, calls with
//! wrong arity, non-scalar loads, etc.

use crate::func::{Function, InstId};
use crate::inst::{Builtin, Callee, InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
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
    let mut seen = HashSet::new();
    for f in &m.funcs {
        if !seen.insert(&f.name) {
            return Err(VerifyError {
                func: None,
                msg: format!("duplicate function name `{}`", f.name),
            });
        }
    }
    let mut seen_g = HashSet::new();
    for g in &m.globals {
        if !seen_g.insert(&g.name) {
            return Err(VerifyError {
                func: None,
                msg: format!("duplicate global name `{}`", g.name),
            });
        }
    }
    for f in &m.funcs {
        verify_function(m, f).map_err(|msg| VerifyError {
            func: Some(f.name.clone()),
            msg,
        })?;
    }
    Ok(())
}

fn verify_function(m: &Module, f: &Function) -> Result<(), String> {
    if f.blocks.is_empty() {
        return Err("function has no blocks".into());
    }
    // Collect definitions and check id uniqueness. Ids are dense below
    // `next_inst`, so the defined set is a flag vector indexed by id.
    let mut defined = vec![false; f.next_inst as usize];
    for (_, inst) in f.insts() {
        let Some(seen) = defined.get_mut(inst.id.0 as usize) else {
            return Err(format!(
                "instruction id {} not below next_inst {}",
                inst.id, f.next_inst
            ));
        };
        if std::mem::replace(seen, true) {
            return Err(format!("duplicate instruction id {}", inst.id));
        }
    }
    let is_defined = |id: InstId| defined.get(id.0 as usize).copied().unwrap_or(false);

    let check_value = |v: Value| -> Result<(), String> {
        match v {
            Value::Inst(id) if !is_defined(id) => {
                Err(format!("reference to undefined instruction {id}"))
            }
            Value::Param(i) if i as usize >= f.params.len() => {
                Err(format!("parameter index {i} out of range"))
            }
            Value::Global(g) if g.0 as usize >= m.globals.len() => {
                Err(format!("global {g} out of range"))
            }
            Value::Func(fid) if fid.0 as usize >= m.funcs.len() => {
                Err(format!("function ref {fid} out of range"))
            }
            _ => Ok(()),
        }
    };

    for (bid, inst) in f.insts() {
        for op in inst.kind.operands() {
            check_value(op).map_err(|e| format!("{e} (in {bid})"))?;
        }
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
                if let Type::Struct(sid) = base_ty {
                    if sid.0 as usize >= m.structs.len() {
                        return Err(format!("gep into unknown struct {sid} ({bid})"));
                    }
                    // Constant field indices must be in range.
                    if let Some(fi) = indices.get(1).and_then(|i| i.as_const()) {
                        let nfields = m.strukt(*sid).fields.len() as i64;
                        if fi < 0 || fi >= nfields {
                            return Err(format!(
                                "gep field index {fi} out of range for %{} ({bid})",
                                m.strukt(*sid).name
                            ));
                        }
                    }
                }
            }
            InstKind::Call { callee, args, .. } => match callee {
                Callee::Func(fid) => {
                    if fid.0 as usize >= m.funcs.len() {
                        return Err(format!("call to unknown function {fid} ({bid})"));
                    }
                    let target = m.func(*fid);
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
                    let expect = builtin_arity(*b);
                    if let Some(n) = expect {
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
    // Terminators.
    for b in f.block_ids() {
        let term = &f.block(b).term;
        for v in term.operands() {
            check_value(v).map_err(|e| format!("{e} (terminator of {b})"))?;
        }
        for succ in term.successors() {
            if succ.0 as usize >= f.blocks.len() {
                return Err(format!("branch to unknown block {succ} (from {b})"));
            }
        }
        if let Terminator::Ret(v) = term {
            match (v, &f.ret) {
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
            ty: Type::Struct(sid),
            init: vec![0],
        });
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.field_addr(
            Type::Struct(sid),
            Value::Global(crate::module::GlobalId(0)),
            5,
        );
        b.ret(None);
        m.add_func(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("out of range"));
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
