//! A bottom-up function inliner.
//!
//! The paper inlines functions "where possible beforehand" so that loops
//! spanning multiple functions become visible to the intra-procedural
//! spinloop analysis (§3.5). This inliner processes callees before callers
//! and inlines direct calls to small, non-recursive functions.

use crate::callgraph::CallGraph;
use atomig_mir::{
    Block, BlockId, Callee, FuncId, Function, GepIndex, Inst, InstId, InstKind, Module, Terminator,
    Type, Value,
};

/// Inlining thresholds.
#[derive(Debug, Clone)]
pub struct InlineOptions {
    /// Maximum callee size (instructions) eligible for inlining.
    pub max_callee_insts: usize,
    /// Maximum caller size; callers beyond this stop growing.
    pub max_caller_insts: usize,
    /// Fixpoint rounds (inlining exposes new call sites).
    pub max_rounds: u32,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            max_callee_insts: 80,
            max_caller_insts: 50_000,
            max_rounds: 4,
        }
    }
}

/// Inlines eligible call sites module-wide. Returns the number of call
/// sites inlined.
pub fn inline_module(m: &mut Module, opts: &InlineOptions) -> usize {
    let mut total = 0;
    for _ in 0..opts.max_rounds {
        let cg = CallGraph::new(m);
        let order = cg.bottom_up_order();
        let mut round = 0;
        for fid in order {
            round += inline_into(m, fid, &cg, opts);
        }
        if round == 0 {
            break;
        }
        total += round;
    }
    total
}

/// Inlines eligible call sites inside one caller. Returns count inlined.
fn inline_into(m: &mut Module, caller_id: FuncId, cg: &CallGraph, opts: &InlineOptions) -> usize {
    let mut count = 0;
    loop {
        if m.func(caller_id).inst_count() >= opts.max_caller_insts {
            return count;
        }
        // Find the next eligible call site.
        let site = find_site(m, caller_id, cg, opts);
        let (block, pos, callee_id) = match site {
            Some(s) => s,
            None => return count,
        };
        inline_one(m, caller_id, block, pos, callee_id);
        count += 1;
    }
}

fn find_site(
    m: &Module,
    caller_id: FuncId,
    cg: &CallGraph,
    opts: &InlineOptions,
) -> Option<(BlockId, usize, FuncId)> {
    let caller = m.func(caller_id);
    for b in caller.block_ids() {
        for (pos, inst) in caller.block(b).insts.iter().enumerate() {
            if let InstKind::Call {
                callee: Callee::Func(target),
                ..
            } = &inst.kind
            {
                if *target == caller_id || cg.is_recursive(*target) {
                    continue;
                }
                let callee = m.func(*target);
                if callee.inst_count() <= opts.max_callee_insts && !callee.blocks.is_empty() {
                    return Some((b, pos, *target));
                }
            }
        }
    }
    None
}

fn remap_value(v: Value, args: &[Value], inst_off: u32) -> Value {
    match v {
        Value::Param(i) => args[i as usize],
        Value::Inst(id) => Value::Inst(InstId(id.0 + inst_off)),
        other => other,
    }
}

fn remap_kind(kind: &InstKind, args: &[Value], inst_off: u32) -> InstKind {
    let r = |v: Value| remap_value(v, args, inst_off);
    match kind {
        InstKind::Alloca { ty, name } => InstKind::Alloca {
            ty: ty.clone(),
            name: name.clone(),
        },
        InstKind::Load {
            ptr,
            ty,
            ord,
            volatile,
        } => InstKind::Load {
            ptr: r(*ptr),
            ty: ty.clone(),
            ord: *ord,
            volatile: *volatile,
        },
        InstKind::Store {
            ptr,
            val,
            ty,
            ord,
            volatile,
        } => InstKind::Store {
            ptr: r(*ptr),
            val: r(*val),
            ty: ty.clone(),
            ord: *ord,
            volatile: *volatile,
        },
        InstKind::Cmpxchg {
            ptr,
            expected,
            new,
            ty,
            ord,
        } => InstKind::Cmpxchg {
            ptr: r(*ptr),
            expected: r(*expected),
            new: r(*new),
            ty: ty.clone(),
            ord: *ord,
        },
        InstKind::Rmw {
            op,
            ptr,
            val,
            ty,
            ord,
        } => InstKind::Rmw {
            op: *op,
            ptr: r(*ptr),
            val: r(*val),
            ty: ty.clone(),
            ord: *ord,
        },
        InstKind::Fence { ord } => InstKind::Fence { ord: *ord },
        InstKind::Gep {
            base,
            base_ty,
            indices,
        } => InstKind::Gep {
            base: r(*base),
            base_ty: base_ty.clone(),
            indices: indices
                .iter()
                .map(|i| match i {
                    GepIndex::Const(c) => GepIndex::Const(*c),
                    GepIndex::Dyn(v) => GepIndex::Dyn(r(*v)),
                })
                .collect(),
        },
        InstKind::Bin { op, lhs, rhs } => InstKind::Bin {
            op: *op,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        InstKind::Cmp { pred, lhs, rhs } => InstKind::Cmp {
            pred: *pred,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        InstKind::Cast { value, to } => InstKind::Cast {
            value: r(*value),
            to: to.clone(),
        },
        InstKind::Call {
            callee,
            args: a,
            ret_ty,
        } => InstKind::Call {
            callee: *callee,
            args: a.iter().map(|v| r(*v)).collect(),
            ret_ty: ret_ty.clone(),
        },
    }
}

/// Rewrites every use of `from` to `to` in a function.
fn replace_uses(f: &mut Function, from: InstId, to: Value) {
    let subst = |v: &mut Value| {
        if *v == Value::Inst(from) {
            *v = to;
        }
    };
    for b in 0..f.blocks.len() {
        for inst in &mut f.blocks[b].insts {
            match &mut inst.kind {
                InstKind::Load { ptr, .. } => subst(ptr),
                InstKind::Store { ptr, val, .. } => {
                    subst(ptr);
                    subst(val);
                }
                InstKind::Cmpxchg {
                    ptr, expected, new, ..
                } => {
                    subst(ptr);
                    subst(expected);
                    subst(new);
                }
                InstKind::Rmw { ptr, val, .. } => {
                    subst(ptr);
                    subst(val);
                }
                InstKind::Gep { base, indices, .. } => {
                    subst(base);
                    for i in indices {
                        if let GepIndex::Dyn(v) = i {
                            subst(v);
                        }
                    }
                }
                InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                    subst(lhs);
                    subst(rhs);
                }
                InstKind::Cast { value, .. } => subst(value),
                InstKind::Call { args, .. } => {
                    for a in args {
                        subst(a);
                    }
                }
                InstKind::Alloca { .. } | InstKind::Fence { .. } => {}
            }
        }
        match &mut f.blocks[b].term {
            Terminator::CondBr { cond, .. } => subst(cond),
            Terminator::Ret(Some(v)) => subst(v),
            _ => {}
        }
    }
}

fn inline_one(m: &mut Module, caller_id: FuncId, block: BlockId, pos: usize, callee_id: FuncId) {
    let callee = m.func(callee_id).clone();
    let caller = m.func_mut(caller_id);

    // Remove the call instruction; remember its pieces.
    let call_inst = caller.block_mut(block).insts.remove(pos);
    let (args, ret_ty) = match call_inst.kind {
        InstKind::Call { args, ret_ty, .. } => (args, ret_ty),
        _ => unreachable!("inline_one called on a non-call"),
    };

    let inst_off = caller.next_inst;
    caller.next_inst += callee.next_inst;
    let block_off = caller.blocks.len() as u32;

    // Continuation block: tail of the split block + original terminator.
    let cont_id = BlockId(block_off);
    let tail: Vec<Inst> = caller.block_mut(block).insts.split_off(pos);
    let orig_term = std::mem::replace(
        &mut caller.block_mut(block).term,
        Terminator::Br(BlockId(block_off + 1)), // callee entry comes next
    );
    caller.blocks.push(Block {
        name: format!("inline.cont.{}", call_inst.id.0),
        insts: tail,
        term: orig_term,
    });

    // Return slot for non-void callees.
    let ret_slot = if ret_ty != Type::Void {
        let slot_id = caller.fresh_inst_id();
        caller.blocks[0].insts.insert(
            0,
            Inst::with_span(
                slot_id,
                InstKind::Alloca {
                    ty: ret_ty.clone(),
                    name: format!("inline.ret.{}", call_inst.id.0),
                },
                call_inst.span,
            ),
        );
        Some(Value::Inst(slot_id))
    } else {
        None
    };

    // Clone callee blocks, remapping values/ids/blocks.
    let remap_block = |b: BlockId| BlockId(b.0 + block_off + 1);
    for cb in &callee.blocks {
        let mut insts: Vec<Inst> = Vec::with_capacity(cb.insts.len());
        for inst in &cb.insts {
            insts.push(Inst::with_span(
                InstId(inst.id.0 + inst_off),
                remap_kind(&inst.kind, &args, inst_off),
                inst.span,
            ));
        }
        let term = match &cb.term {
            Terminator::Br(t) => Terminator::Br(remap_block(*t)),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => Terminator::CondBr {
                cond: remap_value(*cond, &args, inst_off),
                then_bb: remap_block(*then_bb),
                else_bb: remap_block(*else_bb),
            },
            Terminator::Ret(v) => {
                if let (Some(slot), Some(v)) = (ret_slot, v) {
                    insts.push(Inst::with_span(
                        caller.fresh_inst_id(),
                        InstKind::Store {
                            ptr: slot,
                            val: remap_value(*v, &args, inst_off),
                            ty: ret_ty.clone(),
                            ord: atomig_mir::Ordering::NotAtomic,
                            volatile: false,
                        },
                        call_inst.span,
                    ));
                }
                Terminator::Br(cont_id)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.blocks.push(Block {
            name: format!("inline.{}.{}", callee.name, cb.name),
            insts,
            term,
        });
    }

    // Replace uses of the call result with a load from the return slot.
    if let Some(slot) = ret_slot {
        let load_id = caller.fresh_inst_id();
        caller.block_mut(cont_id).insts.insert(
            0,
            Inst::with_span(
                load_id,
                InstKind::Load {
                    ptr: slot,
                    ty: ret_ty,
                    ord: atomig_mir::Ordering::NotAtomic,
                    volatile: false,
                },
                call_inst.span,
            ),
        );
        replace_uses(caller, call_inst.id, Value::Inst(load_id));
    }
}

/// Counts call sites to module-defined functions (diagnostics/tests).
pub fn direct_call_count(m: &Module) -> usize {
    let mut n = 0;
    for f in &m.funcs {
        for (_, inst) in f.insts() {
            if matches!(
                inst.kind,
                InstKind::Call {
                    callee: Callee::Func(_),
                    ..
                }
            ) {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, verify_module};

    #[test]
    fn inlines_simple_leaf() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @get() : i32 {
            bb0:
              %v = load i32, @x
              ret %v
            }
            fn @main() : i32 {
            bb0:
              %r = call i32 @get()
              %s = add %r, 1
              ret %s
            }
            "#,
        )
        .unwrap();
        let n = inline_module(&mut m, &InlineOptions::default());
        assert_eq!(n, 1);
        assert_eq!(direct_call_count(&m), 0);
        verify_module(&m).unwrap();
        // main now contains the load from @x directly.
        let main = m.func(m.func_by_name("main").unwrap());
        let has_load = main.insts().any(|(_, i)| {
            matches!(
                i.kind,
                InstKind::Load {
                    ptr: Value::Global(_),
                    ..
                }
            )
        });
        assert!(has_load);
    }

    #[test]
    fn inlines_void_callee_with_branches() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @maybe_set(%c: i1) : void {
            bb0:
              condbr %c, yes, no
            yes:
              store i32 1, @x
              br no
            no:
              ret
            }
            fn @main(%c: i1) : void {
            bb0:
              call void @maybe_set(%c)
              store i32 2, @x
              ret
            }
            "#,
        )
        .unwrap();
        assert_eq!(inline_module(&mut m, &InlineOptions::default()), 1);
        verify_module(&m).unwrap();
        let main = m.func(m.func_by_name("main").unwrap());
        // The conditional store was inlined; the tail store survives.
        let stores = main.insts().filter(|(_, i)| i.kind.may_write()).count();
        assert_eq!(stores, 2);
        assert!(main.blocks.len() >= 4);
    }

    #[test]
    fn exposes_cross_function_loop() {
        // A spinloop whose condition reads through a getter: after
        // inlining, the loop body contains the non-local load directly.
        let mut m = parse_module(
            r#"
            global @flag: i32 = 0
            fn @get_flag() : i32 {
            bb0:
              %v = load i32, @flag
              ret %v
            }
            fn @wait() : void {
            entry:
              br loop
            loop:
              %r = call i32 @get_flag()
              %c = cmp eq %r, 0
              condbr %c, loop, exit
            exit:
              ret
            }
            "#,
        )
        .unwrap();
        assert_eq!(inline_module(&mut m, &InlineOptions::default()), 1);
        verify_module(&m).unwrap();
        let wait = m.func(m.func_by_name("wait").unwrap());
        // The @flag load is now inside @wait.
        let has_flag_load = wait.insts().any(
            |(_, i)| matches!(i.kind, InstKind::Load { ptr: Value::Global(g), .. } if g.0 == 0),
        );
        assert!(has_flag_load);
        assert_eq!(direct_call_count(&m), 0);
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let mut m = parse_module(
            r#"
            fn @rec(%n: i32) : i32 {
            bb0:
              %c = cmp le %n, 0
              condbr %c, base, rec_case
            base:
              ret 0
            rec_case:
              %n1 = sub %n, 1
              %r = call i32 @rec(%n1)
              ret %r
            }
            fn @main() : i32 {
            bb0:
              %r = call i32 @rec(5)
              ret %r
            }
            "#,
        )
        .unwrap();
        assert_eq!(inline_module(&mut m, &InlineOptions::default()), 0);
        assert_eq!(direct_call_count(&m), 2);
    }

    #[test]
    fn size_threshold_respected() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @big() : void {
            bb0:
              %a = load i32, @x
              %b = load i32, @x
              %c = load i32, @x
              ret
            }
            fn @main() : void {
            bb0:
              call void @big()
              ret
            }
            "#,
        )
        .unwrap();
        let opts = InlineOptions {
            max_callee_insts: 2,
            ..Default::default()
        };
        assert_eq!(inline_module(&mut m, &opts), 0);
        assert_eq!(direct_call_count(&m), 1);
    }

    #[test]
    fn nested_inlining_reaches_fixpoint() {
        let mut m = parse_module(
            r#"
            global @x: i32 = 0
            fn @leaf() : i32 {
            bb0:
              %v = load i32, @x
              ret %v
            }
            fn @mid() : i32 {
            bb0:
              %v = call i32 @leaf()
              ret %v
            }
            fn @top() : i32 {
            bb0:
              %v = call i32 @mid()
              ret %v
            }
            "#,
        )
        .unwrap();
        let n = inline_module(&mut m, &InlineOptions::default());
        assert!(n >= 2);
        assert_eq!(direct_call_count(&m), 0);
        verify_module(&m).unwrap();
    }
}
