//! Differential test of the verifier against a copy of the one it
//! replaced.
//!
//! The reference below is a copy of the earlier verifier: it walks
//! `Function::insts` and `InstKind::operands` and keeps a fresh flag
//! vector and `std` hash sets per call. On every input both must return
//! the same `Result`, down to the function and the message. The one
//! exception is a use of an instruction that produces no value (a store,
//! a fence or a void call), which only the current verifier rejects; on
//! those mutants the reference answers `Ok`.
//!
//! The inputs are the examples (as compiled and after a full port), the
//! five Table 3 profiles at 1:1000, and seeded mutants of both. Each
//! mutant makes one edit: a dangling, duplicate or too-large instruction
//! id, an out-of-range parameter, global or function, a branch to a
//! missing block, a call or builtin with the wrong arity or an unknown
//! callee, a bad gep, a non-scalar access, a `ret` that does not match
//! the function, an empty function, a duplicate name, or a use of an
//! instruction without a value.

use atomig_core::{AtomigConfig, Pipeline};
use atomig_mir::{
    verify_module, BlockId, Callee, FuncId, GepIndex, GlobalId, InstId, InstKind, Module, StructId,
    Terminator, Type, Value, VerifyError,
};
use atomig_testutil::Rng;
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};

mod reference {
    use atomig_mir::{
        Builtin, Callee, Function, InstId, InstKind, Module, Terminator, Type, TypeKind, Value,
        VerifyError,
    };
    use std::collections::HashSet;

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
}

/// The examples, as compiled and after a full port, and the profiles at
/// 1:1000, named.
fn inputs() -> Vec<(String, Module)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut out = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let m = atomig_frontc::compile(&src, &name).unwrap();
        let mut ported = m.clone();
        Pipeline::new(AtomigConfig::full()).port_module(&mut ported);
        out.push((name.clone(), m));
        out.push((format!("{name} (ported)"), ported));
    }
    for p in profiles::all() {
        let app = synth::generate(GenConfig::from_profile(&p, 1000));
        let m = atomig_frontc::compile(&app.source, p.name).unwrap();
        out.push((p.name.to_string(), m));
    }
    out
}

/// Both verifiers' answers on `m`, which must agree except where the
/// current one rejects a use without a value. Returns the answer.
fn agree(m: &Module, what: &str) -> Result<(), VerifyError> {
    let want = reference::verify_module(m);
    let got = verify_module(m);
    match &got {
        Err(e) if e.msg.contains("which produces no value") => {
            assert_eq!(want, Ok(()), "{what}: the reference rejects a no-value use");
        }
        _ => assert_eq!(want, got, "{what}: verifiers differ"),
    }
    got
}

#[test]
fn matches_reference_on_examples_and_profiles() {
    for (what, m) in inputs() {
        assert_eq!(agree(&m, &what), Ok(()), "{what} verifies");
    }
}

/// The kinds of one-edit mutant.
const EDITS: usize = 14;

/// The `k`-th value operand of `f`'s instructions and terminators, in
/// layout order, replaced by `to`.
fn set_operand(f: &mut atomig_mir::Function, mut k: usize, to: Value) {
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            inst.kind.for_each_operand_mut(|v| {
                if k == 0 {
                    *v = to;
                }
                k = k.wrapping_sub(1);
            });
        }
        match &mut b.term {
            Terminator::CondBr { cond: v, .. } | Terminator::Ret(Some(v)) => {
                if k == 0 {
                    *v = to;
                }
                k = k.wrapping_sub(1);
            }
            _ => {}
        }
    }
}

fn operand_count(f: &atomig_mir::Function) -> usize {
    f.blocks
        .iter()
        .map(|b| {
            b.insts
                .iter()
                .map(|i| i.kind.operands().count())
                .sum::<usize>()
                + b.term.operands().count()
        })
        .sum()
}

/// Applies edit `edit` to a random place of `m`. Returns `false` if `m`
/// has no place for it.
fn mutate(m: &mut Module, edit: usize, rng: &mut Rng) -> bool {
    let nfuncs = m.funcs.len();
    let nglobals = m.globals.len();
    let nstructs = m.structs.len();
    let fi = rng.gen_usize(nfuncs);
    // Instruction positions of the chosen function, and those with a given
    // property.
    let positions = |m: &Module, keep: &dyn Fn(&InstKind) -> bool| -> Vec<(usize, usize)> {
        m.funcs[fi]
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(b, block)| {
                block
                    .insts
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| keep(&i.kind))
                    .map(move |(k, _)| (b, k))
            })
            .collect()
    };
    let pick =
        |rng: &mut Rng, v: &[(usize, usize)]| (!v.is_empty()).then(|| v[rng.gen_usize(v.len())]);
    let f = &m.funcs[fi];
    let nparams = f.params.len();
    let nops = operand_count(f);
    let next = f.next_inst;
    match edit {
        // An operand naming nothing, or out of range.
        0..=3 if nops > 0 => {
            let to = match edit {
                0 => Value::Inst(InstId(next + rng.gen_usize(3) as u32)),
                1 => Value::Param(nparams as u32 + rng.gen_usize(2) as u32),
                2 => Value::Global(GlobalId(nglobals as u32)),
                _ => Value::Func(FuncId(nfuncs as u32)),
            };
            let k = rng.gen_usize(nops);
            set_operand(&mut m.funcs[fi], k, to);
        }
        // A use of an instruction without a value.
        4 if nops > 0 => {
            let void = positions(m, &|k| !k.produces_value());
            let Some((b, k)) = pick(rng, &void) else {
                return false;
            };
            let id = m.funcs[fi].blocks[b].insts[k].id;
            let k = rng.gen_usize(nops);
            set_operand(&mut m.funcs[fi], k, Value::Inst(id));
        }
        // A duplicate id, or one not below `next_inst`.
        5 => {
            let all = positions(m, &|_| true);
            let (Some((b, k)), Some((b2, k2))) = (pick(rng, &all), pick(rng, &all)) else {
                return false;
            };
            let f = &mut m.funcs[fi];
            f.blocks[b].insts[k].id = if rng.gen_ratio(1, 2) {
                f.blocks[b2].insts[k2].id
            } else {
                InstId(next)
            };
        }
        // A branch to a missing block.
        6 => {
            let f = &mut m.funcs[fi];
            let nblocks = f.blocks.len() as u32;
            let b = rng.gen_usize(f.blocks.len());
            match &mut f.blocks[b].term {
                Terminator::Br(t) => *t = BlockId(nblocks),
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    *if rng.gen_ratio(1, 2) {
                        then_bb
                    } else {
                        else_bb
                    } = BlockId(nblocks)
                }
                _ => return false,
            }
        }
        // A call with one argument more or less, or to no function.
        7 => {
            let calls = positions(m, &|k| matches!(k, InstKind::Call { .. }));
            let Some((b, k)) = pick(rng, &calls) else {
                return false;
            };
            let InstKind::Call { callee, args, .. } = &mut m.funcs[fi].blocks[b].insts[k].kind
            else {
                unreachable!()
            };
            match rng.gen_usize(3) {
                0 => args.push(Value::Const(1)),
                1 if !args.is_empty() => {
                    args.pop();
                }
                _ => *callee = Callee::Func(FuncId(nfuncs as u32)),
            }
        }
        // A gep with a field out of range, no indices, or an unknown
        // struct.
        8 => {
            let geps = positions(m, &|k| matches!(k, InstKind::Gep { .. }));
            let Some((b, k)) = pick(rng, &geps) else {
                return false;
            };
            let InstKind::Gep {
                base_ty, indices, ..
            } = &mut m.funcs[fi].blocks[b].insts[k].kind
            else {
                unreachable!()
            };
            match rng.gen_usize(3) {
                0 => *indices = Box::new([]),
                1 => *base_ty = Type::struct_of(StructId(nstructs as u32)),
                _ => {
                    let mut path = indices.to_vec();
                    let field = if rng.gen_ratio(1, 2) { -1 } else { 1000 };
                    path.resize(2, GepIndex::Const(0));
                    path[1] = GepIndex::Const(field);
                    *indices = path.into();
                }
            }
        }
        // A load, store or atomic access of a non-scalar type.
        9 => {
            let accesses = positions(m, &|k| k.is_memory_access());
            let Some((b, k)) = pick(rng, &accesses) else {
                return false;
            };
            let wide = Type::array_of(Type::I64, 2);
            match &mut m.funcs[fi].blocks[b].insts[k].kind {
                InstKind::Load { ty, .. }
                | InstKind::Store { ty, .. }
                | InstKind::Rmw { ty, .. } => *ty = wide,
                InstKind::Cmpxchg(c) => c.ty = wide,
                _ => unreachable!(),
            }
        }
        // A `ret` that does not match the function's type.
        10 => {
            let f = &mut m.funcs[fi];
            let rets: Vec<usize> = (0..f.blocks.len())
                .filter(|&b| matches!(f.blocks[b].term, Terminator::Ret(_)))
                .collect();
            let Some(&b) = rets.get(rng.gen_usize(rets.len().max(1))) else {
                return false;
            };
            let term = &mut f.blocks[b].term;
            *term = match term {
                Terminator::Ret(Some(_)) => Terminator::Ret(None),
                _ => Terminator::Ret(Some(Value::Const(0))),
            };
        }
        // An empty function.
        11 => m.funcs[fi].blocks.clear(),
        // A duplicate function or global name.
        12 if nfuncs > 1 => {
            let other = m.funcs[(fi + 1) % nfuncs].name.clone();
            m.funcs[fi].name = other;
        }
        13 if nglobals > 1 => {
            let gi = rng.gen_usize(nglobals);
            m.globals[gi].name = m.globals[(gi + 1) % nglobals].name.clone();
        }
        _ => return false,
    }
    true
}

#[test]
fn matches_reference_on_seeded_mutants() {
    let inputs = inputs();
    let mut rng = Rng::new(0x7e_21f7);
    // Per edit kind: mutants made, and mutants rejected.
    let mut made = [0usize; EDITS];
    let mut rejected = [0usize; EDITS];
    let mut no_value = 0;
    for k in 0..3000 {
        let (name, base) = &inputs[k % inputs.len()];
        let edit = rng.gen_usize(EDITS);
        let mut m = base.clone();
        if !mutate(&mut m, edit, &mut rng) {
            continue;
        }
        made[edit] += 1;
        let got = agree(&m, &format!("mutant {k} (edit {edit}) of {name}"));
        if let Err(e) = got {
            rejected[edit] += 1;
            no_value += usize::from(e.msg.contains("which produces no value"));
        }
    }
    for edit in 0..EDITS {
        assert!(
            rejected[edit] > 0,
            "edit {edit}: none of its {} mutants is rejected",
            made[edit]
        );
    }
    assert!(no_value > 20, "only {no_value} no-value uses rejected");
}
