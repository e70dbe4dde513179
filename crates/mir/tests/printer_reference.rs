//! Differential test of the streaming printer against a copy of the
//! `format!`-based printer it replaced.
//!
//! The reference below formats every instruction, operand and type into a
//! `String` of its own and joins them. The streaming printer must produce
//! the same bytes from [`print_module`] on the examples (as compiled and after a full port), on the five Table 3
//! profiles ported with each alias backend and with inlining on and off,
//! and on a hand-built module that reaches every arm of the printer.

use atomig_core::{AliasMode, AtomigConfig, Pipeline};
use atomig_mir::printer::print_module;
use atomig_mir::{
    BinOp, Block, BlockId, Builtin, Callee, CmpPred, Cmpxchg, FuncId, Function, GepIndex,
    GlobalDef, GlobalId, Inst, InstId, InstKind, Module, Ordering, RmwOp, StructDef, StructId,
    Terminator, Type, Value,
};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};

mod reference {
    use atomig_mir::{
        Callee, Function, GepIndex, InstKind, Module, Ordering, Terminator, Type, TypeKind, Value,
    };
    use std::fmt::Write as _;

    /// Prints a whole module in the textual format accepted by
    /// [`parse_module`](crate::parse_module).
    pub fn print_module(m: &Module) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "module \"{}\"", m.name);
        for s in &m.structs {
            let fields: Vec<String> = s.fields.iter().map(|t| type_str(m, t)).collect();
            let _ = writeln!(out, "struct %{} {{ {} }}", s.name, fields.join(", "));
        }
        for g in &m.globals {
            let init = if g.init.iter().all(|&v| v == 0) {
                "0".to_string()
            } else if g.init.len() == 1 {
                g.init[0].to_string()
            } else {
                format!(
                    "[{}]",
                    g.init
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            let _ = writeln!(out, "global @{}: {} = {}", g.name, type_str(m, &g.ty), init);
        }
        for f in &m.funcs {
            out.push_str(&print_function(m, f));
        }
        out
    }

    /// Prints one function.
    pub fn print_function(m: &Module, f: &Function) -> String {
        let mut out = String::new();
        let params: Vec<String> = f
            .params
            .iter()
            .map(|(n, t)| format!("%{}: {}", n, type_str(m, t)))
            .collect();
        let _ = writeln!(
            out,
            "fn @{}({}) : {} {{",
            f.name,
            params.join(", "),
            type_str(m, &f.ret)
        );
        for (i, b) in f.blocks.iter().enumerate() {
            let _ = writeln!(out, "bb{}:", i);
            for inst in &b.insts {
                let _ = write!(out, "  {}", inst_str(m, f, &inst.kind, inst.id.0));
                if inst.span != 0 {
                    let _ = write!(out, " !{}", inst.span);
                }
                out.push('\n');
            }
            let _ = writeln!(out, "  {}", term_str(m, f, &b.term));
        }
        out.push_str("}\n");
        out
    }

    /// Prints a type, naming structs.
    pub fn type_str(m: &Module, t: &Type) -> String {
        match t.kind() {
            TypeKind::Struct(sid) => match m.structs.get(sid.0 as usize) {
                Some(s) => format!("%{}", s.name),
                None => format!("%s{}", sid.0),
            },
            TypeKind::Ptr(p) => format!("ptr {}", type_str(m, &p)),
            TypeKind::Array(e, n) => format!("[{} x {}]", n, type_str(m, &e)),
            _ => t.to_string(),
        }
    }

    /// Prints a value, naming params/globals/functions.
    pub fn value_str(m: &Module, f: &Function, v: Value) -> String {
        match v {
            Value::Const(c) => c.to_string(),
            Value::Null => "null".to_string(),
            Value::Global(g) => match m.globals.get(g.0 as usize) {
                Some(def) => format!("@{}", def.name),
                None => format!("@g{}", g.0),
            },
            Value::Param(i) => match f.params.get(i as usize) {
                Some((n, _)) => format!("%{n}"),
                None => format!("%arg{i}"),
            },
            Value::Inst(id) => format!("%t{}", id.0),
            Value::Func(fid) => match m.funcs.get(fid.0 as usize) {
                Some(def) => format!("@{}", def.name),
                None => format!("@f{}", fid.0),
            },
        }
    }

    fn ord_suffix(ord: Ordering) -> String {
        if ord == Ordering::NotAtomic {
            String::new()
        } else {
            format!(" {}", ord.keyword())
        }
    }

    fn vol_suffix(volatile: bool) -> &'static str {
        if volatile {
            " volatile"
        } else {
            ""
        }
    }

    fn inst_str(m: &Module, f: &Function, kind: &InstKind, id: u32) -> String {
        let v = |val: Value| value_str(m, f, val);
        match kind {
            InstKind::Alloca { ty } => {
                format!("%t{id} = alloca {}", type_str(m, ty))
            }
            InstKind::Load {
                ptr,
                ty,
                ord,
                volatile,
            } => format!(
                "%t{id} = load {}, {}{}{}",
                type_str(m, ty),
                v(*ptr),
                ord_suffix(*ord),
                vol_suffix(*volatile)
            ),
            InstKind::Store {
                ptr,
                val,
                ty,
                ord,
                volatile,
            } => format!(
                "store {} {}, {}{}{}",
                type_str(m, ty),
                v(*val),
                v(*ptr),
                ord_suffix(*ord),
                vol_suffix(*volatile)
            ),
            InstKind::Cmpxchg(c) => format!(
                "%t{id} = cmpxchg {} {}, {}, {}{}",
                type_str(m, &c.ty),
                v(c.ptr),
                v(c.expected),
                v(c.new),
                ord_suffix(c.ord)
            ),
            InstKind::Rmw {
                op,
                ptr,
                val,
                ty,
                ord,
            } => format!(
                "%t{id} = rmw {} {} {}, {}{}",
                op.mnemonic(),
                type_str(m, ty),
                v(*ptr),
                v(*val),
                ord_suffix(*ord)
            ),
            InstKind::Fence { ord } => format!("fence {}", ord.keyword()),
            InstKind::Gep {
                base,
                base_ty,
                indices,
            } => {
                let idxs: Vec<String> = indices
                    .iter()
                    .map(|i| match i {
                        GepIndex::Const(c) => c.to_string(),
                        GepIndex::Dyn(val) => v(*val),
                    })
                    .collect();
                format!(
                    "%t{id} = gep {}, {}, {}",
                    type_str(m, base_ty),
                    v(*base),
                    idxs.join(", ")
                )
            }
            InstKind::Bin { op, lhs, rhs } => {
                format!("%t{id} = {} {}, {}", op.mnemonic(), v(*lhs), v(*rhs))
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                format!("%t{id} = cmp {} {}, {}", pred.mnemonic(), v(*lhs), v(*rhs))
            }
            InstKind::Cast { value, to } => {
                format!("%t{id} = cast {} to {}", v(*value), type_str(m, to))
            }
            InstKind::Call {
                callee,
                args,
                ret_ty,
            } => {
                let name = match callee {
                    Callee::Func(fid) => match m.funcs.get(fid.0 as usize) {
                        Some(def) => def.name.clone(),
                        None => format!("f{}", fid.0),
                    },
                    Callee::Builtin(b) => b.name().to_string(),
                };
                let args: Vec<String> = args.iter().map(|a| v(*a)).collect();
                if *ret_ty == Type::Void {
                    format!("call void @{}({})", name, args.join(", "))
                } else {
                    format!(
                        "%t{id} = call {} @{}({})",
                        type_str(m, ret_ty),
                        name,
                        args.join(", ")
                    )
                }
            }
        }
    }

    fn term_str(m: &Module, f: &Function, t: &Terminator) -> String {
        match t {
            Terminator::Br(b) => format!("br bb{}", b.0),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => format!(
                "condbr {}, bb{}, bb{}",
                value_str(m, f, *cond),
                then_bb.0,
                else_bb.0
            ),
            Terminator::Ret(None) => "ret".to_string(),
            Terminator::Ret(Some(v)) => format!("ret {}", value_str(m, f, *v)),
            Terminator::Unreachable => "unreachable".to_string(),
        }
    }
}

/// Asserts the streaming printer matches the reference on `m`.
fn same_text(m: &Module, what: &str) {
    let want = reference::print_module(m);
    let got = print_module(m);
    if want != got {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or(want.lines().count().min(got.lines().count()));
        panic!(
            "{what}: printed module differs at line {}: want {:?}, got {:?}",
            line + 1,
            want.lines().nth(line),
            got.lines().nth(line)
        );
    }
}

#[test]
fn matches_reference_on_examples() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let mut m = atomig_frontc::compile(&src, &name).unwrap();
        same_text(&m, &name);
        Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        same_text(&m, &format!("{name} (ported)"));
    }
}

#[test]
fn matches_reference_on_ported_profiles() {
    for seed in [1, 2] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 1000)
            });
            let m = atomig_frontc::compile(&app.source, p.name).unwrap();
            same_text(&m, &format!("{} seed {seed}", p.name));
            for alias_mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
                for inline in [false, true] {
                    let mut ported = m.clone();
                    let config = AtomigConfig {
                        alias_mode,
                        inline,
                        ..AtomigConfig::full()
                    };
                    Pipeline::new(config).port_module(&mut ported);
                    let what = format!("{} seed {seed} {alias_mode:?} inline={inline}", p.name);
                    same_text(&ported, &what);
                }
            }
        }
    }
}

const ORDERINGS: [Ordering; 6] = [
    Ordering::NotAtomic,
    Ordering::Relaxed,
    Ordering::Acquire,
    Ordering::Release,
    Ordering::AcqRel,
    Ordering::SeqCst,
];

/// A module no frontend would produce: every instruction and terminator
/// form, every ordering with and without `volatile`, extreme constants,
/// sparse instruction ids, and ids that name nothing (which the printer
/// spells by number).
fn every_arm() -> Module {
    let mut m = Module::new("every_arm");
    let node = m.add_struct(StructDef {
        name: "node".into(),
        fields: vec![Type::I64, Type::ptr_to(Type::struct_of(StructId(0)))],
    });
    let pair = m.add_struct(StructDef {
        name: "pair".into(),
        fields: vec![
            Type::array_of(Type::struct_of(node), 2),
            Type::struct_of(StructId(7)),
            Type::I1,
            Type::I8,
            Type::I16,
            Type::I32,
        ],
    });
    let zero = m.add_global(GlobalDef {
        name: "zero".into(),
        ty: Type::array_of(Type::I64, 3),
        init: vec![0, 0, 0],
    });
    let empty = m.add_global(GlobalDef {
        name: "empty".into(),
        ty: Type::I32,
        init: vec![],
    });
    let min = m.add_global(GlobalDef {
        name: "min".into(),
        ty: Type::I64,
        init: vec![i64::MIN],
    });
    let many = m.add_global(GlobalDef {
        name: "many".into(),
        ty: Type::array_of(Type::struct_of(pair), 4),
        init: vec![1, -2, 0, i64::MAX, i64::MIN, 10, 1_000_000_007],
    });
    let nested = m.add_global(GlobalDef {
        name: "nested".into(),
        ty: Type::ptr_to(Type::ptr_to(Type::array_of(Type::I8, 0))),
        init: vec![-1],
    });

    let values = [
        Value::Const(0),
        Value::Const(-42),
        Value::Const(i64::MIN),
        Value::Const(i64::MAX),
        Value::Null,
        Value::Global(zero),
        Value::Global(GlobalId(9)),
        Value::Param(1),
        Value::Param(3),
        Value::Inst(InstId(4_000_000_000)),
        Value::Func(FuncId(1)),
        Value::Func(FuncId(4)),
    ];
    let mut kinds: Vec<(InstKind, u32)> = vec![
        (
            InstKind::Alloca {
                ty: Type::struct_of(node),
            },
            0,
        ),
        (
            InstKind::Alloca {
                ty: Type::struct_of(StructId(7)),
            },
            u32::MAX,
        ),
    ];
    for (k, ord) in ORDERINGS.into_iter().enumerate() {
        for volatile in [false, true] {
            let span = if volatile { 0 } else { k as u32 + 1 };
            let load = InstKind::Load {
                ptr: Value::Global(min),
                ty: Type::I64,
                ord,
                volatile,
            };
            let store = InstKind::Store {
                ptr: Value::Global(many),
                val: values[k * 2 + usize::from(volatile)],
                ty: Type::I16,
                ord,
                volatile,
            };
            kinds.extend([(load, span), (store, span)]);
        }
        let cas = InstKind::Cmpxchg(Box::new(Cmpxchg {
            ptr: Value::Param(0),
            expected: values[k],
            new: values[11 - k],
            ty: Type::I32,
            ord,
        }));
        kinds.extend([(cas, k as u32), (InstKind::Fence { ord }, 0)]);
    }
    let rmw_ops = [
        RmwOp::Add,
        RmwOp::Sub,
        RmwOp::Xchg,
        RmwOp::And,
        RmwOp::Or,
        RmwOp::Xor,
    ];
    for (k, op) in rmw_ops.into_iter().enumerate() {
        let rmw = InstKind::Rmw {
            op,
            ptr: Value::Global(empty),
            val: values[k + 6],
            ty: Type::I8,
            ord: ORDERINGS[k],
        };
        kinds.push((rmw, 7));
    }
    kinds.extend([
        (
            InstKind::Gep {
                base: Value::Param(0),
                base_ty: Type::struct_of(pair),
                indices: [GepIndex::Const(0), GepIndex::Const(-3)].into(),
            },
            11,
        ),
        (
            InstKind::Gep {
                base: Value::Inst(InstId(0)),
                base_ty: Type::array_of(Type::struct_of(node), 2),
                indices: [
                    GepIndex::Dyn(Value::Param(1)),
                    GepIndex::Const(i64::MIN),
                    GepIndex::Dyn(Value::Inst(InstId(3))),
                ]
                .into(),
            },
            0,
        ),
        (
            InstKind::Gep {
                base: Value::Global(nested),
                base_ty: Type::I64,
                indices: [].into(),
            },
            0,
        ),
    ]);
    let bin_ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
    for (k, op) in bin_ops.into_iter().enumerate() {
        let bin = InstKind::Bin {
            op,
            lhs: values[k],
            rhs: values[11 - k],
        };
        kinds.push((bin, k as u32));
    }
    let preds = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Lt,
        CmpPred::Le,
        CmpPred::Gt,
        CmpPred::Ge,
    ];
    for (k, pred) in preds.into_iter().enumerate() {
        let cmp = InstKind::Cmp {
            pred,
            lhs: values[k + 1],
            rhs: Value::Const(-(k as i64)),
        };
        kinds.push((cmp, 0));
    }
    for to in [
        Type::I1,
        Type::ptr_to(Type::struct_of(node)),
        Type::array_of(Type::I32, u32::MAX),
        Type::Void,
    ] {
        let cast = InstKind::Cast {
            value: Value::Param(1),
            to,
        };
        kinds.push((cast, 3));
    }
    let calls = [
        (Callee::Func(FuncId(1)), vec![], Type::Void, 0),
        (
            Callee::Func(FuncId(4)),
            vec![Value::Const(1), Value::Inst(InstId(6))],
            Type::I64,
            2,
        ),
        (
            Callee::Builtin(Builtin::Spawn),
            vec![Value::Func(FuncId(1)), Value::Const(-1)],
            Type::I64,
            0,
        ),
        (
            Callee::Builtin(Builtin::CompilerBarrier),
            values.to_vec(),
            Type::Void,
            9,
        ),
        (
            Callee::Builtin(Builtin::Malloc),
            vec![Value::Const(8)],
            Type::ptr_to(Type::struct_of(StructId(7))),
            0,
        ),
    ];
    for (callee, args, ret_ty, span) in calls {
        let call = InstKind::Call {
            callee,
            args,
            ret_ty,
        };
        kinds.push((call, span));
    }

    let params = vec![
        ("p".into(), Type::ptr_to(Type::struct_of(pair))),
        ("n".into(), Type::I64),
    ];
    let mut f = Function::new("all", params, Type::I64);
    // Sparse ids, as after a transformation.
    f.blocks[0].insts = kinds
        .into_iter()
        .enumerate()
        .map(|(k, (kind, span))| Inst::with_span(InstId(3 * k as u32), kind, span))
        .collect();
    f.next_inst = 3 * f.blocks[0].insts.len() as u32;
    f.blocks[0].term = Terminator::CondBr {
        cond: Value::Inst(InstId(3)),
        then_bb: BlockId(1),
        else_bb: BlockId(12),
    };
    let terms = [
        Terminator::Ret(Some(Value::Const(i64::MIN))),
        Terminator::Br(BlockId(0)),
        Terminator::Unreachable,
        Terminator::Ret(None),
    ];
    for term in terms {
        f.blocks.push(Block {
            insts: Vec::new(),
            term,
        });
    }
    m.add_func(f);

    let mut callee = Function::new("callee", vec![], Type::Void);
    callee.blocks[0].term = Terminator::Ret(Some(Value::Param(0)));
    m.add_func(callee);
    m
}

#[test]
fn matches_reference_on_every_arm() {
    let m = every_arm();
    same_text(&m, "every_arm");
    let text = print_module(&m);
    for needle in [
        "global @zero: [3 x i64] = 0\n",
        "global @empty: i32 = 0\n",
        "global @min: i64 = -9223372036854775808\n",
        "= [1, -2, 0, 9223372036854775807, -9223372036854775808, 10, 1000000007]\n",
        "struct %pair { [2 x %node], %s7, i1, i8, i16, i32 }\n",
        "store i16 @g9, @many rel !4\n",
        "%arg3",
        "@f4",
        "= call i64 @f4(1, %t6) !2\n",
        "  call void @callee()\n",
        "%t3 = alloca %s7 !4294967295\n",
        "%t4000000000",
        "= load i64, @min seq_cst volatile\n",
        "= load i64, @min volatile\n",
        "= gep [2 x %node], %t0, %n, -9223372036854775808, %t3\n",
        "= gep i64, @nested, \n",
        "  condbr %t3, bb1, bb12\n",
        "  ret -9223372036854775808\n",
        "  br bb0\n",
        "  unreachable\n",
        "  ret\n",
        "  ret %arg0\n",
    ] {
        assert!(text.contains(needle), "{needle:?} missing from:\n{text}");
    }
}
