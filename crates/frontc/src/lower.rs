//! Typed lowering from the MiniC AST to MIR, in the style of `clang -O0`:
//! every local variable and parameter gets a stack slot, all data flow
//! goes through loads and stores, and no optimization is performed —
//! exactly the IR shape AtoMig analyses (§3.1).
//!
//! Module-level names resolve through tables indexed by [`Sym`], locals
//! through one binding stack, and struct fields through a
//! `(StructId, Sym)` map. Types stay [`TyId`]s throughout; the MIR type of
//! each is built once, and instructions copy its 4-byte handle.

use crate::asm::{classify, AsmIdiom};
use crate::ast::*;
use atomig_mir::{
    BlockId, Builtin, Callee, CmpPred, FuncId, FunctionBuilder, FxBuild, GepIndex, GlobalDef,
    GlobalId, Module, Ordering, RmwOp, StructDef, StructId, Type, Value,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A semantic / lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description (includes the offending name where known).
    pub msg: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.msg)
    }
}

impl Error for LowerError {}

fn err<T>(msg: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError { msg: msg.into() })
}

/// Lowers a parsed program into a MIR module named `name`.
pub fn lower(program: &Program, name: &str) -> Result<Module, LowerError> {
    let (mut cx, mut module) = Cx::collect(program, name)?;
    for item in &program.items {
        if let Item::Function {
            ret,
            name,
            params,
            body,
        } = *item
        {
            let f = FnLower::lower_function(&mut cx, ret, name, params, body)?;
            let fid = cx.funcs[name.0 as usize].expect("collected").0;
            module.funcs[fid.0 as usize] = f;
        }
    }
    // Normalize global initializers to slot counts.
    let sizes = module.struct_slot_sizes();
    for g in &mut module.globals {
        let n = g.ty.slot_count(&sizes) as usize;
        g.init.resize(n.max(1), 0);
    }
    Ok(module)
}

/// A function's signature: id, return type and parameters.
type Signature = (FuncId, TyId, List<Decl>);

/// Module-wide context: declared structs, globals, functions, and the
/// types lowering has met.
struct Cx<'p> {
    prog: &'p Program,
    /// The program's types plus the pointer types lowering forms.
    types: Types,
    /// The MIR type of each `TyId`, once built.
    mir: Vec<Option<Type>>,
    /// Module-level meanings of each name, indexed by `Sym`.
    structs: Vec<Option<StructId>>,
    globals: Vec<Option<(GlobalId, TyId, Quals)>>,
    funcs: Vec<Option<Signature>>,
    /// Index and type of each field.
    fields: HashMap<(StructId, Sym), (u32, TyId), FxBuild>,
    struct_sizes: Vec<u32>,
    /// Local variables in scope, innermost last.
    locals: Scopes,
}

impl<'p> Cx<'p> {
    fn collect(program: &'p Program, name: &str) -> Result<(Cx<'p>, Module), LowerError> {
        let names = program.names.len();
        let mut module = Module::new(name);
        let mut cx = Cx {
            prog: program,
            types: program.types.clone(),
            mir: Vec::new(),
            structs: vec![None; names],
            globals: vec![None; names],
            funcs: vec![None; names],
            fields: HashMap::default(),
            struct_sizes: Vec::new(),
            locals: Scopes {
                stack: Vec::new(),
                innermost: vec![NOT_BOUND; names],
            },
        };
        // Phase 1: struct names.
        for item in &program.items {
            if let Item::Struct { name, .. } = *item {
                if cx.structs[name.0 as usize].is_some() {
                    return err(format!("duplicate struct `{}`", &program[name]));
                }
                let sid = module.add_struct(StructDef {
                    name: program[name].to_string(),
                    fields: vec![],
                });
                cx.structs[name.0 as usize] = Some(sid);
            }
        }
        // Phase 2: struct bodies.
        for item in &program.items {
            if let Item::Struct { name, fields } = *item {
                let sid = cx.structs[name.0 as usize].expect("collected");
                let mut mir_fields = Vec::with_capacity(fields.len());
                for (i, f) in program[fields].iter().enumerate() {
                    mir_fields.push(cx.mir_type(f.ty)?);
                    // A repeated field name resolves to its first declaration.
                    cx.fields.entry((sid, f.name)).or_insert((i as u32, f.ty));
                }
                module.structs[sid.0 as usize].fields = mir_fields;
            }
        }
        cx.struct_sizes = module.struct_slot_sizes();
        // Phase 3: globals and function signatures.
        for item in &program.items {
            match *item {
                Item::Global {
                    ty,
                    quals,
                    name,
                    init,
                } => {
                    if cx.globals[name.0 as usize].is_some() {
                        return err(format!("duplicate global `{}`", &program[name]));
                    }
                    let mty = cx.mir_type(ty)?;
                    let gid = module.add_global(GlobalDef {
                        name: program[name].to_string(),
                        ty: mty,
                        init: program[init].to_vec(),
                    });
                    cx.globals[name.0 as usize] = Some((gid, ty, quals));
                }
                Item::Function {
                    ret, name, params, ..
                } => {
                    if cx.funcs[name.0 as usize].is_some() {
                        return err(format!("duplicate function `{}`", &program[name]));
                    }
                    let mir_params = cx.mir_params(params)?;
                    let fid = module.add_func(atomig_mir::Function::new(
                        &program[name],
                        mir_params,
                        cx.mir_type(ret)?,
                    ));
                    cx.funcs[name.0 as usize] = Some((fid, ret, params));
                }
                Item::Struct { .. } => {}
            }
        }
        Ok((cx, module))
    }

    /// The MIR type of `t`, built on first use.
    fn mir_type(&mut self, t: TyId) -> Result<Type, LowerError> {
        let i = t.0 as usize;
        if let Some(&Some(ty)) = self.mir.get(i) {
            return Ok(ty);
        }
        let ty = match self.types[t] {
            CType::Void => Type::Void,
            CType::Char => Type::I8,
            CType::Short => Type::I16,
            CType::Int => Type::I32,
            CType::Long => Type::I64,
            CType::Struct(name) => match self.structs[name.0 as usize] {
                Some(sid) => Type::struct_of(sid),
                None => return err(format!("unknown struct `{}`", &self.prog[name])),
            },
            CType::Ptr(p) => Type::ptr_to(self.mir_type(p)?),
            CType::Array(e, n) => Type::array_of(self.mir_type(e)?, n),
        };
        if self.mir.len() <= i {
            self.mir.resize(self.types.len(), None);
        }
        self.mir[i] = Some(ty);
        Ok(ty)
    }

    fn mir_params(&mut self, params: List<Decl>) -> Result<Vec<(String, Type)>, LowerError> {
        let prog = self.prog;
        prog[params]
            .iter()
            .map(|p| Ok((prog[p.name].to_string(), self.mir_type(p.ty)?)))
            .collect()
    }

    fn slots_of(&mut self, t: TyId) -> Result<u32, LowerError> {
        let ty = self.mir_type(t)?;
        Ok(ty.slot_count(&self.struct_sizes).max(1))
    }

    fn struct_id(&self, strukt: Sym) -> Result<StructId, LowerError> {
        match self.structs[strukt.0 as usize] {
            Some(sid) => Ok(sid),
            None => err(format!("unknown struct `{}`", &self.prog[strukt])),
        }
    }

    fn field_index(
        &self,
        sid: StructId,
        strukt: Sym,
        field: Sym,
    ) -> Result<(u32, TyId), LowerError> {
        match self.fields.get(&(sid, field)) {
            Some(&found) => Ok(found),
            None => err(format!(
                "struct `{}` has no field `{}`",
                &self.prog[strukt], &self.prog[field]
            )),
        }
    }

    /// `Debug`-style text of `t`, for error messages.
    fn show(&self, t: TyId) -> String {
        self.types.render(&self.prog.names, t)
    }
}

/// `Scopes::innermost` of a name no local binds.
const NOT_BOUND: u32 = u32::MAX;

/// Local variables as one stack of bindings, truncated when a scope
/// ends. `innermost[sym]` is the stack slot of the binding of `sym` in
/// scope, and each binding remembers the one it shadows.
struct Scopes {
    stack: Vec<(Sym, LocalVar, u32)>,
    innermost: Vec<u32>,
}

impl Scopes {
    fn len(&self) -> usize {
        self.stack.len()
    }

    fn bind(&mut self, name: Sym, var: LocalVar) {
        let slot = &mut self.innermost[name.0 as usize];
        self.stack.push((name, var, *slot));
        *slot = self.stack.len() as u32 - 1;
    }

    fn lookup(&self, name: Sym) -> Option<&LocalVar> {
        let slot = self.innermost[name.0 as usize];
        self.stack.get(slot as usize).map(|(_, v, _)| v)
    }

    /// Ends every scope opened since the stack held `len` bindings.
    fn truncate(&mut self, len: usize) {
        while self.stack.len() > len {
            let (name, _, shadowed) = self.stack.pop().expect("non-empty");
            self.innermost[name.0 as usize] = shadowed;
        }
    }
}

/// A typed rvalue.
#[derive(Debug, Clone, Copy)]
struct RV {
    val: Value,
    ty: TyId,
}

/// A typed lvalue (address + access qualifiers).
#[derive(Debug, Clone, Copy)]
struct LV {
    addr: Value,
    ty: TyId,
    volatile: bool,
    atomic: bool,
}

#[derive(Debug, Clone, Copy)]
struct LocalVar {
    addr: Value,
    ty: TyId,
    quals: Quals,
}

struct FnLower<'c, 'p> {
    cx: &'c mut Cx<'p>,
    prog: &'p Program,
    b: FunctionBuilder,
    /// `(continue_target, break_target)` innermost last.
    loops: Vec<(BlockId, BlockId)>,
    /// `if.end` blocks of the `if` arms being lowered, innermost last.
    if_ends: Vec<BlockId>,
    ret: TyId,
}

impl<'c, 'p> FnLower<'c, 'p> {
    fn lower_function(
        cx: &'c mut Cx<'p>,
        ret: TyId,
        name: Sym,
        params: List<Decl>,
        body: List<StmtId>,
    ) -> Result<atomig_mir::Function, LowerError> {
        let prog = cx.prog;
        let mir_params = cx.mir_params(params)?;
        let mir_ret = cx.mir_type(ret)?;
        let mut fl = FnLower {
            cx,
            prog,
            b: FunctionBuilder::new(&prog[name], mir_params, mir_ret),
            loops: vec![],
            if_ends: vec![],
            ret,
        };
        // clang -O0: copy every parameter into a stack slot.
        for (i, p) in prog[params].iter().enumerate() {
            let mty = fl.cx.mir_type(p.ty)?;
            let slot = fl.b.alloca(mty);
            fl.b.store(mty, slot, Value::Param(i as u32));
            fl.cx.locals.bind(
                p.name,
                LocalVar {
                    addr: slot,
                    ty: p.ty,
                    quals: Quals::default(),
                },
            );
        }
        for &s in &prog[body] {
            fl.stmt(s)?;
        }
        fl.cx.locals.truncate(0);
        if !fl.b.is_terminated() {
            match ret {
                Types::VOID => fl.b.ret(None),
                _ => fl.b.ret(Some(Value::Const(0))),
            }
        }
        Ok(fl.b.finish())
    }

    // ---- statements ----

    fn stmt(&mut self, s: StmtId) -> Result<(), LowerError> {
        if self.b.is_terminated() {
            // Dead code after return/break: still lower into a fresh block
            // so labels resolve, but simplest is to skip it.
            return Ok(());
        }
        let prog = self.prog;
        let s = prog[s];
        if s.line != 0 {
            self.b.set_line(s.line);
        }
        match s.kind {
            StmtKind::Decl {
                ty,
                quals,
                name,
                init,
            } => {
                let mty = self.cx.mir_type(ty)?;
                let slot = self.b.alloca(mty);
                self.cx.locals.bind(
                    name,
                    LocalVar {
                        addr: slot,
                        ty,
                        quals,
                    },
                );
                if let Some(e) = init {
                    let rv = self.rvalue(e)?;
                    let sty = self.cx.mir_type(ty)?;
                    self.store_qualified(slot, rv.val, sty, quals);
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.rvalue(e)?;
                Ok(())
            }
            StmtKind::Block(stmts) => {
                let scope = self.cx.locals.len();
                for &s in &prog[stmts] {
                    self.stmt(s)?;
                }
                self.cx.locals.truncate(scope);
                Ok(())
            }
            StmtKind::If { arms, else_s } => {
                // Each `else if` arm lowers as the `if` statement nested in
                // the previous arm's `else` block that it stands for.
                let outer = self.if_ends.len();
                for (k, arm) in prog[arms].iter().enumerate() {
                    if k > 0 && arm.line != 0 {
                        self.b.set_line(arm.line);
                    }
                    let c = self.cond_value(arm.cond)?;
                    let then_bb = self.b.new_block();
                    let else_bb = self.b.new_block();
                    let end_bb = self.b.new_block();
                    self.b.cond_br(c, then_bb, else_bb);
                    self.b.switch_to(then_bb);
                    self.stmt(arm.then_s)?;
                    if !self.b.is_terminated() {
                        self.b.br(end_bb);
                    }
                    self.b.switch_to(else_bb);
                    self.if_ends.push(end_bb);
                }
                if let Some(e) = else_s {
                    self.stmt(e)?;
                }
                while self.if_ends.len() > outer {
                    let end_bb = self.if_ends.pop().expect("non-empty");
                    if !self.b.is_terminated() {
                        self.b.br(end_bb);
                    }
                    self.b.switch_to(end_bb);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let end_bb = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                let c = self.cond_value(cond)?;
                self.b.cond_br(c, body_bb, end_bb);
                self.b.switch_to(body_bb);
                self.loops.push((header, end_bb));
                self.stmt(body)?;
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(header);
                }
                self.b.switch_to(end_bb);
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let body_bb = self.b.new_block();
                let latch = self.b.new_block();
                let end_bb = self.b.new_block();
                self.b.br(body_bb);
                self.b.switch_to(body_bb);
                self.loops.push((latch, end_bb));
                self.stmt(body)?;
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(latch);
                }
                self.b.switch_to(latch);
                let c = self.cond_value(cond)?;
                self.b.cond_br(c, body_bb, end_bb);
                self.b.switch_to(end_bb);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let scope = self.cx.locals.len();
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let end_bb = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                match cond {
                    Some(c) => {
                        let cv = self.cond_value(c)?;
                        self.b.cond_br(cv, body_bb, end_bb);
                    }
                    None => self.b.br(body_bb),
                }
                self.b.switch_to(body_bb);
                self.loops.push((step_bb, end_bb));
                self.stmt(body)?;
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(step_bb);
                }
                self.b.switch_to(step_bb);
                if let Some(e) = step {
                    self.rvalue(e)?;
                }
                self.b.br(header);
                self.b.switch_to(end_bb);
                self.cx.locals.truncate(scope);
                Ok(())
            }
            StmtKind::Return(e) => {
                match (e, self.ret) {
                    (None, Types::VOID) => self.b.ret(None),
                    (None, _) => return err("missing return value"),
                    (Some(e), Types::VOID) => {
                        self.rvalue(e)?;
                        self.b.ret(None);
                    }
                    (Some(e), _) => {
                        let rv = self.rvalue(e)?;
                        self.b.ret(Some(rv.val));
                    }
                }
                Ok(())
            }
            StmtKind::Break => match self.loops.last() {
                Some(&(_, brk)) => {
                    self.b.br(brk);
                    Ok(())
                }
                None => err("break outside a loop"),
            },
            StmtKind::Continue => match self.loops.last() {
                Some(&(cont, _)) => {
                    self.b.br(cont);
                    Ok(())
                }
                None => err("continue outside a loop"),
            },
        }
    }

    // ---- lvalues ----

    fn lvalue(&mut self, e: ExprId) -> Result<LV, LowerError> {
        let prog = self.prog;
        match prog[e] {
            Expr::Ident(name) => {
                if let Some(v) = self.cx.locals.lookup(name) {
                    return Ok(LV {
                        addr: v.addr,
                        ty: v.ty,
                        volatile: v.quals.volatile,
                        atomic: v.quals.atomic,
                    });
                }
                if let Some((gid, ty, quals)) = self.cx.globals[name.0 as usize] {
                    return Ok(LV {
                        addr: Value::Global(gid),
                        ty,
                        volatile: quals.volatile,
                        atomic: quals.atomic,
                    });
                }
                err(format!("unknown variable `{}`", &prog[name]))
            }
            Expr::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                let rv = self.rvalue(operand)?;
                match self.cx.types[rv.ty] {
                    CType::Ptr(inner) => Ok(LV {
                        addr: rv.val,
                        ty: inner,
                        volatile: false,
                        atomic: false,
                    }),
                    _ => err(format!(
                        "dereference of non-pointer ({})",
                        self.cx.show(rv.ty)
                    )),
                }
            }
            Expr::Index { base, index } => {
                let idx = self.rvalue(index)?;
                // Array lvalue or pointer rvalue?
                let base_info = self.base_address(base)?;
                match self.cx.types[base_info.ty] {
                    CType::Array(elem, _) => {
                        let mty = self.cx.mir_type(base_info.ty)?;
                        let addr = self.b.gep(
                            mty,
                            base_info.addr,
                            vec![GepIndex::Const(0), GepIndex::Dyn(idx.val)],
                        );
                        Ok(LV {
                            addr,
                            ty: elem,
                            volatile: base_info.volatile,
                            atomic: base_info.atomic,
                        })
                    }
                    CType::Ptr(elem) => {
                        // base is a pointer value: load it, then index.
                        let p = self.load_lv(&base_info)?;
                        let emty = self.cx.mir_type(elem)?;
                        let addr = self.b.gep(emty, p.val, vec![GepIndex::Dyn(idx.val)]);
                        Ok(LV {
                            addr,
                            ty: elem,
                            volatile: false,
                            atomic: false,
                        })
                    }
                    _ => err(format!("cannot index into {}", self.cx.show(base_info.ty))),
                }
            }
            Expr::Member { base, field, arrow } => {
                let (struct_name, base_addr) = if arrow {
                    let rv = self.rvalue(base)?;
                    match self.cx.types[rv.ty] {
                        CType::Ptr(inner) => match self.cx.types[inner] {
                            CType::Struct(s) => (s, rv.val),
                            _ => return err(format!("`->` on pointer to {}", self.cx.show(inner))),
                        },
                        _ => return err(format!("`->` on non-pointer ({})", self.cx.show(rv.ty))),
                    }
                } else {
                    let lv = self.lvalue(base)?;
                    match self.cx.types[lv.ty] {
                        CType::Struct(s) => (s, lv.addr),
                        _ => return err(format!("`.` on non-struct ({})", self.cx.show(lv.ty))),
                    }
                };
                let sid = self.cx.struct_id(struct_name)?;
                let (fi, fty) = self.cx.field_index(sid, struct_name, field)?;
                let addr = self.b.field_addr(Type::struct_of(sid), base_addr, fi);
                Ok(LV {
                    addr,
                    ty: fty,
                    volatile: false,
                    atomic: false,
                })
            }
            _ => err(format!(
                "expression is not an lvalue: {}",
                prog.render_expr(e)
            )),
        }
    }

    /// Address + type of a base expression without loading (used by
    /// indexing to distinguish arrays from pointers).
    fn base_address(&mut self, e: ExprId) -> Result<LV, LowerError> {
        match self.prog[e] {
            Expr::Ident(_)
            | Expr::Member { .. }
            | Expr::Index { .. }
            | Expr::Unary {
                op: UnaryOp::Deref, ..
            } => self.lvalue(e),
            _ => {
                // A computed pointer value.
                let rv = self.rvalue(e)?;
                match self.cx.types[rv.ty] {
                    CType::Ptr(_) => {
                        // Fabricate an lvalue holding the pointer by
                        // spilling it (rare path).
                        let mty = self.cx.mir_type(rv.ty)?;
                        let slot = self.b.alloca(mty);
                        self.b.store(mty, slot, rv.val);
                        Ok(LV {
                            addr: slot,
                            ty: rv.ty,
                            volatile: false,
                            atomic: false,
                        })
                    }
                    _ => err(format!("cannot take address of {}", self.cx.show(rv.ty))),
                }
            }
        }
    }

    fn load_lv(&mut self, lv: &LV) -> Result<RV, LowerError> {
        match self.cx.types[lv.ty] {
            CType::Array(elem, _) => {
                // Array-to-pointer decay: the value is the address.
                let aty = self.cx.mir_type(lv.ty)?;
                let addr = self
                    .b
                    .gep(aty, lv.addr, vec![GepIndex::Const(0), GepIndex::Const(0)]);
                Ok(RV {
                    val: addr,
                    ty: self.cx.types.ptr(elem),
                })
            }
            CType::Struct(s) => err(format!("cannot load whole struct `{}`", &self.prog[s])),
            _ => {
                let mty = self.cx.mir_type(lv.ty)?;
                let ord = if lv.atomic {
                    Ordering::SeqCst
                } else {
                    Ordering::NotAtomic
                };
                let v = self.b.load_ord(mty, lv.addr, ord, lv.volatile);
                Ok(RV { val: v, ty: lv.ty })
            }
        }
    }

    fn store_qualified(&mut self, addr: Value, val: Value, ty: Type, quals: Quals) {
        let ord = if quals.atomic {
            Ordering::SeqCst
        } else {
            Ordering::NotAtomic
        };
        self.b.store_ord(ty, addr, val, ord, quals.volatile);
    }

    fn store_lv(&mut self, lv: &LV, val: Value) -> Result<(), LowerError> {
        let mty = self.cx.mir_type(lv.ty)?;
        if !mty.is_scalar() {
            return err("store to non-scalar lvalue");
        }
        self.store_qualified(
            lv.addr,
            val,
            mty,
            Quals {
                volatile: lv.volatile,
                atomic: lv.atomic,
            },
        );
        Ok(())
    }

    // ---- rvalues ----

    /// Lowers `e` to an `i1` condition value.
    fn cond_value(&mut self, e: ExprId) -> Result<Value, LowerError> {
        let rv = self.rvalue(e)?;
        Ok(self.b.cmp(CmpPred::Ne, rv.val, Value::Const(0)))
    }

    fn rvalue(&mut self, e: ExprId) -> Result<RV, LowerError> {
        let prog = self.prog;
        match prog[e] {
            Expr::Int(v) => Ok(RV {
                val: Value::Const(v),
                ty: Types::LONG,
            }),
            Expr::SizeOf(t) => Ok(RV {
                val: Value::Const(self.cx.slots_of(t)? as i64),
                ty: Types::LONG,
            }),
            Expr::Ident(name) => {
                if self.cx.locals.lookup(name).is_none()
                    && self.cx.globals[name.0 as usize].is_none()
                {
                    // A bare function name (spawn target).
                    if let Some((fid, _, _)) = self.cx.funcs[name.0 as usize] {
                        return Ok(RV {
                            val: Value::Func(fid),
                            ty: Types::LONG,
                        });
                    }
                }
                let lv = self.lvalue(e)?;
                self.load_lv(&lv)
            }
            Expr::Unary { op, operand } => match op {
                UnaryOp::Neg => {
                    let rv = self.rvalue(operand)?;
                    let v = self.b.bin(atomig_mir::BinOp::Sub, Value::Const(0), rv.val);
                    Ok(RV { val: v, ty: rv.ty })
                }
                UnaryOp::Not => {
                    let rv = self.rvalue(operand)?;
                    let c = self.b.cmp(CmpPred::Eq, rv.val, Value::Const(0));
                    let v = self.b.cast(c, Type::I32);
                    Ok(RV {
                        val: v,
                        ty: Types::INT,
                    })
                }
                UnaryOp::BitNot => {
                    let rv = self.rvalue(operand)?;
                    let v = self.b.bin(atomig_mir::BinOp::Xor, rv.val, Value::Const(-1));
                    Ok(RV { val: v, ty: rv.ty })
                }
                UnaryOp::Deref => {
                    let lv = self.lvalue(e)?;
                    self.load_lv(&lv)
                }
                UnaryOp::AddrOf => {
                    let lv = self.lvalue(operand)?;
                    Ok(RV {
                        val: lv.addr,
                        ty: self.cx.types.ptr(lv.ty),
                    })
                }
            },
            Expr::Binary { op, lhs, rhs } => self.binary(op, lhs, rhs),
            Expr::Assign { lhs, rhs, op } => {
                let lv = self.lvalue(lhs)?;
                let val = match op {
                    None => self.rvalue(rhs)?.val,
                    Some(bop) => {
                        let old = self.load_lv(&lv)?;
                        let r = self.rvalue(rhs)?;
                        self.arith(bop, old.val, r.val, old.ty, r.ty)?.val
                    }
                };
                self.store_lv(&lv, val)?;
                Ok(RV { val, ty: lv.ty })
            }
            Expr::IncDec {
                target,
                delta,
                prefix,
            } => {
                let lv = self.lvalue(target)?;
                let old = self.load_lv(&lv)?;
                let new = match self.cx.types[lv.ty] {
                    CType::Ptr(inner) => {
                        let mty = self.cx.mir_type(inner)?;
                        self.b.gep(mty, old.val, vec![GepIndex::Const(delta)])
                    }
                    _ => self
                        .b
                        .bin(atomig_mir::BinOp::Add, old.val, Value::Const(delta)),
                };
                self.store_lv(&lv, new)?;
                Ok(RV {
                    val: if prefix { new } else { old.val },
                    ty: lv.ty,
                })
            }
            Expr::Call { name, args } => self.call(name, &prog[args]),
            Expr::Index { .. } | Expr::Member { .. } => {
                let lv = self.lvalue(e)?;
                self.load_lv(&lv)
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let slot = self.b.alloca(Type::I64);
                let c = self.cond_value(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let end_bb = self.b.new_block();
                self.b.cond_br(c, then_bb, else_bb);
                self.b.switch_to(then_bb);
                let tv = self.rvalue(then_e)?;
                self.b.store(Type::I64, slot, tv.val);
                self.b.br(end_bb);
                self.b.switch_to(else_bb);
                let ev = self.rvalue(else_e)?;
                self.b.store(Type::I64, slot, ev.val);
                self.b.br(end_bb);
                self.b.switch_to(end_bb);
                let v = self.b.load(Type::I64, slot);
                Ok(RV { val: v, ty: tv.ty })
            }
            Expr::Asm(text) => {
                match classify(&prog[text]) {
                    AsmIdiom::FullFence => self.b.fence(Ordering::SeqCst),
                    AsmIdiom::Pause => {
                        self.b.call_builtin(Builtin::Pause, vec![], Type::Void);
                    }
                    AsmIdiom::CompilerBarrier => {
                        // No hardware effect, but keep the marker: §6 of
                        // the paper suggests these sites as additional
                        // synchronization-detection entry points.
                        self.b
                            .call_builtin(Builtin::CompilerBarrier, vec![], Type::Void);
                    }
                    AsmIdiom::Unsupported(s) => {
                        return err(format!("unsupported inline assembly `{s}`"))
                    }
                }
                Ok(RV {
                    val: Value::Const(0),
                    ty: Types::INT,
                })
            }
            Expr::Cast { ty, expr } => {
                let rv = self.rvalue(expr)?;
                let mty = self.cx.mir_type(ty)?;
                if !mty.is_scalar() {
                    return err("cast to non-scalar type");
                }
                let v = self.b.cast(rv.val, mty);
                Ok(RV { val: v, ty })
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, lhs: ExprId, rhs: ExprId) -> Result<RV, LowerError> {
        match op {
            BinaryOp::LAnd | BinaryOp::LOr => {
                let slot = self.b.alloca(Type::I32);
                let l = self.cond_value(lhs)?;
                let li = self.b.cast(l, Type::I32);
                self.b.store(Type::I32, slot, li);
                let rhs_bb = self.b.new_block();
                let end_bb = self.b.new_block();
                match op {
                    BinaryOp::LAnd => self.b.cond_br(l, rhs_bb, end_bb),
                    _ => self.b.cond_br(l, end_bb, rhs_bb),
                }
                self.b.switch_to(rhs_bb);
                let r = self.cond_value(rhs)?;
                let ri = self.b.cast(r, Type::I32);
                self.b.store(Type::I32, slot, ri);
                self.b.br(end_bb);
                self.b.switch_to(end_bb);
                let v = self.b.load(Type::I32, slot);
                Ok(RV {
                    val: v,
                    ty: Types::INT,
                })
            }
            _ => {
                let l = self.rvalue(lhs)?;
                let r = self.rvalue(rhs)?;
                self.arith(op, l.val, r.val, l.ty, r.ty)
            }
        }
    }

    fn arith(
        &mut self,
        op: BinaryOp,
        l: Value,
        r: Value,
        lty: TyId,
        rty: TyId,
    ) -> Result<RV, LowerError> {
        use atomig_mir::BinOp as B;
        // Pointer arithmetic: p + n / p - n scale by the pointee size.
        if let (CType::Ptr(inner), BinaryOp::Add | BinaryOp::Sub) = (self.cx.types[lty], op) {
            let mty = self.cx.mir_type(inner)?;
            let idx = if op == BinaryOp::Sub {
                self.b.bin(B::Sub, Value::Const(0), r)
            } else {
                r
            };
            let v = self.b.gep(mty, l, vec![GepIndex::Dyn(idx)]);
            return Ok(RV { val: v, ty: lty });
        }
        let cmp = |p: CmpPred| Some(p);
        let pred = match op {
            BinaryOp::Eq => cmp(CmpPred::Eq),
            BinaryOp::Ne => cmp(CmpPred::Ne),
            BinaryOp::Lt => cmp(CmpPred::Lt),
            BinaryOp::Le => cmp(CmpPred::Le),
            BinaryOp::Gt => cmp(CmpPred::Gt),
            BinaryOp::Ge => cmp(CmpPred::Ge),
            _ => None,
        };
        if let Some(p) = pred {
            let c = self.b.cmp(p, l, r);
            let v = self.b.cast(c, Type::I32);
            return Ok(RV {
                val: v,
                ty: Types::INT,
            });
        }
        let bop = match op {
            BinaryOp::Add => B::Add,
            BinaryOp::Sub => B::Sub,
            BinaryOp::Mul => B::Mul,
            BinaryOp::Div => B::Div,
            BinaryOp::Rem => B::Rem,
            BinaryOp::And => B::And,
            BinaryOp::Or => B::Or,
            BinaryOp::Xor => B::Xor,
            BinaryOp::Shl => B::Shl,
            BinaryOp::Shr => B::Shr,
            _ => unreachable!("handled above"),
        };
        let v = self.b.bin(bop, l, r);
        let ty = if lty == Types::LONG || rty == Types::LONG {
            Types::LONG
        } else {
            lty
        };
        Ok(RV { val: v, ty })
    }

    // ---- calls ----

    fn ord_arg(&self, e: ExprId) -> Result<Ordering, LowerError> {
        let prog = self.prog;
        match prog[e] {
            Expr::Ident(s) => match &prog[s] {
                "relaxed" | "memory_order_relaxed" => Ok(Ordering::Relaxed),
                "acquire" | "memory_order_acquire" => Ok(Ordering::Acquire),
                "release" | "memory_order_release" => Ok(Ordering::Release),
                "acq_rel" | "memory_order_acq_rel" => Ok(Ordering::AcqRel),
                "seq_cst" | "memory_order_seq_cst" => Ok(Ordering::SeqCst),
                other => err(format!("unknown memory order `{other}`")),
            },
            _ => err(format!(
                "memory order must be a keyword, got {}",
                prog.render_expr(e)
            )),
        }
    }

    fn ptr_arg(&mut self, e: ExprId) -> Result<(Value, TyId), LowerError> {
        let rv = self.rvalue(e)?;
        match self.cx.types[rv.ty] {
            CType::Ptr(inner) => Ok((rv.val, inner)),
            _ => err(format!(
                "expected pointer argument, got {}",
                self.cx.show(rv.ty)
            )),
        }
    }

    fn call(&mut self, name: Sym, args: &[ExprId]) -> Result<RV, LowerError> {
        let prog = self.prog;
        let sym = name;
        let name = &prog[sym];
        let argc = args.len();
        let need = |n: usize| -> Result<(), LowerError> {
            if argc != n {
                err(format!("`{name}` takes {n} argument(s), got {argc}"))
            } else {
                Ok(())
            }
        };
        match name {
            // -- atomic builtins (§3.2's compiler builtins) --
            "atomic_load" | "atomic_load_explicit" => {
                let ord = if name.ends_with("explicit") {
                    need(2)?;
                    self.ord_arg(args[1])?
                } else {
                    need(1)?;
                    Ordering::SeqCst
                };
                let (p, ty) = self.ptr_arg(args[0])?;
                let mty = self.cx.mir_type(ty)?;
                let v = self.b.load_ord(mty, p, ord, false);
                Ok(RV { val: v, ty })
            }
            "atomic_store" | "atomic_store_explicit" => {
                let ord = if name.ends_with("explicit") {
                    need(3)?;
                    self.ord_arg(args[2])?
                } else {
                    need(2)?;
                    Ordering::SeqCst
                };
                let (p, ty) = self.ptr_arg(args[0])?;
                let v = self.rvalue(args[1])?;
                let mty = self.cx.mir_type(ty)?;
                self.b.store_ord(mty, p, v.val, ord, false);
                Ok(RV { val: v.val, ty })
            }
            "cmpxchg" | "cmpxchg_explicit" => {
                let ord = if name.ends_with("explicit") {
                    need(4)?;
                    self.ord_arg(args[3])?
                } else {
                    need(3)?;
                    Ordering::SeqCst
                };
                let (p, ty) = self.ptr_arg(args[0])?;
                let e = self.rvalue(args[1])?;
                let n = self.rvalue(args[2])?;
                let mty = self.cx.mir_type(ty)?;
                let old = self.b.cmpxchg(mty, p, e.val, n.val, ord);
                Ok(RV { val: old, ty })
            }
            "xchg" | "xchg_explicit" | "faa" | "faa_explicit" | "fas" | "fas_explicit" | "fand"
            | "for_" | "fxor" => {
                let (op, base_args) = match name.trim_end_matches("_explicit") {
                    "xchg" => (RmwOp::Xchg, 2),
                    "faa" => (RmwOp::Add, 2),
                    "fas" => (RmwOp::Sub, 2),
                    "fand" => (RmwOp::And, 2),
                    "for_" => (RmwOp::Or, 2),
                    "fxor" => (RmwOp::Xor, 2),
                    _ => unreachable!(),
                };
                let ord = if name.ends_with("explicit") {
                    need(base_args + 1)?;
                    self.ord_arg(args[base_args])?
                } else {
                    need(base_args)?;
                    Ordering::SeqCst
                };
                let (p, ty) = self.ptr_arg(args[0])?;
                let v = self.rvalue(args[1])?;
                let mty = self.cx.mir_type(ty)?;
                let old = self.b.rmw(op, mty, p, v.val, ord);
                Ok(RV { val: old, ty })
            }
            "fence" => {
                need(0)?;
                self.b.fence(Ordering::SeqCst);
                Ok(RV {
                    val: Value::Const(0),
                    ty: Types::VOID,
                })
            }
            "fence_explicit" => {
                need(1)?;
                let ord = self.ord_arg(args[0])?;
                self.b.fence(ord);
                Ok(RV {
                    val: Value::Const(0),
                    ty: Types::VOID,
                })
            }
            // -- runtime builtins --
            "spawn" => {
                need(2)?;
                let f = self.rvalue(args[0])?;
                let a = self.rvalue(args[1])?;
                let v = self
                    .b
                    .call_builtin(Builtin::Spawn, vec![f.val, a.val], Type::I64);
                Ok(RV {
                    val: v,
                    ty: Types::LONG,
                })
            }
            "join" | "assert" | "assume" | "barrier_wait" | "free" | "print" => {
                need(1)?;
                let a = self.rvalue(args[0])?;
                let b = match name {
                    "join" => Builtin::Join,
                    "assert" => Builtin::Assert,
                    "assume" => Builtin::Assume,
                    "barrier_wait" => Builtin::BarrierWait,
                    "free" => Builtin::Free,
                    _ => Builtin::Print,
                };
                self.b.call_builtin(b, vec![a.val], Type::Void);
                Ok(RV {
                    val: Value::Const(0),
                    ty: Types::VOID,
                })
            }
            "malloc" => {
                need(1)?;
                let a = self.rvalue(args[0])?;
                let v = self.b.call_builtin(Builtin::Malloc, vec![a.val], Type::I64);
                Ok(RV {
                    val: v,
                    ty: Types::LONG,
                })
            }
            "pause" | "cpu_relax" => {
                need(0)?;
                self.b.call_builtin(Builtin::Pause, vec![], Type::Void);
                Ok(RV {
                    val: Value::Const(0),
                    ty: Types::VOID,
                })
            }
            "nondet" => {
                need(0)?;
                let v = self.b.call_builtin(Builtin::Nondet, vec![], Type::I64);
                Ok(RV {
                    val: v,
                    ty: Types::LONG,
                })
            }
            // -- user functions --
            _ => {
                let Some((fid, ret, params)) = self.cx.funcs[sym.0 as usize] else {
                    return err(format!("unknown function `{name}`"));
                };
                if params.len() != argc {
                    return err(format!(
                        "`{name}` takes {} argument(s), got {argc}",
                        params.len()
                    ));
                }
                let mut vals = Vec::with_capacity(argc);
                for &a in args {
                    vals.push(self.rvalue(a)?.val);
                }
                let rty = self.cx.mir_type(ret)?;
                let v = self.b.call(Callee::Func(fid), vals, rty);
                Ok(RV { val: v, ty: ret })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use atomig_mir::{InstKind, Ordering};

    #[test]
    fn compiles_message_passing() {
        let m = compile(
            r#"
            int flag; int msg;
            void writer(long unused) { msg = 42; flag = 1; }
            int reader() {
              while (flag == 0) {}
              return msg;
            }
            "#,
            "mp",
        )
        .unwrap();
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.globals.len(), 2);
        // The reader has a loop: 2 functions, one with >= 3 blocks.
        assert!(m.funcs[1].blocks.len() >= 3);
    }

    #[test]
    fn volatile_accesses_carry_the_flag() {
        let m = compile(
            r#"
            volatile int flag;
            int read_it() { return flag; }
            void set_it() { flag = 1; }
            "#,
            "v",
        )
        .unwrap();
        let loads: Vec<bool> = m
            .funcs
            .iter()
            .flat_map(|f| f.insts())
            .filter_map(|(_, i)| match &i.kind {
                InstKind::Load { volatile, .. } | InstKind::Store { volatile, .. } => {
                    Some(*volatile)
                }
                _ => None,
            })
            .collect();
        assert!(loads.contains(&true));
    }

    #[test]
    fn atomic_qualifier_makes_accesses_sc() {
        let m = compile(
            r#"
            atomic int seq;
            int get() { return seq; }
            void bump() { seq = seq + 1; }
            "#,
            "a",
        )
        .unwrap();
        let sc_accesses = m
            .funcs
            .iter()
            .flat_map(|f| f.insts())
            .filter(|(_, i)| i.kind.ordering() == Some(Ordering::SeqCst))
            .count();
        assert!(sc_accesses >= 3); // load in get, load+store in bump
    }

    #[test]
    fn atomic_builtins_lower_to_atomic_instructions() {
        let m = compile(
            r#"
            int lock_word;
            long counter;
            void ops() {
              cmpxchg(&lock_word, 0, 1);
              xchg(&lock_word, 0);
              faa(&counter, 1);
              atomic_store_explicit(&lock_word, 0, release);
              int v = atomic_load_explicit(&lock_word, acquire);
              fence();
            }
            "#,
            "b",
        )
        .unwrap();
        let f = &m.funcs[0];
        let mut kinds = vec![];
        for (_, i) in f.insts() {
            match &i.kind {
                InstKind::Cmpxchg(c) => kinds.push(format!("cmpxchg:{}", c.ord)),
                InstKind::Rmw { op, ord, .. } => kinds.push(format!("rmw:{}:{ord}", op.mnemonic())),
                InstKind::Store { ord, .. } if ord.is_atomic() => {
                    kinds.push(format!("store:{ord}"))
                }
                InstKind::Load { ord, .. } if ord.is_atomic() => kinds.push(format!("load:{ord}")),
                InstKind::Fence { ord } => kinds.push(format!("fence:{ord}")),
                _ => {}
            }
        }
        assert!(kinds.contains(&"cmpxchg:seq_cst".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"rmw:xchg:seq_cst".to_string()));
        assert!(kinds.contains(&"rmw:add:seq_cst".to_string()));
        assert!(kinds.contains(&"store:rel".to_string()));
        assert!(kinds.contains(&"load:acq".to_string()));
        assert!(kinds.contains(&"fence:seq_cst".to_string()));
    }

    #[test]
    fn inline_asm_normalized_to_builtins() {
        let m = compile(
            r#"
            void sync_point() {
              __asm__ volatile("mfence" ::: "memory");
              asm("pause");
              asm("" ::: "memory");
            }
            "#,
            "asm",
        )
        .unwrap();
        let f = &m.funcs[0];
        let fences = f
            .insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Fence { .. }))
            .count();
        assert_eq!(fences, 1);
        let pauses = f
            .insts()
            .filter(|(_, i)| {
                matches!(
                    i.kind,
                    InstKind::Call {
                        callee: atomig_mir::Callee::Builtin(atomig_mir::Builtin::Pause),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pauses, 1);
    }

    #[test]
    fn unsupported_asm_is_an_error() {
        let e = compile("void f() { asm(\"movl %eax, %ebx\"); }", "bad").unwrap_err();
        assert!(e.contains("unsupported inline assembly"));
    }

    #[test]
    fn structs_members_and_heap() {
        let m = compile(
            r#"
            struct Node { long key; long val; struct Node *next; };
            struct Node *make(long k) {
              struct Node *n = (struct Node*)malloc(sizeof(struct Node));
              n->key = k;
              n->next = (struct Node*)0;
              return n;
            }
            long key_of(struct Node *n) { return n->key; }
            "#,
            "s",
        )
        .unwrap();
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields.len(), 3);
        // The gep into Node appears in both functions.
        let geps = m
            .funcs
            .iter()
            .flat_map(|f| f.insts())
            .filter(|(_, i)| matches!(i.kind, InstKind::Gep { .. }))
            .count();
        assert!(geps >= 3);
    }

    #[test]
    fn control_flow_and_arrays_execute() {
        // Compile and actually run via the verifier only (execution is
        // covered by atomig-wmm's integration tests).
        let m = compile(
            r#"
            int data[8];
            int sum_all() {
              int s = 0;
              for (int i = 0; i < 8; i++) s += data[i];
              return s;
            }
            int clamp(int x) { return x > 100 ? 100 : (x < 0 ? 0 : x); }
            int both(int a, int b) { return a && b || a > b; }
            "#,
            "cf",
        )
        .unwrap();
        assert_eq!(m.funcs.len(), 3);
    }

    #[test]
    fn spawn_references_functions() {
        let m = compile(
            r#"
            int done;
            void worker(long arg) { done = 1; }
            void main_fn() {
              long t = spawn(worker, 7);
              join(t);
              assert(done);
            }
            "#,
            "sp",
        )
        .unwrap();
        let main = &m.funcs[1];
        let has_spawn = main.insts().any(|(_, i)| {
            matches!(
                &i.kind,
                InstKind::Call {
                    callee: atomig_mir::Callee::Builtin(atomig_mir::Builtin::Spawn),
                    args,
                    ..
                } if matches!(args[0], atomig_mir::Value::Func(_))
            )
        });
        assert!(has_spawn);
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let m = compile(
            r#"
            long buf[16];
            long sum(long *p, int n) {
              long s = 0;
              for (int i = 0; i < n; i++) { s += *p; p++; }
              return s;
            }
            "#,
            "pa",
        )
        .unwrap();
        // p++ lowers to a gep.
        let f = &m.funcs[0];
        assert!(f
            .insts()
            .any(|(_, i)| matches!(i.kind, InstKind::Gep { .. })));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        assert!(compile("int f() { return nope; }", "e").is_err());
    }

    #[test]
    fn unknown_function_is_an_error() {
        assert!(compile("void f() { missing(1); }", "e").is_err());
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        assert!(compile("void f() { break; }", "e").is_err());
    }

    /// Builds a program that nests `k` levels of one construct.
    type Nest = fn(usize) -> String;

    const DEEP: &[(&str, Nest)] = &[
        ("parentheses", |k| {
            format!("long f() {{ return {}1{}; }}", "(".repeat(k), ")".repeat(k))
        }),
        ("prefix minus", |k| {
            format!("long f() {{ return {}1; }}", "- ".repeat(k))
        }),
        ("casts", |k| {
            format!("long f() {{ return {}1; }}", "(long)".repeat(k))
        }),
        ("sum", |k| {
            format!("long f() {{ return 1{}; }}", " + 1".repeat(k))
        }),
        ("logical and", |k| {
            format!("long f(long a) {{ return a{}; }}", " && a".repeat(k))
        }),
        ("conditional", |k| {
            format!("long f(long a) {{ return {}0; }}", "a ? 1 : ".repeat(k))
        }),
        ("assignment", |k| {
            format!("long f(long a) {{ {}1; return a; }}", "a = ".repeat(k))
        }),
        ("calls", |k| {
            format!(
                "long g(long a) {{ return a; }} long f() {{ return {}1{}; }}",
                "g(".repeat(k),
                ")".repeat(k)
            )
        }),
        ("pointer index", |k| {
            format!("long f(long *p) {{ return p{}; }}", "[0]".repeat(k))
        }),
        ("blocks", |k| {
            format!("void f() {{ {}{} }}", "{".repeat(k), "}".repeat(k))
        }),
        ("ifs", |k| {
            format!("void f(long a) {{ {}a = 1; }}", "if (a) ".repeat(k))
        }),
        ("loops", |k| {
            format!("void f(long a) {{ {}a = 1; }}", "while (a) ".repeat(k))
        }),
    ];

    #[test]
    fn the_deepest_accepted_programs_lower_on_a_small_stack() {
        let depth_error = |src: &str| {
            let toks = crate::lex(src).unwrap();
            matches!(crate::parse(&toks), Err(e) if e.msg.contains("nest deeper"))
        };
        // Worker threads get 2 MiB stacks; the frontend must fit in one.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let outcomes = worker
            .spawn(move || {
                DEEP.iter()
                    .map(|(what, make)| {
                        let max = crate::MAX_DEPTH as usize;
                        let k = (1..=max + 1)
                            .rev()
                            .find(|&k| !depth_error(&make(k)))
                            .unwrap();
                        assert!(depth_error(&make(k + 1)), "{what}: {k} levels accepted");
                        (*what, k, compile(&make(k), "deep").map(|_| ()))
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        for (what, k, outcome) in outcomes {
            assert!(
                k + 8 >= crate::MAX_DEPTH as usize,
                "{what}: only {k} levels"
            );
            match outcome {
                Ok(()) => {}
                // Indexing a `long` is a type error, found on the way back up.
                Err(e) => assert!(
                    what == "pointer index" && e.contains("cannot index into Long"),
                    "{what}: {e}"
                ),
            }
        }
    }
}
