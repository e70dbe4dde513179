//! A parser for the textual MIR format, mainly used to write test programs
//! and litmus tests by hand.
//!
//! The grammar is line-oriented LLVM-ish assembly; see the crate-level docs
//! for an example. `;` starts a comment.

use crate::func::{Block, BlockId, Function, InstId};
use crate::inst::{
    BinOp, Builtin, Callee, CmpPred, Cmpxchg, GepIndex, Inst, InstKind, Ordering, RmwOp, Terminator,
};
use crate::module::{FuncId, GlobalDef, GlobalId, Module, StructDef, StructId};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error produced while parsing textual MIR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Global(String),  // @name
    Percent(String), // %name
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Bang,
}

#[derive(Debug)]
struct Lexer {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, ParseError> {
    let mut toks = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line_num = lineno as u32 + 1;
        let line = match line.find(';') {
            Some(i) => &line[..i],
            None => line,
        };
        let mut chars = line.char_indices().peekable();
        while let Some(&(i, c)) = chars.peek() {
            match c {
                ' ' | '\t' | '\r' => {
                    chars.next();
                }
                '{' => {
                    toks.push((Tok::LBrace, line_num));
                    chars.next();
                }
                '}' => {
                    toks.push((Tok::RBrace, line_num));
                    chars.next();
                }
                '(' => {
                    toks.push((Tok::LParen, line_num));
                    chars.next();
                }
                ')' => {
                    toks.push((Tok::RParen, line_num));
                    chars.next();
                }
                '[' => {
                    toks.push((Tok::LBracket, line_num));
                    chars.next();
                }
                ']' => {
                    toks.push((Tok::RBracket, line_num));
                    chars.next();
                }
                ',' => {
                    toks.push((Tok::Comma, line_num));
                    chars.next();
                }
                ':' => {
                    toks.push((Tok::Colon, line_num));
                    chars.next();
                }
                '=' => {
                    toks.push((Tok::Eq, line_num));
                    chars.next();
                }
                '!' => {
                    toks.push((Tok::Bang, line_num));
                    chars.next();
                }
                '"' => {
                    chars.next();
                    let start = i + 1;
                    let mut end = start;
                    for (j, c2) in chars.by_ref() {
                        if c2 == '"' {
                            end = j;
                            break;
                        }
                    }
                    toks.push((Tok::Str(line[start..end].to_string()), line_num));
                }
                '@' | '%' => {
                    chars.next();
                    let start = i + 1;
                    let mut end = line.len();
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_alphanumeric() || c2 == '_' || c2 == '.' {
                            chars.next();
                        } else {
                            end = j;
                            break;
                        }
                        end = j + c2.len_utf8();
                    }
                    let name = line[start..end].to_string();
                    if c == '@' {
                        toks.push((Tok::Global(name), line_num));
                    } else {
                        toks.push((Tok::Percent(name), line_num));
                    }
                }
                '-' | '0'..='9' => {
                    let start = i;
                    chars.next();
                    let mut end = line.len();
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_ascii_digit() {
                            chars.next();
                        } else {
                            end = j;
                            break;
                        }
                        end = j + 1;
                    }
                    let text = &line[start..end];
                    let v = text.parse::<i64>().map_err(|_| ParseError {
                        msg: format!("bad integer `{text}`"),
                        line: line_num,
                    })?;
                    toks.push((Tok::Int(v), line_num));
                }
                _ if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    chars.next();
                    let mut end = line.len();
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_alphanumeric() || c2 == '_' {
                            chars.next();
                        } else {
                            end = j;
                            break;
                        }
                        end = j + c2.len_utf8();
                    }
                    toks.push((Tok::Ident(line[start..end].to_string()), line_num));
                }
                _ => {
                    return Err(ParseError {
                        msg: format!("unexpected character `{c}`"),
                        line: line_num,
                    })
                }
            }
        }
    }
    Ok(toks)
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line(),
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        let line = self.line();
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(ParseError {
                msg: format!("expected {t:?}, got {got:?}"),
                line,
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(ParseError {
                msg: format!("expected identifier, got {got:?}"),
                line,
            }),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }
}

struct Names {
    structs: HashMap<String, StructId>,
    globals: HashMap<String, GlobalId>,
    funcs: HashMap<String, FuncId>,
}

/// Parses a textual module.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input or
/// unresolved names.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;

    // Pre-pass: collect declared names so forward references resolve.
    let mut names = Names {
        structs: HashMap::new(),
        globals: HashMap::new(),
        funcs: HashMap::new(),
    };
    {
        let mut i = 0;
        while i < toks.len() {
            match &toks[i].0 {
                Tok::Ident(kw) if kw == "struct" => {
                    if let Some((Tok::Percent(n), _)) = toks.get(i + 1) {
                        let id = StructId(names.structs.len() as u32);
                        names.structs.insert(n.clone(), id);
                    }
                }
                Tok::Ident(kw) if kw == "global" => {
                    if let Some((Tok::Global(n), _)) = toks.get(i + 1) {
                        let id = GlobalId(names.globals.len() as u32);
                        names.globals.insert(n.clone(), id);
                    }
                }
                Tok::Ident(kw) if kw == "fn" => {
                    if let Some((Tok::Global(n), _)) = toks.get(i + 1) {
                        let id = FuncId(names.funcs.len() as u32);
                        names.funcs.insert(n.clone(), id);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    let mut lx = Lexer { toks, pos: 0 };
    let mut m = Module::new("module");

    if lx.eat_ident("module") {
        if let Some(Tok::Str(s)) = lx.peek() {
            m.name = s.clone();
            lx.next();
        }
    }

    while lx.peek().is_some() {
        if lx.eat_ident("struct") {
            let name = match lx.next() {
                Some(Tok::Percent(n)) => n,
                got => return Err(lx.err(format!("expected struct name, got {got:?}"))),
            };
            lx.expect(Tok::LBrace)?;
            let mut fields = Vec::new();
            if !lx.eat(&Tok::RBrace) {
                loop {
                    fields.push(parse_type(&mut lx, &names)?);
                    if lx.eat(&Tok::RBrace) {
                        break;
                    }
                    lx.expect(Tok::Comma)?;
                }
            }
            m.add_struct(StructDef { name, fields });
        } else if lx.eat_ident("global") {
            let name = match lx.next() {
                Some(Tok::Global(n)) => n,
                got => return Err(lx.err(format!("expected global name, got {got:?}"))),
            };
            lx.expect(Tok::Colon)?;
            let ty = parse_type(&mut lx, &names)?;
            lx.expect(Tok::Eq)?;
            let init = parse_init(&mut lx)?;
            m.add_global(GlobalDef { name, ty, init });
        } else if lx.eat_ident("fn") {
            let f = parse_function(&mut lx, &names)?;
            m.add_func(f);
        } else {
            return Err(lx.err(format!("expected top-level item, got {:?}", lx.peek())));
        }
    }

    // Normalize global initializers to their slot counts.
    let sizes = m.struct_slot_sizes();
    for g in &mut m.globals {
        let n = g.ty.slot_count(&sizes) as usize;
        g.init.resize(n.max(1), 0);
    }
    Ok(m)
}

fn parse_init(lx: &mut Lexer) -> Result<Vec<i64>, ParseError> {
    if lx.eat(&Tok::LBracket) {
        let mut vals = Vec::new();
        if !lx.eat(&Tok::RBracket) {
            loop {
                match lx.next() {
                    Some(Tok::Int(v)) => vals.push(v),
                    got => return Err(lx.err(format!("expected integer, got {got:?}"))),
                }
                if lx.eat(&Tok::RBracket) {
                    break;
                }
                lx.expect(Tok::Comma)?;
            }
        }
        Ok(vals)
    } else {
        match lx.next() {
            Some(Tok::Int(v)) => Ok(vec![v]),
            got => Err(lx.err(format!("expected initializer, got {got:?}"))),
        }
    }
}

fn parse_type(lx: &mut Lexer, names: &Names) -> Result<Type, ParseError> {
    match lx.next() {
        Some(Tok::Ident(s)) => match s.as_str() {
            "void" => Ok(Type::Void),
            "i1" => Ok(Type::I1),
            "i8" => Ok(Type::I8),
            "i16" => Ok(Type::I16),
            "i32" => Ok(Type::I32),
            "i64" => Ok(Type::I64),
            "ptr" => Ok(Type::ptr_to(parse_type(lx, names)?)),
            other => Err(lx.err(format!("unknown type `{other}`"))),
        },
        Some(Tok::Percent(n)) => names
            .structs
            .get(&n)
            .map(|&sid| Type::struct_of(sid))
            .ok_or_else(|| lx.err(format!("unknown struct `%{n}`"))),
        Some(Tok::LBracket) => {
            let n = match lx.next() {
                Some(Tok::Int(v)) if v >= 0 => u32::try_from(v)
                    .map_err(|_| lx.err(format!("array length {v} out of range")))?,
                got => return Err(lx.err(format!("expected array length, got {got:?}"))),
            };
            let x = lx.expect_ident()?;
            if x != "x" {
                return Err(lx.err("expected `x` in array type"));
            }
            let elem = parse_type(lx, names)?;
            lx.expect(Tok::RBracket)?;
            Ok(Type::array_of(elem, n))
        }
        got => Err(lx.err(format!("expected type, got {got:?}"))),
    }
}

struct FnCtx {
    params: HashMap<String, u32>,
    results: HashMap<String, InstId>,
}

fn parse_function(lx: &mut Lexer, names: &Names) -> Result<Function, ParseError> {
    let name = match lx.next() {
        Some(Tok::Global(n)) => n,
        got => return Err(lx.err(format!("expected function name, got {got:?}"))),
    };
    lx.expect(Tok::LParen)?;
    let mut params = Vec::new();
    if !lx.eat(&Tok::RParen) {
        loop {
            let pname = match lx.next() {
                Some(Tok::Percent(n)) => n,
                got => return Err(lx.err(format!("expected param name, got {got:?}"))),
            };
            lx.expect(Tok::Colon)?;
            let ty = parse_type(lx, names)?;
            params.push((pname, ty));
            if lx.eat(&Tok::RParen) {
                break;
            }
            lx.expect(Tok::Comma)?;
        }
    }
    lx.expect(Tok::Colon)?;
    let ret = parse_type(lx, names)?;
    lx.expect(Tok::LBrace)?;

    let mut ctx = FnCtx {
        params: params
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i as u32))
            .collect(),
        results: HashMap::new(),
    };

    let mut f = Function::new(name, params, ret);
    f.blocks.clear();

    // Symbolic terminators, resolved once every label is known.
    enum SymTerm {
        Br(String),
        CondBr(Value, String, String),
        Ret(Option<Value>),
        Unreachable,
    }
    let mut label_ids: HashMap<String, BlockId> = HashMap::new();
    let mut terms: Vec<SymTerm> = Vec::new();
    let mut in_block = false;
    // The open block's instructions; they move into an exact-size `Vec`
    // when the block closes, and the buffer is reused.
    let mut cur_insts: Vec<Inst> = Vec::new();

    loop {
        if lx.eat(&Tok::RBrace) {
            if in_block {
                return Err(lx.err("block missing terminator"));
            }
            break;
        }
        // A label?
        if let (Some(Tok::Ident(_)), Some(Tok::Colon)) = (lx.peek(), lx.peek2()) {
            if in_block {
                return Err(lx.err("previous block missing terminator"));
            }
            label_ids.insert(lx.expect_ident()?, BlockId(f.blocks.len() as u32));
            lx.expect(Tok::Colon)?;
            in_block = true;
            continue;
        }
        if !in_block {
            return Err(lx.err("instruction outside a block"));
        }
        // A terminator?
        let term = if lx.eat_ident("br") {
            Some(SymTerm::Br(lx.expect_ident()?))
        } else if lx.eat_ident("condbr") {
            let cond = parse_value(lx, names, &ctx)?;
            lx.expect(Tok::Comma)?;
            let t = lx.expect_ident()?;
            lx.expect(Tok::Comma)?;
            let e = lx.expect_ident()?;
            Some(SymTerm::CondBr(cond, t, e))
        } else if lx.eat_ident("ret") {
            let v = if matches!(
                lx.peek(),
                Some(Tok::Int(_)) | Some(Tok::Percent(_)) | Some(Tok::Global(_))
            ) || matches!(lx.peek(), Some(Tok::Ident(s)) if s == "null")
            {
                Some(parse_value(lx, names, &ctx)?)
            } else {
                None
            };
            Some(SymTerm::Ret(v))
        } else if lx.eat_ident("unreachable") {
            Some(SymTerm::Unreachable)
        } else {
            None
        };
        if let Some(term) = term {
            let mut insts = Vec::with_capacity(cur_insts.len());
            insts.append(&mut cur_insts);
            f.blocks.push(Block {
                insts,
                term: Terminator::Unreachable,
            });
            terms.push(term);
            in_block = false;
            continue;
        }
        // An instruction, with or without a result binding.
        let id = f.fresh_inst_id();
        if let (Some(Tok::Percent(_)), Some(Tok::Eq)) = (lx.peek(), lx.peek2()) {
            let Some(Tok::Percent(n)) = lx.next() else {
                unreachable!()
            };
            lx.next(); // '='
            ctx.results.insert(n, id);
        }
        let kind = parse_inst(lx, names, &ctx)?;
        // Optional `!N` source-span suffix.
        let span = if lx.eat(&Tok::Bang) {
            match lx.next() {
                Some(Tok::Int(v)) if v >= 0 => v as u32,
                _ => return Err(lx.err("expected line number after `!`")),
            }
        } else {
            0
        };
        cur_insts.push(Inst::with_span(id, kind, span));
    }

    // Resolve labels.
    let resolve = |l: &str, lx: &Lexer| {
        label_ids
            .get(l)
            .copied()
            .ok_or_else(|| lx.err(format!("unknown label `{l}`")))
    };
    for (block, sym) in f.blocks.iter_mut().zip(&terms) {
        block.term = match sym {
            SymTerm::Br(t) => Terminator::Br(resolve(t, lx)?),
            SymTerm::CondBr(c, t, e) => Terminator::CondBr {
                cond: *c,
                then_bb: resolve(t, lx)?,
                else_bb: resolve(e, lx)?,
            },
            SymTerm::Ret(v) => Terminator::Ret(*v),
            SymTerm::Unreachable => Terminator::Unreachable,
        };
    }
    if f.blocks.is_empty() {
        return Err(lx.err("function has no blocks"));
    }
    Ok(f)
}

fn parse_value(lx: &mut Lexer, names: &Names, ctx: &FnCtx) -> Result<Value, ParseError> {
    match lx.next() {
        Some(Tok::Int(v)) => Ok(Value::Const(v)),
        Some(Tok::Ident(s)) if s == "null" => Ok(Value::Null),
        Some(Tok::Global(n)) => {
            if let Some(g) = names.globals.get(&n) {
                Ok(Value::Global(*g))
            } else if let Some(fid) = names.funcs.get(&n) {
                Ok(Value::Func(*fid))
            } else {
                Err(lx.err(format!("unknown global `@{n}`")))
            }
        }
        Some(Tok::Percent(n)) => {
            if let Some(p) = ctx.params.get(&n) {
                Ok(Value::Param(*p))
            } else if let Some(id) = ctx.results.get(&n) {
                Ok(Value::Inst(*id))
            } else {
                Err(lx.err(format!("unknown value `%{n}`")))
            }
        }
        got => Err(lx.err(format!("expected value, got {got:?}"))),
    }
}

fn parse_ord_opt(lx: &mut Lexer) -> Ordering {
    if let Some(Tok::Ident(s)) = lx.peek() {
        if let Some(o) = Ordering::from_keyword(s) {
            lx.next();
            return o;
        }
    }
    Ordering::NotAtomic
}

fn parse_vol_opt(lx: &mut Lexer) -> bool {
    lx.eat_ident("volatile")
}

fn parse_inst(lx: &mut Lexer, names: &Names, ctx: &FnCtx) -> Result<InstKind, ParseError> {
    let mnemonic = lx.expect_ident()?;
    match mnemonic.as_str() {
        "alloca" => Ok(InstKind::Alloca {
            ty: parse_type(lx, names)?,
        }),
        "load" => {
            let ty = parse_type(lx, names)?;
            lx.expect(Tok::Comma)?;
            let ptr = parse_value(lx, names, ctx)?;
            let ord = parse_ord_opt(lx);
            let volatile = parse_vol_opt(lx);
            Ok(InstKind::Load {
                ptr,
                ty,
                ord,
                volatile,
            })
        }
        "store" => {
            let ty = parse_type(lx, names)?;
            let val = parse_value(lx, names, ctx)?;
            lx.expect(Tok::Comma)?;
            let ptr = parse_value(lx, names, ctx)?;
            let ord = parse_ord_opt(lx);
            let volatile = parse_vol_opt(lx);
            Ok(InstKind::Store {
                ptr,
                val,
                ty,
                ord,
                volatile,
            })
        }
        "cmpxchg" => {
            let ty = parse_type(lx, names)?;
            let ptr = parse_value(lx, names, ctx)?;
            lx.expect(Tok::Comma)?;
            let expected = parse_value(lx, names, ctx)?;
            lx.expect(Tok::Comma)?;
            let new = parse_value(lx, names, ctx)?;
            let mut ord = parse_ord_opt(lx);
            if ord == Ordering::NotAtomic {
                ord = Ordering::SeqCst;
            }
            Ok(InstKind::Cmpxchg(Box::new(Cmpxchg {
                ptr,
                expected,
                new,
                ty,
                ord,
            })))
        }
        "rmw" => {
            let op_name = lx.expect_ident()?;
            let op = RmwOp::from_mnemonic(&op_name)
                .ok_or_else(|| lx.err(format!("unknown rmw op `{op_name}`")))?;
            let ty = parse_type(lx, names)?;
            let ptr = parse_value(lx, names, ctx)?;
            lx.expect(Tok::Comma)?;
            let val = parse_value(lx, names, ctx)?;
            let mut ord = parse_ord_opt(lx);
            if ord == Ordering::NotAtomic {
                ord = Ordering::SeqCst;
            }
            Ok(InstKind::Rmw {
                op,
                ptr,
                val,
                ty,
                ord,
            })
        }
        "fence" => {
            let mut ord = parse_ord_opt(lx);
            if ord == Ordering::NotAtomic {
                ord = Ordering::SeqCst;
            }
            Ok(InstKind::Fence { ord })
        }
        "gep" => {
            let base_ty = parse_type(lx, names)?;
            lx.expect(Tok::Comma)?;
            let base = parse_value(lx, names, ctx)?;
            let mut indices = Vec::new();
            while lx.eat(&Tok::Comma) {
                if let Some(Tok::Int(v)) = lx.peek() {
                    indices.push(GepIndex::Const(*v));
                    lx.next();
                } else {
                    indices.push(GepIndex::Dyn(parse_value(lx, names, ctx)?));
                }
            }
            Ok(InstKind::Gep {
                base,
                base_ty,
                indices: indices.into_boxed_slice(),
            })
        }
        "cmp" => {
            let pred_name = lx.expect_ident()?;
            let pred = CmpPred::from_mnemonic(&pred_name)
                .ok_or_else(|| lx.err(format!("unknown predicate `{pred_name}`")))?;
            let lhs = parse_value(lx, names, ctx)?;
            lx.expect(Tok::Comma)?;
            let rhs = parse_value(lx, names, ctx)?;
            Ok(InstKind::Cmp { pred, lhs, rhs })
        }
        "cast" => {
            let value = parse_value(lx, names, ctx)?;
            if !lx.eat_ident("to") {
                return Err(lx.err("expected `to` in cast"));
            }
            let to = parse_type(lx, names)?;
            Ok(InstKind::Cast { value, to })
        }
        "call" => {
            let ret_ty = parse_type(lx, names)?;
            let callee_name = match lx.next() {
                Some(Tok::Global(n)) => n,
                got => return Err(lx.err(format!("expected callee, got {got:?}"))),
            };
            let callee = if let Some(fid) = names.funcs.get(&callee_name) {
                Callee::Func(*fid)
            } else if let Some(b) = Builtin::from_name(&callee_name) {
                Callee::Builtin(b)
            } else {
                return Err(lx.err(format!("unknown callee `@{callee_name}`")));
            };
            lx.expect(Tok::LParen)?;
            let mut args = Vec::new();
            if !lx.eat(&Tok::RParen) {
                loop {
                    args.push(parse_value(lx, names, ctx)?);
                    if lx.eat(&Tok::RParen) {
                        break;
                    }
                    lx.expect(Tok::Comma)?;
                }
            }
            Ok(InstKind::Call {
                callee,
                args,
                ret_ty,
            })
        }
        other => {
            if let Some(op) = BinOp::from_mnemonic(other) {
                let lhs = parse_value(lx, names, ctx)?;
                lx.expect(Tok::Comma)?;
                let rhs = parse_value(lx, names, ctx)?;
                Ok(InstKind::Bin { op, lhs, rhs })
            } else {
                Err(lx.err(format!("unknown instruction `{other}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const MP: &str = r#"
    module "mp"
    global @flag: i32 = 0
    global @msg: i32 = 0
    fn @writer() : void {
    bb0:
      store i32 1, @msg
      store i32 1, @flag seq_cst
      ret
    }
    fn @reader() : i32 {
    loop:
      %v = load i32, @flag seq_cst
      %c = cmp eq %v, 0
      condbr %c, loop, done
    done:
      %m = load i32, @msg
      ret %m
    }
    "#;

    #[test]
    fn parses_message_passing() {
        let m = parse_module(MP).unwrap();
        assert_eq!(m.name, "mp");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.funcs.len(), 2);
        let reader = &m.funcs[1];
        assert_eq!(reader.blocks.len(), 2);
        assert_eq!(
            reader.blocks[0].term.successors().collect::<Vec<_>>(),
            [BlockId(0), BlockId(1)]
        );
        // The seq_cst ordering survived.
        let (_, first) = reader.insts().next().unwrap();
        assert_eq!(first.kind.ordering(), Some(Ordering::SeqCst));
    }

    #[test]
    fn roundtrips_through_printer() {
        let m = parse_module(MP).unwrap();
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap();
        assert_eq!(m2.funcs.len(), m.funcs.len());
        assert_eq!(m2.globals, m.globals);
        assert_eq!(m2.funcs[0].blocks.len(), m.funcs[0].blocks.len());
        assert_eq!(m2.inst_count(), m.inst_count());
        // Printing again is a fixpoint.
        assert_eq!(print_module(&m2), text);
    }

    #[test]
    fn parses_structs_and_geps() {
        let src = r#"
        struct %Node { i64, i64, ptr %Node }
        global @head: ptr %Node = 0
        fn @find(%n: ptr %Node) : i64 {
        bb0:
          %a = gep %Node, %n, 0, 1
          %v = load i64, %a
          ret %v
        }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields.len(), 3);
        let f = &m.funcs[0];
        match &f.blocks[0].insts[0].kind {
            InstKind::Gep {
                base_ty, indices, ..
            } => {
                assert_eq!(*base_ty, Type::struct_of(StructId(0)));
                assert_eq!(indices.len(), 2);
            }
            other => panic!("expected gep, got {other:?}"),
        }
    }

    #[test]
    fn parses_cmpxchg_rmw_fence_call() {
        let src = r#"
        global @lock: i32 = 0
        fn @acquire() : void {
        spin:
          %old = cmpxchg i32 @lock, 0, 1 seq_cst
          %c = cmp ne %old, 0
          condbr %c, spin, done
        done:
          fence seq_cst
          %x = rmw add i32 @lock, 0 acq_rel
          call void @pause()
          ret
        }
        "#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        assert!(matches!(
            &f.blocks[0].insts[0].kind,
            InstKind::Cmpxchg(c) if c.ord == Ordering::SeqCst
        ));
        assert!(matches!(
            f.blocks[1].insts[0].kind,
            InstKind::Fence {
                ord: Ordering::SeqCst
            }
        ));
        assert!(matches!(
            f.blocks[1].insts[1].kind,
            InstKind::Rmw {
                op: RmwOp::Add,
                ord: Ordering::AcqRel,
                ..
            }
        ));
        assert!(matches!(
            f.blocks[1].insts[2].kind,
            InstKind::Call {
                callee: Callee::Builtin(Builtin::Pause),
                ..
            }
        ));
    }

    #[test]
    fn parses_array_global_with_init() {
        let src = r#"
        global @tbl: [4 x i32] = [1, 2, 3, 4]
        fn @noop() : void {
        bb0:
          ret
        }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.globals[0].init, vec![1, 2, 3, 4]);
        assert_eq!(m.globals[0].ty, Type::array_of(Type::I32, 4));
    }

    #[test]
    fn zero_init_is_expanded_to_slot_count() {
        let src = r#"
        global @tbl: [8 x i64] = 0
        fn @noop() : void {
        bb0:
          ret
        }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.globals[0].init.len(), 8);
    }

    #[test]
    fn unknown_label_is_an_error() {
        let src = r#"
        fn @f() : void {
        bb0:
          br nowhere
        }
        "#;
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("unknown label"));
    }

    #[test]
    fn unknown_value_is_an_error() {
        let src = r#"
        fn @f() : void {
        bb0:
          %x = add %y, 1
          ret
        }
        "#;
        assert!(parse_module(src).is_err());
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let src = r#"
        fn @f() : void {
        bb0:
          %x = add 1, 1
        }
        "#;
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("terminator"));
    }

    #[test]
    fn spawn_takes_function_ref() {
        let src = r#"
        fn @worker(%arg: i64) : void {
        bb0:
          ret
        }
        fn @main() : void {
        bb0:
          %tid = call i64 @spawn(@worker, 0)
          call void @join(%tid)
          ret
        }
        "#;
        let m = parse_module(src).unwrap();
        let main = &m.funcs[1];
        match &main.blocks[0].insts[0].kind {
            InstKind::Call { callee, args, .. } => {
                assert_eq!(*callee, Callee::Builtin(Builtin::Spawn));
                assert_eq!(args[0], Value::Func(FuncId(0)));
            }
            other => panic!("expected call, got {other:?}"),
        }
    }
}
