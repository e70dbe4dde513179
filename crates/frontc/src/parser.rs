//! Recursive-descent parser for MiniC.
//!
//! The parser builds the flat [`Program`] directly: names are interned as
//! they are read, each node is pushed onto its vector once, and child
//! lists gather on shared stacks until their closing token, then move to
//! the program as one range.
//!
//! Everything downstream walks the tree recursively, so the parser bounds
//! its depth: statement nesting plus expression nesting may not exceed
//! [`MAX_DEPTH`], counting the levels of left-associative chains such as
//! `a + b + c` as well as bracketed ones. A chain of `else if` arms is one
//! statement and does not count against the bound.
//!
//! The parser reads each token's one-byte [`Class`], so every keyword,
//! punctuator and operator test is a byte compare; token texts are
//! looked up only to intern names and decoded only for error messages.

use crate::ast::*;
use crate::lexer::{Class, Token, TokenKind, Tokens};
use atomig_mir::FxBuild;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};

/// How deeply statements and expressions may nest, and how many `*` and
/// `[N]` a declared type may carry.
pub const MAX_DEPTH: u32 = 512;

/// A syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseError {}

/// Parses a token stream into a [`Program`].
pub fn parse(tokens: &Tokens<'_>) -> Result<Program, ParseError> {
    let mut p = Parser {
        lexed: tokens,
        tokens: tokens.as_slice(),
        pos: 0,
        prog: Program::default(),
        syms: HashMap::default(),
        heights: Vec::new(),
        depth: 0,
        pending_exprs: Vec::new(),
        pending_stmts: Vec::new(),
        pending_arms: Vec::new(),
        dims: Vec::new(),
    };
    while !p.at_end() {
        let item = p.item()?;
        p.prog.items.push(item);
    }
    Ok(p.prog)
}

/// A name as the interner's key. It hashes a whole 8-byte word at a
/// time, the last one padded and mixed with the length, where `str`'s
/// own `Hash` adds a terminator byte.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Name<'s>(&'s str);

impl Hash for Name<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let bytes = self.0.as_bytes();
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            state.write_u64(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        state.write_u64(u64::from_le_bytes(w) ^ (bytes.len() as u64) << 56);
    }
}

struct Parser<'t, 's> {
    /// The lexed source, to read token texts from.
    lexed: &'t Tokens<'s>,
    tokens: &'t [Token],
    pos: usize,
    prog: Program,
    /// The name interner's lookup side, keyed by slices of the source.
    syms: HashMap<Name<'s>, Sym, FxBuild>,
    /// Height of each expression in `prog.exprs` (a leaf is 1).
    heights: Vec<u32>,
    /// Statement and expression levels currently open.
    depth: u32,
    /// Call arguments, block bodies and `if` arms not yet closed.
    pending_exprs: Vec<ExprId>,
    pending_stmts: Vec<StmtId>,
    pending_arms: Vec<IfArm>,
    /// Array dimensions of the declarator being read.
    dims: Vec<u32>,
}

impl<'s> Parser<'_, 's> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line(),
        }
    }

    /// Fails if `levels` more levels below the open ones would pass
    /// [`MAX_DEPTH`].
    fn within_bound(&self, levels: u32) -> Result<(), ParseError> {
        if self.depth.saturating_add(levels) > MAX_DEPTH {
            return Err(self.err(format!(
                "statements and expressions nest deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Runs `f` one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.within_bound(1)?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The class of the token `off` places ahead, if there is one.
    fn class_at(&self, off: usize) -> Option<Class> {
        self.tokens.get(self.pos + off).map(|t| t.class)
    }

    /// The next token's class, if there is one.
    fn class(&self) -> Option<Class> {
        self.class_at(0)
    }

    /// The next token decoded, for an error message.
    fn peek(&self) -> Option<TokenKind<'s>> {
        self.tokens.get(self.pos).map(|&t| self.lexed.kind(t))
    }

    /// Steps past the next token and fails with `expected {what}, got
    /// {its kind}`, on the line of the token after it.
    fn expected<T>(&mut self, what: &str) -> Result<T, ParseError> {
        let got = self.peek();
        self.pos += 1;
        Err(self.err(format!("expected {what}, got {got:?}")))
    }

    fn is(&self, c: Class) -> bool {
        self.class() == Some(c)
    }

    fn eat(&mut self, c: Class) -> bool {
        if self.is(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: Class) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, got {:?}", c.text(), self.peek())))
        }
    }

    /// Interns the text of token `t`.
    fn intern(&mut self, t: Token) -> Sym {
        let s = self.lexed.text(t);
        let names = &mut self.prog.names;
        *self.syms.entry(Name(s)).or_insert_with(|| names.push(s))
    }

    /// A name: an identifier, or a keyword read as one.
    fn ident(&mut self) -> Result<Sym, ParseError> {
        match self.tokens.get(self.pos) {
            Some(&t) if t.class.is_word() => {
                self.pos += 1;
                Ok(self.intern(t))
            }
            _ => self.expected("identifier"),
        }
    }

    fn starts_type(&self) -> bool {
        self.class().is_some_and(Class::is_type_keyword)
    }

    /// Pushes expression `e`, failing if its height would pass the bound.
    fn expr_node(&mut self, e: Expr) -> Result<ExprId, ParseError> {
        let h = |id: ExprId| self.heights[id.0 as usize];
        let below = match e {
            Expr::Int(_) | Expr::Ident(_) | Expr::Asm(_) | Expr::SizeOf(_) => 0,
            Expr::Unary { operand: a, .. }
            | Expr::IncDec { target: a, .. }
            | Expr::Member { base: a, .. }
            | Expr::Cast { expr: a, .. } => h(a),
            Expr::Binary { lhs, rhs, .. }
            | Expr::Assign { lhs, rhs, .. }
            | Expr::Index {
                base: lhs,
                index: rhs,
            } => h(lhs).max(h(rhs)),
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => h(cond).max(h(then_e)).max(h(else_e)),
            Expr::Call { args, .. } => self.prog[args].iter().map(|&a| h(a)).max().unwrap_or(0),
        };
        self.within_bound(below + 1)?;
        self.heights.push(below + 1);
        self.prog.exprs.push(e);
        Ok(ExprId(self.prog.exprs.len() as u32 - 1))
    }

    fn stmt_node(&mut self, line: u32, kind: StmtKind) -> StmtId {
        self.prog.stmts.push(Stmt { line, kind });
        StmtId(self.prog.stmts.len() as u32 - 1)
    }

    /// Parses qualifiers + base type + pointer stars.
    fn type_and_quals(&mut self) -> Result<(TyId, Quals), ParseError> {
        let mut quals = Quals::default();
        let mut base: Option<CType> = None;
        while let Some(c) = self.class() {
            match c {
                Class::KwVolatile => {
                    quals.volatile = true;
                    self.pos += 1;
                }
                Class::KwAtomic | Class::KwUAtomic => {
                    quals.atomic = true;
                    self.pos += 1;
                }
                Class::KwConst | Class::KwStatic | Class::KwUnsigned | Class::KwSigned => {
                    self.pos += 1;
                }
                Class::KwVoid if base.is_none() => {
                    base = Some(CType::Void);
                    self.pos += 1;
                }
                Class::KwChar if base.is_none() => {
                    base = Some(CType::Char);
                    self.pos += 1;
                }
                Class::KwShort if base.is_none() => {
                    base = Some(CType::Short);
                    self.pos += 1;
                }
                Class::KwInt => {
                    // `long int`, `short int` collapse.
                    if base.is_none() {
                        base = Some(CType::Int);
                    }
                    self.pos += 1;
                }
                Class::KwLong if base.is_none() => {
                    base = Some(CType::Long);
                    self.pos += 1;
                }
                Class::KwLong => {
                    self.pos += 1; // `long long`
                }
                Class::KwStruct if base.is_none() => {
                    self.pos += 1;
                    let name = self.ident()?;
                    base = Some(CType::Struct(name));
                }
                _ => break,
            }
        }
        let base = base.ok_or_else(|| self.err("expected a type"))?;
        let mut ty = self.prog.types.intern(base);
        let mut stars = 0;
        while self.eat(Class::Star) {
            stars += 1;
            if stars > MAX_DEPTH {
                return Err(self.err(format!("a type has more than {MAX_DEPTH} levels")));
            }
            ty = self.prog.types.ptr(ty);
            // `T * volatile p` — qualifier after the star.
            while self.eat(Class::KwVolatile) {
                quals.volatile = true;
            }
        }
        Ok((ty, quals))
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        // struct definition?
        if self.is(Class::KwStruct) && self.class_at(2) == Some(Class::LBrace) {
            self.pos += 1;
            let name = self.ident()?;
            self.expect(Class::LBrace)?;
            let start = self.prog.decls.len();
            while !self.eat(Class::RBrace) {
                let (ty, _q) = self.type_and_quals()?;
                let fname = self.ident()?;
                let ty = self.array_dims(ty)?;
                self.expect(Class::Semi)?;
                self.prog.decls.push(Decl { ty, name: fname });
            }
            self.eat(Class::Semi);
            let fields = List::since(&self.prog.decls, start);
            return Ok(Item::Struct { name, fields });
        }
        let (ty, quals) = self.type_and_quals()?;
        let name = self.ident()?;
        if self.is(Class::LParen) {
            // Function.
            self.expect(Class::LParen)?;
            let start = self.prog.decls.len();
            if !self.eat(Class::RParen) {
                if self.is(Class::KwVoid) && self.class_at(1) == Some(Class::RParen) {
                    self.pos += 1;
                    self.expect(Class::RParen)?;
                } else {
                    loop {
                        let (pty, _q) = self.type_and_quals()?;
                        let pname = self.ident()?;
                        self.prog.decls.push(Decl {
                            ty: pty,
                            name: pname,
                        });
                        if self.eat(Class::RParen) {
                            break;
                        }
                        self.expect(Class::Comma)?;
                    }
                }
            }
            let params = List::since(&self.prog.decls, start);
            self.expect(Class::LBrace)?;
            let body = self.stmts_until_close()?;
            Ok(Item::Function {
                ret: ty,
                name,
                params,
                body,
            })
        } else {
            // Global.
            let ty = self.array_dims(ty)?;
            let start = self.prog.inits.len();
            if self.eat(Class::Assign) {
                if self.eat(Class::LBrace) {
                    while !self.eat(Class::RBrace) {
                        let v = self.int_lit()?;
                        self.prog.inits.push(v);
                        if !self.is(Class::RBrace) {
                            self.expect(Class::Comma)?;
                        }
                    }
                } else {
                    let v = self.int_lit()?;
                    self.prog.inits.push(v);
                }
            }
            let init = List::since(&self.prog.inits, start);
            self.expect(Class::Semi)?;
            Ok(Item::Global {
                ty,
                quals,
                name,
                init,
            })
        }
    }

    /// Parses trailing `[N][M]...` dimensions onto a declared type.
    /// `T x[N][M]` is an N-array of M-arrays of T.
    fn array_dims(&mut self, base: TyId) -> Result<TyId, ParseError> {
        self.dims.clear();
        while self.eat(Class::LBracket) {
            let n = self.int_lit()?;
            self.expect(Class::RBracket)?;
            if self.dims.len() as u32 == MAX_DEPTH {
                return Err(self.err(format!("a type has more than {MAX_DEPTH} levels")));
            }
            self.dims.push(n as u32);
        }
        let mut ty = base;
        for &d in self.dims.iter().rev() {
            ty = self.prog.types.intern(CType::Array(ty, d));
        }
        Ok(ty)
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat(Class::Minus);
        match self.tokens.get(self.pos) {
            Some(&t) if t.class == Class::Int => {
                self.pos += 1;
                let v = self.lexed.int(t);
                Ok(if neg { -v } else { v })
            }
            _ => self.expected("integer literal"),
        }
    }

    /// Statements up to the `}` closing the current block, as one list.
    fn stmts_until_close(&mut self) -> Result<List<StmtId>, ParseError> {
        let mark = self.pending_stmts.len();
        while !self.eat(Class::RBrace) {
            let s = self.stmt()?;
            self.pending_stmts.push(s);
        }
        Ok(seal(
            &mut self.prog.stmt_lists,
            &mut self.pending_stmts,
            mark,
        ))
    }

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> Result<StmtId, ParseError> {
        let line = self.line();
        if self.eat(Class::LBrace) {
            let body = self.stmts_until_close()?;
            return Ok(self.stmt_node(line, StmtKind::Block(body)));
        }
        if self.eat(Class::KwIf) {
            let mark = self.pending_arms.len();
            let mut arm_line = line;
            let else_s = loop {
                self.expect(Class::LParen)?;
                let cond = self.expr()?;
                self.expect(Class::RParen)?;
                let then_s = self.stmt()?;
                self.pending_arms.push(IfArm {
                    line: arm_line,
                    cond,
                    then_s,
                });
                if !self.eat(Class::KwElse) {
                    break None;
                }
                if self.is(Class::KwIf) {
                    arm_line = self.line();
                    self.pos += 1;
                } else {
                    break Some(self.stmt()?);
                }
            };
            let arms = seal(&mut self.prog.arms, &mut self.pending_arms, mark);
            return Ok(self.stmt_node(line, StmtKind::If { arms, else_s }));
        }
        if self.eat(Class::KwWhile) {
            self.expect(Class::LParen)?;
            let cond = self.expr()?;
            self.expect(Class::RParen)?;
            let body = if self.eat(Class::Semi) {
                self.stmt_node(line, StmtKind::Block(List::default()))
            } else {
                self.stmt()?
            };
            return Ok(self.stmt_node(line, StmtKind::While { cond, body }));
        }
        if self.eat(Class::KwDo) {
            let body = self.stmt()?;
            if !self.eat(Class::KwWhile) {
                return Err(self.err("expected `while` after do-body"));
            }
            self.expect(Class::LParen)?;
            let cond = self.expr()?;
            self.expect(Class::RParen)?;
            self.expect(Class::Semi)?;
            return Ok(self.stmt_node(line, StmtKind::DoWhile { body, cond }));
        }
        if self.eat(Class::KwFor) {
            self.expect(Class::LParen)?;
            let init = if self.eat(Class::Semi) {
                None
            } else if self.starts_type() {
                Some(self.decl_stmt()?)
            } else {
                let e = self.expr()?;
                self.expect(Class::Semi)?;
                Some(self.stmt_node(line, StmtKind::Expr(e)))
            };
            let cond = if self.is(Class::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(Class::Semi)?;
            let step = if self.is(Class::RParen) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(Class::RParen)?;
            let body = if self.eat(Class::Semi) {
                self.stmt_node(line, StmtKind::Block(List::default()))
            } else {
                self.stmt()?
            };
            return Ok(self.stmt_node(
                line,
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
            ));
        }
        if self.eat(Class::KwReturn) {
            if self.eat(Class::Semi) {
                return Ok(self.stmt_node(line, StmtKind::Return(None)));
            }
            let e = self.expr()?;
            self.expect(Class::Semi)?;
            return Ok(self.stmt_node(line, StmtKind::Return(Some(e))));
        }
        if self.eat(Class::KwBreak) {
            self.expect(Class::Semi)?;
            return Ok(self.stmt_node(line, StmtKind::Break));
        }
        if self.eat(Class::KwContinue) {
            self.expect(Class::Semi)?;
            return Ok(self.stmt_node(line, StmtKind::Continue));
        }
        if self.starts_type() {
            return self.decl_stmt();
        }
        let e = self.expr()?;
        self.expect(Class::Semi)?;
        Ok(self.stmt_node(line, StmtKind::Expr(e)))
    }

    fn decl_stmt(&mut self) -> Result<StmtId, ParseError> {
        let line = self.line();
        let (ty, quals) = self.type_and_quals()?;
        let name = self.ident()?;
        let ty = self.array_dims(ty)?;
        let init = if self.eat(Class::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Class::Semi)?;
        Ok(self.stmt_node(
            line,
            StmtKind::Decl {
                ty,
                quals,
                name,
                init,
            },
        ))
    }

    // ---- expressions, precedence climbing ----

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<ExprId, ParseError> {
        let lhs = self.ternary()?;
        let op = match self.class() {
            Some(Class::Assign) => None,
            Some(Class::PlusEq) => Some(BinaryOp::Add),
            Some(Class::MinusEq) => Some(BinaryOp::Sub),
            Some(Class::StarEq) => Some(BinaryOp::Mul),
            Some(Class::SlashEq) => Some(BinaryOp::Div),
            Some(Class::PercentEq) => Some(BinaryOp::Rem),
            Some(Class::AmpEq) => Some(BinaryOp::And),
            Some(Class::PipeEq) => Some(BinaryOp::Or),
            Some(Class::CaretEq) => Some(BinaryOp::Xor),
            Some(Class::ShlEq) => Some(BinaryOp::Shl),
            Some(Class::ShrEq) => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.nested(Self::assignment)?;
        self.expr_node(Expr::Assign { lhs, rhs, op })
    }

    fn ternary(&mut self) -> Result<ExprId, ParseError> {
        let cond = self.binary(0)?;
        if self.eat(Class::Question) {
            let then_e = self.expr()?;
            self.expect(Class::Colon)?;
            let else_e = self.nested(Self::ternary)?;
            return self.expr_node(Expr::Ternary {
                cond,
                then_e,
                else_e,
            });
        }
        Ok(cond)
    }

    fn binary(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.unary()?;
        while let Some(class) = self.class() {
            let (op, prec) = match class {
                Class::OrOr => (BinaryOp::LOr, 1),
                Class::AndAnd => (BinaryOp::LAnd, 2),
                Class::Pipe => (BinaryOp::Or, 3),
                Class::Caret => (BinaryOp::Xor, 4),
                Class::Amp => (BinaryOp::And, 5),
                Class::EqEq => (BinaryOp::Eq, 6),
                Class::Ne => (BinaryOp::Ne, 6),
                Class::Lt => (BinaryOp::Lt, 7),
                Class::Le => (BinaryOp::Le, 7),
                Class::Gt => (BinaryOp::Gt, 7),
                Class::Ge => (BinaryOp::Ge, 7),
                Class::Shl => (BinaryOp::Shl, 8),
                Class::Shr => (BinaryOp::Shr, 8),
                Class::Plus => (BinaryOp::Add, 9),
                Class::Minus => (BinaryOp::Sub, 9),
                Class::Star => (BinaryOp::Mul, 10),
                Class::Slash => (BinaryOp::Div, 10),
                Class::Percent => (BinaryOp::Rem, 10),
                _ => break,
            };

            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = self.expr_node(Expr::Binary { op, lhs, rhs })?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        // Cast: `(type) expr`.
        if self.is(Class::LParen) && self.class_at(1).is_some_and(Class::is_type_keyword) {
            self.pos += 1; // '('
            let (ty, _q) = self.type_and_quals()?;
            self.expect(Class::RParen)?;
            let expr = self.nested(Self::unary)?;
            return self.expr_node(Expr::Cast { ty, expr });
        }
        let prefix = match self.class() {
            Some(Class::Minus) => Ok(UnaryOp::Neg),
            Some(Class::Bang) => Ok(UnaryOp::Not),
            Some(Class::Tilde) => Ok(UnaryOp::BitNot),
            Some(Class::Star) => Ok(UnaryOp::Deref),
            Some(Class::Amp) => Ok(UnaryOp::AddrOf),
            Some(Class::PlusPlus) => Err(1),
            Some(Class::MinusMinus) => Err(-1),
            _ => return self.postfix(),
        };
        self.pos += 1;
        let operand = self.nested(Self::unary)?;
        self.expr_node(match prefix {
            Ok(op) => Expr::Unary { op, operand },
            Err(delta) => Expr::IncDec {
                target: operand,
                delta,
                prefix: true,
            },
        })
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        while let Some(class) = self.class() {
            let node = match class {
                Class::LBracket => {
                    self.pos += 1;
                    let index = self.expr()?;
                    self.expect(Class::RBracket)?;
                    Expr::Index { base: e, index }
                }
                Class::Dot | Class::Arrow => {
                    self.pos += 1;
                    let field = self.ident()?;
                    Expr::Member {
                        base: e,
                        field,
                        arrow: class == Class::Arrow,
                    }
                }
                Class::PlusPlus | Class::MinusMinus => {
                    self.pos += 1;
                    Expr::IncDec {
                        target: e,
                        delta: if class == Class::PlusPlus { 1 } else { -1 },
                        prefix: false,
                    }
                }
                _ => break,
            };
            e = self.expr_node(node)?;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let Some(&t) = self.tokens.get(self.pos) else {
            return self.expected("expression");
        };
        match t.class {
            Class::Int => {
                self.pos += 1;
                self.expr_node(Expr::Int(self.lexed.int(t)))
            }
            Class::LParen => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Class::RParen)?;
                Ok(e)
            }
            Class::KwSizeof => {
                self.pos += 1;
                self.expect(Class::LParen)?;
                let (ty, _q) = self.type_and_quals()?;
                self.expect(Class::RParen)?;
                self.expr_node(Expr::SizeOf(ty))
            }
            // Inline assembly.
            Class::KwAsm | Class::KwAsm2 | Class::KwAsm3 => {
                self.pos += 1;
                self.eat(Class::KwVolatile);
                self.expect(Class::LParen)?;
                let text = match self.tokens.get(self.pos) {
                    Some(&s) if s.class == Class::Str => {
                        self.pos += 1;
                        self.intern(s)
                    }
                    _ => return self.expected("asm string"),
                };
                // Skip extended operand clauses until the closing paren.
                let mut depth = 1;
                while depth > 0 {
                    let class = self.class();
                    self.pos += 1;
                    match class {
                        Some(Class::LParen) => depth += 1,
                        Some(Class::RParen) => depth -= 1,
                        Some(_) => {}
                        None => return Err(self.err("unterminated asm()")),
                    }
                }
                self.expr_node(Expr::Asm(text))
            }
            c if c.is_word() => {
                self.pos += 1;
                let name = self.intern(t);
                if self.eat(Class::LParen) {
                    let mark = self.pending_exprs.len();
                    if !self.eat(Class::RParen) {
                        loop {
                            let arg = self.expr()?;
                            self.pending_exprs.push(arg);
                            if self.eat(Class::RParen) {
                                break;
                            }
                            self.expect(Class::Comma)?;
                        }
                    }
                    let args = seal(&mut self.prog.expr_lists, &mut self.pending_exprs, mark);
                    return self.expr_node(Expr::Call { name, args });
                }
                self.expr_node(Expr::Ident(name))
            }
            _ => self.expected("expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    /// The body of the program's only (or first) function.
    fn body(p: &Program) -> Vec<Stmt> {
        p.items
            .iter()
            .find_map(|item| match *item {
                Item::Function { body, .. } => Some(p[body].iter().map(|&s| p[s]).collect()),
                _ => None,
            })
            .expect("a function")
    }

    fn returned(p: &Program, s: Stmt) -> Expr {
        match s.kind {
            StmtKind::Return(Some(e)) => p[e],
            other => panic!("expected a return, got {other:?}"),
        }
    }

    #[test]
    fn parses_globals_and_function() {
        let p = parse_src(
            r#"
            volatile int flag = 0;
            int arr[4] = {1, 2, 3, 4};
            int get(int i) { return arr[i]; }
            "#,
        );
        assert_eq!(p.items.len(), 3);
        match p.items[0] {
            Item::Global {
                quals, name, init, ..
            } => {
                assert!(quals.volatile);
                assert_eq!(&p[name], "flag");
                assert_eq!(&p[init], &[0]);
            }
            other => panic!("expected global, got {other:?}"),
        }
        match p.items[1] {
            Item::Global { ty, init, .. } => {
                assert_eq!(p[ty], CType::Array(Types::INT, 4));
                assert_eq!(init.len(), 4);
            }
            other => panic!("expected global, got {other:?}"),
        }
    }

    #[test]
    fn parses_struct_and_member_access() {
        let p = parse_src(
            r#"
            struct Node { long key; struct Node *next; };
            long get_key(struct Node *n) { return n->key; }
            "#,
        );
        match p.items[0] {
            Item::Struct { name, fields } => {
                assert_eq!(&p[name], "Node");
                assert_eq!(fields.len(), 2);
                let next = p[fields][1].ty;
                assert_eq!(p.types.render(&p.names, next), "Ptr(Struct(\"Node\"))");
            }
            other => panic!("expected struct, got {other:?}"),
        }
        assert!(matches!(
            returned(&p, body(&p)[0]),
            Expr::Member { arrow: true, .. }
        ));
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse_src("int f() { return 1 + 2 * 3 == 7 && 4 < 5; }");
        // ((1 + (2*3)) == 7) && (4 < 5)
        match returned(&p, body(&p)[0]) {
            Expr::Binary {
                op: BinaryOp::LAnd,
                lhs,
                ..
            } => assert!(matches!(
                p[lhs],
                Expr::Binary {
                    op: BinaryOp::Eq,
                    ..
                }
            )),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_src(
            r#"
            int f(int n) {
              int s = 0;
              for (int i = 0; i < n; i++) {
                if (i % 2 == 0) continue;
                s += i;
              }
              while (s > 100) s -= 10;
              do { s++; } while (s < 0);
              return s;
            }
            "#,
        );
        assert_eq!(body(&p).len(), 5);
    }

    #[test]
    fn else_if_chains_are_one_statement() {
        let p = parse_src(
            "int f(int x) {\n if (x == 1) return 1;\n else if (x == 2) return 2;\n else if (x == 3) { return 3; }\n else return 0;\n}",
        );
        let stmts = body(&p);
        assert_eq!(stmts.len(), 1);
        match stmts[0].kind {
            StmtKind::If { arms, else_s } => {
                let lines: Vec<u32> = p[arms].iter().map(|a| a.line).collect();
                assert_eq!(lines, [2, 3, 4]);
                assert!(matches!(p[else_s.unwrap()].kind, StmtKind::Return(Some(_))));
            }
            other => panic!("expected an if, got {other:?}"),
        }
        // An `if` inside an `else` block starts a statement of its own.
        let p = parse_src("void f(int x) { if (x) {} else { if (x) {} } }");
        match body(&p)[0].kind {
            StmtKind::If { arms, else_s } => {
                assert_eq!(arms.len(), 1);
                assert!(matches!(p[else_s.unwrap()].kind, StmtKind::Block(_)));
            }
            other => panic!("expected an if, got {other:?}"),
        }
    }

    #[test]
    fn parses_spin_idioms() {
        let p = parse_src(
            r#"
            int locked;
            void lock() { while (cmpxchg(&locked, 0, 1) != 0) {} }
            void unlock() { locked = 0; }
            "#,
        );
        assert_eq!(p.items.len(), 3);
    }

    #[test]
    fn parses_inline_asm() {
        let p = parse_src(
            r#"
            void barrier() {
              __asm__ volatile("mfence" ::: "memory");
              asm("pause");
            }
            "#,
        );
        let stmts = body(&p);
        assert_eq!(stmts.len(), 2);
        let asm = |s: Stmt| match s.kind {
            StmtKind::Expr(e) => match p[e] {
                Expr::Asm(text) => p[text].to_string(),
                other => panic!("expected asm, got {other:?}"),
            },
            other => panic!("expected an expression, got {other:?}"),
        };
        assert_eq!(asm(stmts[0]), "mfence");
        assert_eq!(asm(stmts[1]), "pause");
    }

    #[test]
    fn parses_casts_and_ternary() {
        let p = parse_src("long f(int x) { return (long)x > 0 ? x : -x; }");
        assert!(matches!(returned(&p, body(&p)[0]), Expr::Ternary { .. }));
    }

    #[test]
    fn parses_pointer_params_and_deref() {
        let p = parse_src("void set(int *p, int v) { *p = v; }");
        match p.items[0] {
            Item::Function { params, .. } => {
                assert_eq!(p[p[params][0].ty], CType::Ptr(Types::INT));
            }
            _ => unreachable!(),
        }
        match body(&p)[0].kind {
            StmtKind::Expr(e) => match p[e] {
                Expr::Assign { lhs, .. } => assert!(matches!(
                    p[lhs],
                    Expr::Unary {
                        op: UnaryOp::Deref,
                        ..
                    }
                )),
                other => panic!("expected an assignment, got {other:?}"),
            },
            other => panic!("expected an expression, got {other:?}"),
        }
    }

    #[test]
    fn names_and_types_are_interned_once() {
        let p = parse_src("struct S { long a; }; struct S *x; struct S *y; long f(struct S *x) { return x->a + x->a; }");
        let xs = (0..p.names.len() as u32)
            .filter(|&i| &p[Sym(i)] == "x")
            .count();
        assert_eq!(xs, 1);
        let globals: Vec<TyId> = p
            .items
            .iter()
            .filter_map(|item| match *item {
                Item::Global { ty, .. } => Some(ty),
                _ => None,
            })
            .collect();
        assert_eq!(globals[0], globals[1]);
    }

    #[test]
    fn error_on_garbage() {
        let toks = lex("int f() { return @; }");
        assert!(toks.is_err() || parse(&toks.unwrap()).is_err());
    }

    #[test]
    fn volatile_pointer_decl() {
        let p = parse_src("volatile int *p; int f() { return *p; }");
        match p.items[0] {
            Item::Global { ty, quals, .. } => {
                assert_eq!(p[ty], CType::Ptr(Types::INT));
                assert!(quals.volatile);
            }
            _ => unreachable!(),
        }
    }

    fn depth_error(src: &str) -> String {
        parse(&lex(src).unwrap()).unwrap_err().msg
    }

    #[test]
    fn nesting_past_the_bound_is_an_error() {
        let n = 2 * MAX_DEPTH as usize;
        let limit = format!("nest deeper than {MAX_DEPTH} levels");
        let parens = format!("int f() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n));
        assert!(depth_error(&parens).contains(&limit));
        let negs = format!("int f() {{ return {}1; }}", "- ".repeat(n));
        assert!(depth_error(&negs).contains(&limit));
        let blocks = format!("void f() {}{}", "{".repeat(n), "}".repeat(n));
        assert!(depth_error(&blocks).contains(&limit));
        let chain = format!("int f() {{ return 1{}; }}", "+1".repeat(n));
        assert!(depth_error(&chain).contains(&limit));
        let index = format!("int a[2]; int f() {{ return a{}; }}", "[0]".repeat(n));
        assert!(depth_error(&index).contains(&limit));
        let stars = format!("int {}p;", "*".repeat(n));
        assert!(depth_error(&stars).contains(&format!("more than {MAX_DEPTH} levels")));
    }

    #[test]
    fn else_if_arms_do_not_count_against_the_bound() {
        let n = 4 * MAX_DEPTH as usize;
        let arms = "else if (x == 1) x = 2; ".repeat(n);
        let p = parse_src(&format!("void f(int x) {{ if (x) x = 1; {arms} }}"));
        match body(&p)[0].kind {
            StmtKind::If { arms, .. } => assert_eq!(arms.len(), n + 1),
            other => panic!("expected an if, got {other:?}"),
        }
    }
}
