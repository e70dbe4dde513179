//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use std::error::Error;
use std::fmt;

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
pub fn parse(tokens: &[Token<'_>]) -> Result<Program, ParseError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(Program { items })
}

struct Parser<'t, 's> {
    tokens: &'t [Token<'s>],
    pos: usize,
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "char", "short", "int", "long", "struct", "volatile", "atomic", "_Atomic", "unsigned",
    "signed", "const", "static",
];

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

    fn peek(&self) -> Option<TokenKind<'s>> {
        self.peek_at(0)
    }

    fn peek_at(&self, off: usize) -> Option<TokenKind<'s>> {
        self.tokens.get(self.pos + off).map(|t| t.kind)
    }

    fn next(&mut self) -> Option<TokenKind<'s>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Punct(q)) if q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.is_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, got {:?}", self.peek())))
        }
    }

    fn is_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s == kw)
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.is_ident(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s.to_string()),
            got => Err(self.err(format!("expected identifier, got {got:?}"))),
        }
    }

    fn starts_type(&self) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if TYPE_KEYWORDS.contains(&s))
    }

    /// Parses qualifiers + base type + pointer stars.
    fn type_and_quals(&mut self) -> Result<(CType, Quals), ParseError> {
        let mut quals = Quals::default();
        let mut base: Option<CType> = None;
        while let Some(TokenKind::Ident(s)) = self.peek() {
            match s {
                "volatile" => {
                    quals.volatile = true;
                    self.pos += 1;
                }
                "atomic" | "_Atomic" => {
                    quals.atomic = true;
                    self.pos += 1;
                }
                "const" | "static" | "unsigned" | "signed" => {
                    self.pos += 1;
                }
                "void" if base.is_none() => {
                    base = Some(CType::Void);
                    self.pos += 1;
                }
                "char" if base.is_none() => {
                    base = Some(CType::Char);
                    self.pos += 1;
                }
                "short" if base.is_none() => {
                    base = Some(CType::Short);
                    self.pos += 1;
                }
                "int" => {
                    // `long int`, `short int` collapse.
                    if base.is_none() {
                        base = Some(CType::Int);
                    }
                    self.pos += 1;
                }
                "long" if base.is_none() => {
                    base = Some(CType::Long);
                    self.pos += 1;
                }
                "long" => {
                    self.pos += 1; // `long long`
                }
                "struct" if base.is_none() => {
                    self.pos += 1;
                    let name = self.ident()?;
                    base = Some(CType::Struct(name));
                }
                _ => break,
            }
        }
        let mut ty = base.ok_or_else(|| self.err("expected a type"))?;
        while self.eat_punct("*") {
            ty = ty.ptr();
            // `T * volatile p` — qualifier after the star.
            while self.eat_ident("volatile") {
                quals.volatile = true;
            }
        }
        Ok((ty, quals))
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        // struct definition?
        if self.is_ident("struct") {
            if let Some(TokenKind::Punct("{")) = self.peek_at(2) {
                self.pos += 1;
                let name = self.ident()?;
                self.expect_punct("{")?;
                let mut fields = Vec::new();
                while !self.eat_punct("}") {
                    let (ty, _q) = self.type_and_quals()?;
                    let fname = self.ident()?;
                    let ty = self.array_dims(ty)?;
                    self.expect_punct(";")?;
                    fields.push((ty, fname));
                }
                self.eat_punct(";");
                return Ok(Item::Struct { name, fields });
            }
        }
        let (ty, quals) = self.type_and_quals()?;
        let name = self.ident()?;
        if self.is_punct("(") {
            // Function.
            self.expect_punct("(")?;
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                if self.is_ident("void") && matches!(self.peek_at(1), Some(TokenKind::Punct(")"))) {
                    self.pos += 1;
                    self.expect_punct(")")?;
                } else {
                    loop {
                        let (pty, _q) = self.type_and_quals()?;
                        let pname = self.ident()?;
                        params.push((pty, pname));
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
            }
            self.expect_punct("{")?;
            let mut body = Vec::new();
            while !self.eat_punct("}") {
                body.push(self.stmt()?);
            }
            Ok(Item::Function {
                ret: ty,
                name,
                params,
                body,
            })
        } else {
            // Global.
            let ty = self.array_dims(ty)?;
            let init = if self.eat_punct("=") {
                if self.eat_punct("{") {
                    let mut vals = Vec::new();
                    while !self.eat_punct("}") {
                        vals.push(self.int_lit()?);
                        if !self.is_punct("}") {
                            self.expect_punct(",")?;
                        }
                    }
                    vals
                } else {
                    vec![self.int_lit()?]
                }
            } else {
                vec![]
            };
            self.expect_punct(";")?;
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
    fn array_dims(&mut self, base: CType) -> Result<CType, ParseError> {
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let n = self.int_lit()?;
            self.expect_punct("]")?;
            dims.push(n as u32);
        }
        let mut ty = base;
        for &d in dims.iter().rev() {
            ty = CType::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat_punct("-");
        match self.next() {
            Some(TokenKind::Int(v)) => Ok(if neg { -v } else { v }),
            got => Err(self.err(format!("expected integer literal, got {got:?}"))),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        if self.eat_punct("{") {
            let mut stmts = Vec::new();
            while !self.eat_punct("}") {
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::at(line, StmtKind::Block(stmts)));
        }
        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_s = Box::new(self.stmt()?);
            let else_s = if self.eat_ident("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::at(
                line,
                StmtKind::If {
                    cond,
                    then_s,
                    else_s,
                },
            ));
        }
        if self.eat_ident("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            if self.eat_punct(";") {
                return Ok(Stmt::at(
                    line,
                    StmtKind::While {
                        cond,
                        body: Box::new(Stmt::at(line, StmtKind::Block(vec![]))),
                    },
                ));
            }
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::at(line, StmtKind::While { cond, body }));
        }
        if self.eat_ident("do") {
            let body = Box::new(self.stmt()?);
            if !self.eat_ident("while") {
                return Err(self.err("expected `while` after do-body"));
            }
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::at(line, StmtKind::DoWhile { body, cond }));
        }
        if self.eat_ident("for") {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else if self.starts_type() {
                let s = self.decl_stmt()?;
                Some(Box::new(s))
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(Box::new(Stmt::at(line, StmtKind::Expr(e))))
            };
            let cond = if self.is_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let step = if self.is_punct(")") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(")")?;
            let body = if self.eat_punct(";") {
                Box::new(Stmt::at(line, StmtKind::Block(vec![])))
            } else {
                Box::new(self.stmt()?)
            };
            return Ok(Stmt::at(
                line,
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
            ));
        }
        if self.eat_ident("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::at(line, StmtKind::Return(None)));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::at(line, StmtKind::Return(Some(e))));
        }
        if self.eat_ident("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::at(line, StmtKind::Break));
        }
        if self.eat_ident("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::at(line, StmtKind::Continue));
        }
        if self.starts_type() {
            return self.decl_stmt();
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::at(line, StmtKind::Expr(e)))
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let (ty, quals) = self.type_and_quals()?;
        let name = self.ident()?;
        let ty = self.array_dims(ty)?;
        let init = if self.eat_punct("=") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Stmt::at(
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

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary()?;
        let compound = |p: &str| -> Option<BinaryOp> {
            Some(match p {
                "+=" => BinaryOp::Add,
                "-=" => BinaryOp::Sub,
                "*=" => BinaryOp::Mul,
                "/=" => BinaryOp::Div,
                "%=" => BinaryOp::Rem,
                "&=" => BinaryOp::And,
                "|=" => BinaryOp::Or,
                "^=" => BinaryOp::Xor,
                "<<=" => BinaryOp::Shl,
                ">>=" => BinaryOp::Shr,
                _ => return None,
            })
        };
        if self.eat_punct("=") {
            let rhs = self.assignment()?;
            return Ok(Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                op: None,
            });
        }
        if let Some(TokenKind::Punct(p)) = self.peek() {
            if let Some(op) = compound(p) {
                self.pos += 1;
                let rhs = self.assignment()?;
                return Ok(Expr::Assign {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    op: Some(op),
                });
            }
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then_e = self.expr()?;
            self.expect_punct(":")?;
            let else_e = self.ternary()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            });
        }
        Ok(cond)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some(tok) = self.peek() {
            let (op, prec) = match tok {
                TokenKind::Punct(p) => match p {
                    "||" => (BinaryOp::LOr, 1),
                    "&&" => (BinaryOp::LAnd, 2),
                    "|" => (BinaryOp::Or, 3),
                    "^" => (BinaryOp::Xor, 4),
                    "&" => (BinaryOp::And, 5),
                    "==" => (BinaryOp::Eq, 6),
                    "!=" => (BinaryOp::Ne, 6),
                    "<" => (BinaryOp::Lt, 7),
                    "<=" => (BinaryOp::Le, 7),
                    ">" => (BinaryOp::Gt, 7),
                    ">=" => (BinaryOp::Ge, 7),
                    "<<" => (BinaryOp::Shl, 8),
                    ">>" => (BinaryOp::Shr, 8),
                    "+" => (BinaryOp::Add, 9),
                    "-" => (BinaryOp::Sub, 9),
                    "*" => (BinaryOp::Mul, 10),
                    "/" => (BinaryOp::Div, 10),
                    "%" => (BinaryOp::Rem, 10),
                    _ => break,
                },
                _ => break,
            };

            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        // Cast: `(type) expr`.
        if self.is_punct("(") {
            if let Some(TokenKind::Ident(s)) = self.peek_at(1) {
                if TYPE_KEYWORDS.contains(&s) {
                    self.pos += 1; // '('
                    let (ty, _q) = self.type_and_quals()?;
                    self.expect_punct(")")?;
                    let inner = self.unary()?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(inner),
                    });
                }
            }
        }
        if self.eat_punct("-") {
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("!") {
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("~") {
            return Ok(Expr::Unary {
                op: UnaryOp::BitNot,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("*") {
            return Ok(Expr::Unary {
                op: UnaryOp::Deref,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("&") {
            return Ok(Expr::Unary {
                op: UnaryOp::AddrOf,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("++") {
            return Ok(Expr::IncDec {
                target: Box::new(self.unary()?),
                delta: 1,
                prefix: true,
            });
        }
        if self.eat_punct("--") {
            return Ok(Expr::IncDec {
                target: Box::new(self.unary()?),
                delta: -1,
                prefix: true,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(idx),
                };
            } else if self.eat_punct(".") {
                let field = self.ident()?;
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow: false,
                };
            } else if self.eat_punct("->") {
                let field = self.ident()?;
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow: true,
                };
            } else if self.eat_punct("++") {
                e = Expr::IncDec {
                    target: Box::new(e),
                    delta: 1,
                    prefix: false,
                };
            } else if self.eat_punct("--") {
                e = Expr::IncDec {
                    target: Box::new(e),
                    delta: -1,
                    prefix: false,
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(TokenKind::Int(v)) => Ok(Expr::Int(v)),
            Some(TokenKind::Punct("(")) => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(TokenKind::Ident(name)) => {
                if name == "sizeof" {
                    self.expect_punct("(")?;
                    let (ty, _q) = self.type_and_quals()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::SizeOf(ty));
                }
                // Inline assembly.
                if name == "asm" || name == "__asm__" || name == "__asm" {
                    self.eat_ident("volatile");
                    self.expect_punct("(")?;
                    let text = match self.next() {
                        Some(TokenKind::Str(s)) => s.to_string(),
                        got => return Err(self.err(format!("expected asm string, got {got:?}"))),
                    };
                    // Skip extended operand clauses until the closing paren.
                    let mut depth = 1;
                    while depth > 0 {
                        match self.next() {
                            Some(TokenKind::Punct("(")) => depth += 1,
                            Some(TokenKind::Punct(")")) => depth -= 1,
                            Some(_) => {}
                            None => return Err(self.err("unterminated asm()")),
                        }
                    }
                    return Ok(Expr::Asm(text));
                }
                if self.is_punct("(") {
                    self.expect_punct("(")?;
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    return Ok(Expr::Call {
                        name: name.to_string(),
                        args,
                    });
                }
                Ok(Expr::Ident(name.to_string()))
            }
            got => Err(self.err(format!("expected expression, got {got:?}"))),
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
        match &p.items[0] {
            Item::Global {
                quals, name, init, ..
            } => {
                assert!(quals.volatile);
                assert_eq!(name, "flag");
                assert_eq!(init, &vec![0]);
            }
            other => panic!("expected global, got {other:?}"),
        }
        match &p.items[1] {
            Item::Global { ty, init, .. } => {
                assert_eq!(*ty, CType::Array(Box::new(CType::Int), 4));
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
        match &p.items[0] {
            Item::Struct { name, fields } => {
                assert_eq!(name, "Node");
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[1].0, CType::Struct("Node".into()).ptr());
            }
            other => panic!("expected struct, got {other:?}"),
        }
        match &p.items[1] {
            Item::Function { body, .. } => {
                assert!(matches!(
                    &body[0].kind,
                    StmtKind::Return(Some(Expr::Member { arrow: true, .. }))
                ));
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse_src("int f() { return 1 + 2 * 3 == 7 && 4 < 5; }");
        // ((1 + (2*3)) == 7) && (4 < 5)
        match &p.items[0] {
            Item::Function { body, .. } => match &body[0].kind {
                StmtKind::Return(Some(Expr::Binary {
                    op: BinaryOp::LAnd,
                    lhs,
                    ..
                })) => {
                    assert!(matches!(
                        **lhs,
                        Expr::Binary {
                            op: BinaryOp::Eq,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => unreachable!(),
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
        match &p.items[0] {
            Item::Function { body, .. } => assert_eq!(body.len(), 5),
            _ => unreachable!(),
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
        match &p.items[0] {
            Item::Function { body, .. } => {
                assert_eq!(body.len(), 2);
                assert!(matches!(&body[0].kind, StmtKind::Expr(Expr::Asm(s)) if s == "mfence"));
                assert!(matches!(&body[1].kind, StmtKind::Expr(Expr::Asm(s)) if s == "pause"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_casts_and_ternary() {
        let p = parse_src("long f(int x) { return (long)x > 0 ? x : -x; }");
        match &p.items[0] {
            Item::Function { body, .. } => {
                assert!(matches!(
                    &body[0].kind,
                    StmtKind::Return(Some(Expr::Ternary { .. }))
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_pointer_params_and_deref() {
        let p = parse_src("void set(int *p, int v) { *p = v; }");
        match &p.items[0] {
            Item::Function { params, body, .. } => {
                assert_eq!(params[0].0, CType::Int.ptr());
                assert!(matches!(
                    &body[0].kind,
                    StmtKind::Expr(Expr::Assign { lhs, .. })
                        if matches!(**lhs, Expr::Unary { op: UnaryOp::Deref, .. })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn error_on_garbage() {
        let toks = lex("int f() { return @; }");
        assert!(toks.is_err() || parse(&toks.unwrap()).is_err());
    }

    #[test]
    fn volatile_pointer_decl() {
        let p = parse_src("volatile int *p; int f() { return *p; }");
        match &p.items[0] {
            Item::Global { ty, quals, .. } => {
                assert_eq!(*ty, CType::Int.ptr());
                assert!(quals.volatile);
            }
            _ => unreachable!(),
        }
    }
}
