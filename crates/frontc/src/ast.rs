//! The MiniC abstract syntax tree, stored flat.
//!
//! A [`Program`] owns every node of a translation unit in a few vectors:
//! expressions and statements are addressed by [`ExprId`] and [`StmtId`],
//! child lists (call arguments, block bodies, `else if` arms, struct
//! fields, parameters, global initializers) are [`List`] ranges into side
//! vectors, names and asm text are interned to [`Sym`], and types to
//! [`TyId`]. No node owns a `Box`, a `Vec` or a `String`, so building a
//! tree costs a few amortized pushes and dropping it frees a handful of
//! vectors.
//!
//! Nodes are read by indexing the program: `program[expr_id]`,
//! `program[stmt_id]`, `&program[list]`, `&program[sym]` and
//! `program[ty_id]`.

use atomig_mir::FxBuild;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// An interned name or asm text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// An expression of a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// A statement of a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub u32);

/// An interned [`CType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TyId(pub u32);

/// A run of consecutive elements in one of a [`Program`]'s side vectors;
/// `&program[list]` is the slice.
#[derive(Debug, PartialEq, Eq)]
pub struct List<T> {
    start: u32,
    len: u32,
    of: PhantomData<T>,
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> Default for List<T> {
    fn default() -> Self {
        List {
            start: 0,
            len: 0,
            of: PhantomData,
        }
    }
}

impl<T> List<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements pushed onto `pool` since it had `start` of them.
    pub(crate) fn since(pool: &[T], start: usize) -> List<T> {
        List {
            start: start as u32,
            len: (pool.len() - start) as u32,
            of: PhantomData,
        }
    }
}

/// Moves `pending[mark..]` onto the end of `pool` as one [`List`]. The
/// parser collects a list on a stack shared by all nesting levels, so a
/// list's elements are contiguous in `pool` even when they contain lists
/// of their own.
pub(crate) fn seal<T: Copy>(pool: &mut Vec<T>, pending: &mut Vec<T>, mark: usize) -> List<T> {
    let start = pool.len() as u32;
    pool.extend_from_slice(&pending[mark..]);
    pending.truncate(mark);
    List {
        start,
        len: pool.len() as u32 - start,
        of: PhantomData,
    }
}

/// A C-level type expression; nested types are [`TyId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CType {
    /// `void`.
    Void,
    /// `char` (8-bit).
    Char,
    /// `short` (16-bit).
    Short,
    /// `int` (32-bit).
    Int,
    /// `long` (64-bit).
    Long,
    /// `struct Name`.
    Struct(Sym),
    /// `T*`.
    Ptr(TyId),
    /// `T name[N]` — only at declaration sites.
    Array(TyId, u32),
}

/// The type interner: each distinct [`CType`] gets one [`TyId`], so a type
/// is compared, copied and looked up as one `u32`.
#[derive(Debug, Clone)]
pub struct Types {
    kinds: Vec<CType>,
    /// `T*` of each type, once it exists.
    ptr_of: Vec<Option<TyId>>,
    /// Struct and array types, for deduplication.
    others: HashMap<CType, TyId, FxBuild>,
}

impl Default for Types {
    fn default() -> Self {
        let mut types = Types {
            kinds: Vec::new(),
            ptr_of: Vec::new(),
            others: HashMap::default(),
        };
        for k in [
            CType::Void,
            CType::Char,
            CType::Short,
            CType::Int,
            CType::Long,
        ] {
            types.push(k);
        }
        types
    }
}

impl Types {
    /// `void`.
    pub const VOID: TyId = TyId(0);
    /// `char`.
    pub const CHAR: TyId = TyId(1);
    /// `short`.
    pub const SHORT: TyId = TyId(2);
    /// `int`.
    pub const INT: TyId = TyId(3);
    /// `long`.
    pub const LONG: TyId = TyId(4);

    fn push(&mut self, kind: CType) -> TyId {
        let id = TyId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.ptr_of.push(None);
        id
    }

    /// Interns `kind`.
    pub(crate) fn intern(&mut self, kind: CType) -> TyId {
        match kind {
            CType::Void => Types::VOID,
            CType::Char => Types::CHAR,
            CType::Short => Types::SHORT,
            CType::Int => Types::INT,
            CType::Long => Types::LONG,
            CType::Ptr(t) => self.ptr(t),
            CType::Struct(_) | CType::Array(..) => match self.others.get(&kind) {
                Some(&id) => id,
                None => {
                    let id = self.push(kind);
                    self.others.insert(kind, id);
                    id
                }
            },
        }
    }

    /// `T*` for `t`.
    pub(crate) fn ptr(&mut self, t: TyId) -> TyId {
        if let Some(p) = self.ptr_of[t.0 as usize] {
            return p;
        }
        let p = self.push(CType::Ptr(t));
        self.ptr_of[t.0 as usize] = Some(p);
        p
    }

    /// Number of interned types; every `TyId` is below it.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Renders `t` as the derived `Debug` of a boxed type tree would,
    /// e.g. `Ptr(Struct("Node"))`.
    pub fn render(&self, names: &Names, t: TyId) -> String {
        let mut out = String::new();
        self.render_into(names, t, &mut out);
        out
    }

    fn render_into(&self, names: &Names, t: TyId, out: &mut String) {
        use fmt::Write;
        match self[t] {
            CType::Struct(s) => write!(out, "Struct({:?})", &names[s]),
            CType::Ptr(p) => {
                out.push_str("Ptr(");
                self.render_into(names, p, out);
                write!(out, ")")
            }
            CType::Array(e, n) => {
                out.push_str("Array(");
                self.render_into(names, e, out);
                write!(out, ", {n})")
            }
            scalar => write!(out, "{scalar:?}"),
        }
        .expect("writing to a String");
    }
}

impl Index<TyId> for Types {
    type Output = CType;
    fn index(&self, t: TyId) -> &CType {
        &self.kinds[t.0 as usize]
    }
}

/// The name interner's storage: every interned string, back to back.
/// The map from text to [`Sym`] lives in the parser; a program only
/// needs the way back.
#[derive(Debug, Clone, Default)]
pub struct Names {
    text: String,
    /// End offset in `text` of each symbol.
    ends: Vec<u32>,
}

impl Names {
    /// Appends `s` as a new symbol.
    pub(crate) fn push(&mut self, s: &str) -> Sym {
        self.text.push_str(s);
        self.ends.push(self.text.len() as u32);
        Sym(self.ends.len() as u32 - 1)
    }

    /// Number of symbols; every `Sym` is below it.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

impl Index<Sym> for Names {
    type Output = str;
    fn index(&self, s: Sym) -> &str {
        let i = s.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// Qualifiers on a declaration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quals {
    /// `volatile`.
    pub volatile: bool,
    /// `_Atomic` / `atomic`.
    pub atomic: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LAnd,
    /// `||` (short-circuit)
    LOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `*`
    Deref,
    /// `&`
    AddrOf,
}

/// Expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable reference.
    Ident(Sym),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: ExprId,
    },
    /// Assignment `lhs = rhs` (also compound `op=`, with `op` set).
    Assign {
        /// Target lvalue.
        lhs: ExprId,
        /// Source value.
        rhs: ExprId,
        /// `Some(op)` for compound assignments.
        op: Option<BinaryOp>,
    },
    /// Pre/post increment/decrement.
    IncDec {
        /// Target lvalue.
        target: ExprId,
        /// +1 or -1.
        delta: i64,
        /// Prefix (`++x`) or postfix (`x++`).
        prefix: bool,
    },
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: Sym,
        /// Arguments.
        args: List<ExprId>,
    },
    /// Array subscript `base[index]`.
    Index {
        /// Array or pointer expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// Member access `base.field` or `base->field`.
    Member {
        /// Struct expression.
        base: ExprId,
        /// Field name.
        field: Sym,
        /// `->` (true) vs `.` (false).
        arrow: bool,
    },
    /// Ternary `cond ? t : e`.
    Ternary {
        /// Condition.
        cond: ExprId,
        /// Then value.
        then_e: ExprId,
        /// Else value.
        else_e: ExprId,
    },
    /// Inline assembly `asm("...")`; the symbol is the template text.
    Asm(Sym),
    /// `sizeof(T)` — in MiniC, the number of *slots* the type occupies
    /// (the flat memory model's unit), suitable for `malloc`.
    SizeOf(TyId),
    /// A cast `(T)expr`.
    Cast {
        /// Target type.
        ty: TyId,
        /// Operand.
        expr: ExprId,
    },
}

/// A statement together with the 1-based source line it starts on
/// (`0` = unknown, e.g. synthesized nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// 1-based source line of the statement's first token.
    pub line: u32,
    /// The statement proper.
    pub kind: StmtKind,
}

/// One `if (cond) then_s` arm of an `if` / `else if` chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfArm {
    /// Line of the arm's `if` keyword.
    pub line: u32,
    /// Condition.
    pub cond: ExprId,
    /// Branch taken when `cond` holds.
    pub then_s: StmtId,
}

/// A declared name with its type: a struct field or a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Declared type.
    pub ty: TyId,
    /// Name.
    pub name: Sym,
}

/// Statement kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// Local declaration with optional initializer.
    Decl {
        /// Declared type.
        ty: TyId,
        /// Qualifiers.
        quals: Quals,
        /// Name.
        name: Sym,
        /// Initializer.
        init: Option<ExprId>,
    },
    /// Expression statement.
    Expr(ExprId),
    /// `if (c1) s1 else if (c2) s2 … else s`, one arm per condition:
    /// a chain of `else if`s is one statement, not a nest of them.
    If {
        /// The arms, tested in order.
        arms: List<IfArm>,
        /// Final `else` branch.
        else_s: Option<StmtId>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: StmtId,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Body.
        body: StmtId,
        /// Condition.
        cond: ExprId,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Initializer (decl or expr).
        init: Option<StmtId>,
        /// Condition (empty = true).
        cond: Option<ExprId>,
        /// Step expression.
        step: Option<ExprId>,
        /// Body.
        body: StmtId,
    },
    /// `{ ... }`.
    Block(List<StmtId>),
    /// `return e;`.
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// Top-level items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A struct definition.
    Struct {
        /// Name.
        name: Sym,
        /// Fields.
        fields: List<Decl>,
    },
    /// A global variable.
    Global {
        /// Type.
        ty: TyId,
        /// Qualifiers.
        quals: Quals,
        /// Name.
        name: Sym,
        /// Flat initializer values.
        init: List<i64>,
    },
    /// A function definition.
    Function {
        /// Return type.
        ret: TyId,
        /// Name.
        name: Sym,
        /// Parameters.
        params: List<Decl>,
        /// Body.
        body: List<StmtId>,
    },
}

/// A parsed translation unit: its items and every node they reach.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All items in source order.
    pub items: Vec<Item>,
    /// Every expression node.
    pub(crate) exprs: Vec<Expr>,
    /// Every statement node.
    pub(crate) stmts: Vec<Stmt>,
    /// Call arguments.
    pub(crate) expr_lists: Vec<ExprId>,
    /// Block and function bodies.
    pub(crate) stmt_lists: Vec<StmtId>,
    /// `if` / `else if` arms.
    pub(crate) arms: Vec<IfArm>,
    /// Struct fields and function parameters.
    pub(crate) decls: Vec<Decl>,
    /// Global initializer values.
    pub(crate) inits: Vec<i64>,
    /// Interned types.
    pub types: Types,
    /// Interned names and asm text.
    pub names: Names,
}

impl Index<ExprId> for Program {
    type Output = Expr;
    fn index(&self, e: ExprId) -> &Expr {
        &self.exprs[e.0 as usize]
    }
}

impl Index<StmtId> for Program {
    type Output = Stmt;
    fn index(&self, s: StmtId) -> &Stmt {
        &self.stmts[s.0 as usize]
    }
}

impl Index<Sym> for Program {
    type Output = str;
    fn index(&self, s: Sym) -> &str {
        &self.names[s]
    }
}

impl Index<TyId> for Program {
    type Output = CType;
    fn index(&self, t: TyId) -> &CType {
        &self.types[t]
    }
}

/// An element type that lives in one of a [`Program`]'s side vectors.
pub trait Listed: Sized {
    /// The vector holding every list of `Self`.
    fn pool(program: &Program) -> &[Self];
}

impl Listed for ExprId {
    fn pool(p: &Program) -> &[ExprId] {
        &p.expr_lists
    }
}

impl Listed for StmtId {
    fn pool(p: &Program) -> &[StmtId] {
        &p.stmt_lists
    }
}

impl Listed for IfArm {
    fn pool(p: &Program) -> &[IfArm] {
        &p.arms
    }
}

impl Listed for Decl {
    fn pool(p: &Program) -> &[Decl] {
        &p.decls
    }
}

impl Listed for i64 {
    fn pool(p: &Program) -> &[i64] {
        &p.inits
    }
}

impl<T: Listed> Index<List<T>> for Program {
    type Output = [T];
    fn index(&self, l: List<T>) -> &[T] {
        &T::pool(self)[l.start as usize..(l.start + l.len) as usize]
    }
}

impl Program {
    /// Renders expression `e` for an error message: a leaf as the derived
    /// `Debug` of a boxed tree would (`Int(1)`, `Ident("a")`), any other
    /// node as its variant with its subexpressions elided, e.g.
    /// `Binary { op: Add, .. }`, so the text stays short however large
    /// the expression.
    pub fn render_expr(&self, e: ExprId) -> String {
        match self[e] {
            Expr::Int(v) => format!("Int({v})"),
            Expr::Ident(s) => format!("Ident({:?})", &self[s]),
            Expr::Asm(s) => format!("Asm({:?})", &self[s]),
            Expr::SizeOf(t) => format!("SizeOf({})", self.types.render(&self.names, t)),
            Expr::Binary { op, .. } => format!("Binary {{ op: {op:?}, .. }}"),
            Expr::Unary { op, .. } => format!("Unary {{ op: {op:?}, .. }}"),
            Expr::Assign { op, .. } => format!("Assign {{ op: {op:?}, .. }}"),
            Expr::IncDec { delta, prefix, .. } => {
                format!("IncDec {{ delta: {delta}, prefix: {prefix}, .. }}")
            }
            Expr::Call { name, .. } => format!("Call {{ name: {:?}, .. }}", &self[name]),
            Expr::Index { .. } => "Index { .. }".to_string(),
            Expr::Member { field, arrow, .. } => {
                format!("Member {{ field: {:?}, arrow: {arrow}, .. }}", &self[field])
            }
            Expr::Ternary { .. } => "Ternary { .. }".to_string(),
            Expr::Cast { ty, .. } => {
                format!("Cast {{ ty: {}, .. }}", self.types.render(&self.names, ty))
            }
        }
    }
}
