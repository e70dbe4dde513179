//! # atomig-frontc
//!
//! A frontend for **MiniC**, the C subset in which the reproduction's
//! benchmarks (Concurrency Kit structures, the MariaDB lf-hash, CLHT,
//! Phoenix kernels, and the synthetic large applications) are written.
//!
//! The frontend mirrors the paper's toolchain position (§3.1–§3.2):
//!
//! * programs are lowered to [`atomig_mir`] the way `clang -O0` lowers C —
//!   every local variable and parameter lives in an [`alloca`] stack slot,
//!   so dependence chains flow through memory exactly as AtoMig's
//!   influence analysis expects;
//! * the `volatile` qualifier is preserved as a per-access flag;
//! * `_Atomic`-qualified variables and the `__atomic_*`-style builtins
//!   (`cmpxchg`, `xchg`, `faa`, `atomic_load/store[_explicit]`) lower to
//!   atomic MIR instructions;
//! * x86 inline assembly (`asm("mfence")`, `asm("lock; xchgl ...")`,
//!   `asm("pause")`, compiler barriers) is normalized to portable builtins
//!   by the [`asm`] pass — the paper's "compiler frontend pass that
//!   analyzes all uses of x86 inline assembly implementing synchronization
//!   patterns and replaces them with their compiler builtin counterparts".
//!
//! [`alloca`]: atomig_mir::InstKind::Alloca
//!
//! Language note: MiniC arithmetic is 64-bit throughout; narrow integer
//! types (`char`/`short`/`int`) size storage but do **not** truncate on
//! store — use an explicit cast (`(int)x`) where C's wrap-at-width
//! semantics matter. The benchmarks avoid depending on narrow overflow.
//!
//! # Examples
//!
//! ```
//! let module = atomig_frontc::compile(r#"
//!     int flag; int msg;
//!     void writer(long unused) { msg = 42; flag = 1; }
//!     int reader() { while (flag == 0) {} return msg; }
//! "#, "mp").unwrap();
//! assert_eq!(module.funcs.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{
    BinaryOp, CType, Decl, Expr, ExprId, IfArm, Item, List, Program, Stmt, StmtId, StmtKind, Sym,
    TyId, Types, UnaryOp,
};
pub use lexer::{lex, Class, LexError, Token, TokenKind, Tokens};
pub use lower::{lower, LowerError};
pub use parser::{parse, ParseError, MAX_DEPTH};

/// Compiles MiniC source into a verified MIR module: lex, parse, lower
/// and verify.
///
/// # Errors
///
/// Returns a human-readable message for lexical, syntactic, semantic, or
/// verification failures.
pub fn compile(source: &str, name: &str) -> Result<atomig_mir::Module, String> {
    // Each stage's input is dropped as soon as the next stage has read
    // it, so the tokens never outlive parsing nor the AST lowering.
    let tokens = lex(source).map_err(|e| e.to_string())?;
    let program = parse(&tokens).map_err(|e| e.to_string())?;
    drop(tokens);
    let module = lower(&program, name).map_err(|e| e.to_string())?;
    drop(program);
    atomig_mir::verify_module(&module).map_err(|e| e.to_string())?;
    Ok(module)
}
