//! # atomig-mir
//!
//! An LLVM-flavoured mini intermediate representation (MIR) used by the
//! AtoMig reproduction.
//!
//! The paper implements AtoMig as a set of LLVM link-time passes that run on
//! modules compiled with `clang -O0`. This crate reproduces the slice of
//! LLVM IR those passes observe:
//!
//! * typed instructions with **atomic orderings** and **volatile flags** on
//!   loads/stores ([`Ordering`], [`InstKind::Load`], [`InstKind::Store`]),
//! * `cmpxchg`/`atomicrmw`/`fence` ([`InstKind::Cmpxchg`], [`InstKind::Rmw`],
//!   [`InstKind::Fence`]),
//! * `getelementptr`-style typed address computation ([`InstKind::Gep`]) —
//!   the key ingredient of the paper's type-based alias exploration (§3.4),
//! * `-O0`-style lowering: every source variable is an [`InstKind::Alloca`]
//!   stack slot, so there are no phi nodes and dependence chains flow
//!   through memory exactly as the paper's influence analysis expects.
//!
//! The crate provides a [`Module`] container, a [`builder::FunctionBuilder`]
//! for programmatic construction, a textual [`parser`] and printer for
//! writing test programs by hand, memory-location keys ([`MemLoc`]) used by
//! alias exploration, and a [`verify`] pass.
//!
//! # Examples
//!
//! Parse the message-passing writer of the paper's Figure 5 and print it
//! back:
//!
//! ```
//! use atomig_mir::parse_module;
//!
//! let m = parse_module(
//!     r#"
//!     module "mp"
//!     global @flag: i32 = 0
//!     global @msg: i32 = 0
//!     fn @writer() : void {
//!     bb0:
//!       store i32 1, @msg
//!       store i32 1, @flag
//!       ret
//!     }
//!     "#,
//! )?;
//! assert_eq!(m.funcs.len(), 1);
//! assert_eq!(m.globals.len(), 2);
//! # Ok::<(), atomig_mir::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod func;
pub mod fxhash;
pub mod inst;
pub mod loc;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use func::{Block, BlockId, Function, InstId, InstIndex};
pub use fxhash::{FxBuild, FxHasher};
pub use inst::{
    BinOp, Builtin, Callee, CmpPred, Cmpxchg, GepIndex, Inst, InstKind, Ordering, RmwOp, Terminator,
};
pub use loc::MemLoc;
pub use module::{FuncId, GlobalDef, GlobalId, Module, StructDef, StructId};
pub use parser::parse_module;
pub use types::{Type, TypeKind};
pub use value::Value;
pub use verify::{verify_module, VerifyError};
