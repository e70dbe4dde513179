//! # atomig-analysis
//!
//! The static-analysis substrate of the AtoMig reproduction: everything the
//! paper's passes need from LLVM's analysis infrastructure, rebuilt on
//! [`atomig_mir`]:
//!
//! * [`mod@cfg`] — control-flow graph (predecessors/successors, reverse
//!   post-order),
//! * [`dom`] — dominator tree (Cooper–Harvey–Kennedy),
//! * [`loops`] — natural-loop detection with loop exits and exit
//!   conditions, the entry point of the paper's spinloop analysis (§3.3),
//! * [`escape`] — escape analysis classifying accesses as local (provably
//!   confined to a non-escaping stack slot) or *non-local* in the paper's
//!   sense ("may also be accessed from outside that function"),
//! * [`influence`] — the scoped, cached *instruction-influence analysis*
//!   of §3.5: which (non-local) memory reads a value transitively depends
//!   on, flowing through `-O0` stack slots,
//! * [`callgraph`] and [`inline`] — call graph and the bottom-up inliner
//!   the paper applies so loops spanning several functions become
//!   analyzable intra-procedurally (§3.5),
//! * [`pointsto`] — the Andersen-style inter-procedural points-to analysis
//!   the paper deliberately *skips* for scalability (§3.4/§3.5), built here
//!   so the precision/scalability trade-off can be measured.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dom;
pub mod escape;
pub mod influence;
pub mod inline;
pub mod loops;
pub mod pointsto;
pub mod reach;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use escape::EscapeInfo;
pub use influence::{DepSet, DepSummary, InfluenceAnalysis};
pub use inline::{inline_module, InlineOptions};
pub use loops::{find_loops, LoopExit, NaturalLoop};
pub use pointsto::{Cell, CellId, ObjBase, PointsTo, PointsToStats};
pub use reach::ThreadReach;
