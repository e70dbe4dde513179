//! # atomig-core
//!
//! The AtoMig passes (§3 of the paper), operating on [`atomig_mir`]
//! modules:
//!
//! 1. [`annotations`] — *analyzing explicit annotations* (§3.2): existing
//!    atomics are upgraded to sequentially consistent, `volatile` accesses
//!    become SC atomics (inline-assembly idioms are normalized to builtins
//!    by the frontend, see `atomig-frontc`).
//! 2. [`spinloop`] — *detecting implicit synchronization patterns* (§3.3):
//!    spinloops and their *spin controls*.
//! 3. [`optimistic`] — optimistic (seqlock-style) loops and *optimistic
//!    controls* (§3.3).
//! 4. [`alias`] — *alias exploration* (§3.4): module-wide type-based
//!    sticky-buddy expansion ("once atomic, always atomic").
//! 5. [`transform`] — the program transformation: SC upgrades plus explicit
//!    fences around optimistic controls.
//!
//! [`pipeline`] wires the passes into the Figure 2 workflow and produces a
//! [`report::PortReport`] with the Table 3 statistics. [`naive`] and
//! [`lasagne`] implement the two baselines the evaluation compares against.
//!
//! # Examples
//!
//! Port the message-passing example (Figure 5):
//!
//! ```
//! use atomig_mir::parse_module;
//! use atomig_core::{Pipeline, AtomigConfig};
//!
//! let mut m = parse_module(r#"
//! global @flag: i32 = 0
//! global @msg: i32 = 0
//! fn @reader() : i32 {
//! loop:
//!   %f = load i32, @flag
//!   %c = cmp ne %f, 1
//!   condbr %c, loop, done
//! done:
//!   %v = load i32, @msg
//!   ret %v
//! }
//! fn @writer() : void {
//! bb0:
//!   store i32 7, @msg
//!   store i32 1, @flag
//!   ret
//! }
//! "#).unwrap();
//! let report = Pipeline::new(AtomigConfig::full()).port_module(&mut m);
//! assert_eq!(report.spinloops, 1);
//! assert!(report.implicit_barriers_added >= 2); // both flag accesses
//! ```

pub mod alias;
pub mod annotations;
pub mod config;
pub mod hints;
pub mod json;
pub mod lasagne;
pub mod lint;
pub mod naive;
pub mod optimistic;
pub mod pipeline;
pub mod report;
pub mod spinloop;
pub mod trace;
pub mod transform;

pub use alias::AliasMap;
pub use config::{AliasMode, AtomigConfig, Stage};
pub use lasagne::lasagne_port;
pub use lint::{lint_module, Lint, LintReport, LintRule, Severity};
pub use naive::naive_port;
pub use optimistic::{detect_optimistic, OptimisticLoop};
pub use pipeline::Pipeline;
pub use report::{approach_matrix, BarrierCensus, PortReport};
pub use spinloop::{detect_spinloops, SpinLoopInfo};
pub use trace::{
    validate_metrics_jsonl, CheckerMetrics, Clock, Decision, DecisionLedger, MetricsTally,
    PhaseStat, PipelineMetrics, TraceAction, TraceCause,
};
