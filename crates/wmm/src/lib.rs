//! # atomig-wmm
//!
//! The execution substrate of the AtoMig reproduction: operational memory
//! models, a bounded-exhaustive model checker (the stand-in for GenMC in
//! §4.1), and a deterministic cost-model interpreter (the stand-in for the
//! paper's 96-core Kunpeng 920 Arm server in §4.2–4.3).
//!
//! * [`models`] — [`models::ScMem`] (sequential consistency),
//!   [`models::TsoMem`] (x86-TSO store buffers), and [`models::ViewMem`]
//!   (a view-based C11-style weak model with relaxed/acquire/release/SC
//!   accesses and SC fences).
//! * [`exec`] — the threaded MIR executor generic over a memory model.
//! * [`shared`] — the copy-on-write, digest-caching nodes that checker
//!   states share.
//! * `flatmap` (crate-private) — the sorted-vector map that holds
//!   checker state's small maps (memory, views, histories, stack slots).
//! * [`checker`] — exhaustive exploration of schedules × buffer flushes ×
//!   read choices with visited-state pruning.
//! * [`interp`] + [`cost`] — deterministic runs with dynamic operation
//!   counters and the Armv8 barrier cost model.
//! * [`litmus`] — classic litmus tests with per-model expectations.
//!
//! # Examples
//!
//! Expose the Figure 1 message-passing bug under WMM and verify the fix:
//!
//! ```
//! use atomig_wmm::{Checker, ModelKind, litmus};
//!
//! let broken = litmus::mp_plain().module();
//! let verdict = Checker::new(ModelKind::Wmm).check(&broken, "main");
//! assert!(verdict.violation.is_some()); // stale msg read
//!
//! let fixed = litmus::mp_sc().module();
//! let verdict = Checker::new(ModelKind::Wmm).check(&fixed, "main");
//! assert!(verdict.passed());
//! ```

#![forbid(unsafe_code)]

pub mod checker;
pub mod compiled;
pub mod cost;
pub mod exec;
mod flatmap;
pub mod interp;
pub mod litmus;
pub mod mem;
pub mod models;
pub mod shared;

pub use checker::{Checker, CheckerConfig, Limit, ModelKind, Verdict};
pub use cost::CostModel;
pub use exec::{ExecStats, Failure, Machine, Program, StepOutcome, Thread, ThreadState};
pub use interp::{run, run_default, InterpConfig, RunResult};
pub use mem::Layout;
pub use models::{Chooser, FirstChoice, LastChoice, MemModel, ScMem, ScMode, TsoMem, ViewMem};
