//! # atomig-workloads
//!
//! MiniC ports of every benchmark the paper evaluates, plus the synthetic
//! large-application generator:
//!
//! * [`ck`] — Concurrency Kit structures (§4.1, Table 2): `ck_ring`,
//!   `ck_spinlock_cas`, `ck_spinlock_mcs`, `ck_sequence`, each with a
//!   model-checking client, a performance client, and (for Table 5) an
//!   expert Arm port using explicit fences.
//! * [`lf_hash`] — the MariaDB lock-free hash abstraction of Figure 7,
//!   including the real WMM bug AtoMig found (MDEV-27088).
//! * [`clht`] — simplified CLHT lock-based and lock-free hash tables,
//!   x86-only code used to demonstrate end-to-end porting (Table 5).
//! * [`phoenix`] — the five Phoenix 2.0 map-reduce kernels of Table 6.
//! * [`apps`] — workload kernels standing in for the five large
//!   applications (MariaDB, PostgreSQL, LevelDB, Memcached, SQLite) in
//!   the performance experiments (Tables 4 and 5).
//! * [`synth`] + [`profiles`] — the seeded synthetic-codebase generator
//!   reproducing the Table 3 pattern census at 1:100 scale.

#![forbid(unsafe_code)]

pub mod apps;
pub mod ck;
pub mod clht;
pub mod lf_hash;
pub mod phoenix;
pub mod profiles;
pub mod synth;

use atomig_core::{AtomigConfig, Pipeline, PortReport, Stage};
use atomig_mir::Module;
use atomig_wmm::{Checker, ModelKind};

/// Compiles MiniC source and ports it at the given stage.
///
/// # Panics
///
/// Panics on compile errors — workload sources are embedded and must be
/// valid (it is a bug in this crate otherwise).
pub fn compile_stage(source: &str, name: &str, stage: Stage) -> (Module, PortReport) {
    let mut module = atomig_frontc::compile(source, name)
        .unwrap_or_else(|e| panic!("workload `{name}` failed to compile: {e}"));
    let report = Pipeline::new(AtomigConfig::for_stage(stage)).port_module(&mut module);
    (module, report)
}

/// Compiles MiniC and inlines it (no porting): the fair performance
/// baseline. All performance variants share the same inlining so dynamic
/// op counts are comparable (a real compiler would inline all of them at
/// `-O2` alike).
pub fn compile_baseline(source: &str, name: &str) -> Module {
    let mut module = atomig_frontc::compile(source, name)
        .unwrap_or_else(|e| panic!("workload `{name}` failed to compile: {e}"));
    atomig_analysis::inline_module(&mut module, &atomig_analysis::InlineOptions::default());
    module
}

/// Compiles, inlines, and applies the Naïve port (every shared access SC).
pub fn compile_naive(source: &str, name: &str) -> (Module, atomig_core::naive::NaiveStats) {
    let mut module = compile_baseline(source, name);
    let stats = atomig_core::naive_port(&mut module);
    (module, stats)
}

/// Compiles, inlines, and applies the Lasagne-style port (explicit fences).
pub fn compile_lasagne(source: &str, name: &str) -> (Module, atomig_core::lasagne::LasagneStats) {
    let mut module = compile_baseline(source, name);
    let stats = atomig_core::lasagne_port(&mut module);
    (module, stats)
}

/// Compiles and applies the full AtoMig pipeline (which inlines first).
pub fn compile_atomig(source: &str, name: &str) -> (Module, PortReport) {
    compile_stage(source, name, Stage::Full)
}

/// Runs a module deterministically and returns `(stats, cost)` under the
/// Armv8 cost model, panicking on execution failure.
pub fn run_cost(module: &Module, what: &str) -> (atomig_wmm::ExecStats, u64) {
    let r = atomig_wmm::run_default(module);
    assert!(r.ok(), "{what}: {:?}", r.failure);
    let cost = atomig_wmm::CostModel::ARMV8.cost(&r.stats);
    (r.stats, cost)
}

/// Model-checks a module's `main` under the Arm-flavoured weak model.
pub fn check_arm(module: &Module) -> atomig_wmm::Verdict {
    Checker::new(ModelKind::Arm).check(module, "main")
}

/// The Table 2 stages in order.
pub const STAGES: [Stage; 4] = [Stage::Original, Stage::Explicit, Stage::Spin, Stage::Full];

/// Verdict glyphs used by the table harnesses.
pub fn glyph(safe: bool) -> &'static str {
    if safe {
        "Y"
    } else {
        "x"
    }
}
