//! # atomig-suite
//!
//! Umbrella crate for the AtoMig reproduction: re-exports every workspace
//! crate and anchors the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Start with [`atomig_core`] for the paper's contribution, or run
//! `cargo run --example quickstart`.

#![forbid(unsafe_code)]

pub use atomig_analysis as analysis;
pub use atomig_core as core;
pub use atomig_frontc as frontc;
pub use atomig_mir as mir;
pub use atomig_wmm as wmm;
pub use atomig_workloads as workloads;
