//! The MariaDB lf-hash WMM bug (Figure 7, MDEV-27088), reproduced and
//! fixed automatically.
//!
//! `l_find` takes an optimistic snapshot of a node's (state, key) pair
//! and retries when `state` changed. On a weak-memory machine the key
//! read can pair with a stale state read: the finder sees VALID with a
//! NULL key. AtoMig classifies the snapshot loop as *optimistic* and adds
//! explicit fences — the same fix that was merged into MariaDB.
//!
//! Run with: `cargo run --example mariadb_bug`

use atomig_core::{AtomigConfig, Pipeline, Stage};
use atomig_wmm::{Checker, ModelKind};
use atomig_workloads::lf_hash;

fn main() {
    let src = lf_hash::lf_hash_mc();
    let original = atomig_frontc::compile(&src, "lf_hash").expect("compiles");

    println!("== the hand-ported code MariaDB shipped ==");
    let tso = Checker::new(ModelKind::Tso).check(&original, "main");
    println!("under x86-TSO      : {tso}  (the code is fine on x86)");
    let arm = Checker::new(ModelKind::Arm).check(&original, "main");
    println!("under Arm-like WMM : {arm}  (the MDEV-27088 bug)");
    assert!(tso.passed() && arm.violation.is_some());

    println!("\n== what the intermediate stages would do ==");
    for stage in [Stage::Explicit, Stage::Spin] {
        let mut m = original.clone();
        Pipeline::new(AtomigConfig::for_stage(stage)).port_module(&mut m);
        let v = Checker::new(ModelKind::Arm).check(&m, "main");
        println!("{stage:?}: {v}  (insufficient — matches Table 2)");
        assert!(v.violation.is_some());
    }

    println!("\n== the full AtoMig port ==");
    let mut ported = original.clone();
    let report = Pipeline::new(AtomigConfig::full()).port_module(&mut ported);
    println!(
        "detected {} spinloop(s), {} optimistic loop(s); added {} implicit + {} explicit barriers",
        report.spinloops,
        report.optiloops,
        report.implicit_barriers_added,
        report.explicit_barriers_added
    );
    let fixed = Checker::new(ModelKind::Arm).check(&ported, "main");
    println!("under Arm-like WMM : {fixed}");
    assert!(fixed.passed());
    println!("\nThe automatically inserted fences are the fix that was merged into MariaDB.");
}
