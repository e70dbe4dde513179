//! Pins the checker's full verdict — violation, states, executions,
//! revisits and peak tracked — on a fixed set of programs against
//! `tests/verdict_pin.txt`.
//!
//! A change to the checker's state representation, hashing or search
//! order must leave every line byte-identical. The cases are Table 2's grid under
//! Arm and its clients at Original under TSO, three wide clients ported
//! at the full stage, the litmus library and every `examples/*.c` (as
//! written and ported) under all four models, and 50 seeded programs
//! from the monotonicity test's generator under all four models.
//!
//! On a mismatch the test writes what it got to
//! `target/tmp/verdict_pin.txt`; copy that file over the golden one only
//! when a change of verdict is intended.

mod common;

use atomig_core::Stage;
use atomig_mir::Module;
use atomig_testutil::Rng;
use atomig_wmm::{litmus, Checker, ModelKind};
use atomig_workloads::{ck, compile_stage, lf_hash, STAGES};
use std::path::Path;

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::Wmm,
    ModelKind::Arm,
];

/// Every pinned case as `(label, module, model)`, in golden-file order.
fn cases() -> Vec<(String, Module, ModelKind)> {
    let mut out = Vec::new();
    let grid = [
        ("ck_ring", ck::ring_mc()),
        ("ck_spinlock_cas", ck::spinlock_cas_mc()),
        ("ck_spinlock_mcs", ck::spinlock_mcs_mc()),
        ("ck_sequence", ck::sequence_mc()),
        ("lf-hash", lf_hash::lf_hash_mc()),
    ];
    for (name, src) in &grid {
        for stage in STAGES {
            let (module, _) = compile_stage(src, name, stage);
            out.push((format!("table2 {name} {stage:?}"), module, ModelKind::Arm));
        }
    }
    for (name, src) in &grid {
        let (module, _) = compile_stage(src, name, Stage::Original);
        out.push((format!("table2 {name} Original"), module, ModelKind::Tso));
    }
    let wide = [
        ("spinlock_cas_perf(2,1)", ck::spinlock_cas_perf(2, 1)),
        ("spinlock_mcs_perf(2,1)", ck::spinlock_mcs_perf(2, 1)),
        ("sequence_perf(1)", ck::sequence_perf(1)),
    ];
    for (name, src) in &wide {
        let (module, _) = compile_stage(src, name, Stage::Full);
        out.push((format!("wide {name} Full"), module, ModelKind::Arm));
    }
    for lit in litmus::all() {
        for model in MODELS {
            out.push((format!("litmus {}", lit.name), lit.module(), model));
        }
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut examples: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    examples.sort();
    for path in examples {
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let src = std::fs::read_to_string(&path).expect("example readable");
        for stage in [Stage::Original, Stage::Full] {
            let (module, _) = compile_stage(&src, &name, stage);
            for model in MODELS {
                out.push((format!("example {name}.c {stage:?}"), module.clone(), model));
            }
        }
    }
    let mut rng = Rng::new(0x11170);
    for case in 0..50 {
        let src = common::two_thread_program(&mut rng);
        let module = atomig_mir::parse_module(&src).expect("generated program parses");
        for model in MODELS {
            out.push((format!("generated #{case}"), module.clone(), model));
        }
    }
    out
}

#[test]
fn verdicts_match_the_pinned_lines() {
    let mut got = String::new();
    for (label, module, model) in cases() {
        let verdict = Checker::new(model).check(&module, "main");
        got.push_str(&format!("{label} {model}: {verdict}\n"));
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/verdict_pin.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("verdict_pin.txt");
        std::fs::write(&out, &got).expect("write actual verdicts");
        let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
        let at = (0..g.len().max(w.len()))
            .find(|&i| g.get(i) != w.get(i))
            .unwrap_or(0);
        panic!(
            "verdicts differ from {} (actual written to {}); first at line {}: want {:?}, got {:?}",
            golden.display(),
            out.display(),
            at + 1,
            w.get(at),
            g.get(at)
        );
    }
}
