//! Regenerates Table 2: verification results on ck and lf-hash.
//!
//! Each benchmark's model-checking client is ported at the four detection
//! stages (Original / Expl. / Spin / AtoMig) and exhaustively checked
//! under the Arm-flavoured weak memory model. `Y` = no violation found
//! (exploration complete), `x` = a weak-memory assertion violation.
//!
//! Exits with status 1, naming each cell, when any verdict differs from
//! the paper's column.

use atomig_bench::{render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_workloads::{check_arm, compile_stage, glyph, STAGES};

fn main() {
    let benchmarks: Vec<(&str, String, [&str; 4])> = vec![
        (
            "ck_ring",
            atomig_workloads::ck::ring_mc(),
            ["x", "Y", "Y", "Y"],
        ),
        (
            "ck_spinlock_cas",
            atomig_workloads::ck::spinlock_cas_mc(),
            ["x", "Y", "Y", "Y"],
        ),
        (
            "ck_spinlock_mcs",
            atomig_workloads::ck::spinlock_mcs_mc(),
            ["x", "x", "Y", "Y"],
        ),
        (
            "ck_sequence",
            atomig_workloads::ck::sequence_mc(),
            ["x", "x", "x", "Y"],
        ),
        (
            "lf-hash",
            atomig_workloads::lf_hash::lf_hash_mc(),
            ["x", "x", "x", "Y"],
        ),
    ];

    let mut rec = BenchRecorder::new("table2");
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut mismatches = Vec::new();
    for (name, src, paper) in &benchmarks {
        let mut row = vec![name.to_string()];
        for (&stage, want) in STAGES.iter().zip(paper) {
            let (module, _) = compile_stage(src, name, stage);
            let verdict = check_arm(&module);
            assert!(!verdict.truncated, "{name} at {stage:?}: {verdict}");
            let got = glyph(verdict.violation.is_none());
            if got != *want {
                mismatches.push(format!(
                    "{name} at {stage:?}: got {got}, paper {want} ({verdict})"
                ));
            }
            row.push(got.to_string());
            records.push(Value::obj(vec![
                ("benchmark", (*name).into()),
                ("stage", format!("{stage:?}").as_str().into()),
                ("passed", verdict.violation.is_none().into()),
                ("states", verdict.states.into()),
                ("executions", verdict.executions.into()),
                ("revisits", verdict.revisits.into()),
                ("peak_tracked", verdict.peak_tracked.into()),
            ]));
        }
        row.push(format!(
            "{} {} {} {}",
            paper[0], paper[1], paper[2], paper[3]
        ));
        rows.push(row);
    }

    print!(
        "{}",
        render_table(
            "Table 2: Verification results on ck and lf-hash (model: ARM view machine)",
            &["Benchmark", "Original", "Expl.", "Spin", "AtoMig", "paper"],
            &rows,
        )
    );
    rec.put("checks", Value::Arr(records));
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("Table 2 mismatch: {m}");
        }
        std::process::exit(1);
    }
}
