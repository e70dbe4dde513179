//! Pins what the analyses produce against `tests/analysis_pin.txt`, for
//! each `examples/*.c` and for the five Table 3 profiles at 1:100 (seeds
//! 1 and 7):
//!
//! * the points-to solver statistics of the compiled module, and one
//!   digest of its cell table in id order plus every access's cell ids,
//!   so a change to constraint generation cannot renumber nodes or cells
//!   unnoticed;
//! * for each alias backend, one digest each of the lint report, the port
//!   report, the port's decision ledger as `decision` JSONL and the
//!   ported MIR, all under a clock that always reads zero. The points-to
//!   line also carries the port's `solver` event, taken on the inlined
//!   module.
//!
//! The golden files under `tests/golden/` fix these outputs for the
//! examples only; this pin extends them to profile scale. A refactor of
//! detection, planning or points-to must leave every line byte-identical.
//! On a mismatch the test writes what it got to
//! `target/tmp/analysis_pin.txt`; copy that file over the golden one only
//! when a change of output is intended.

use atomig_analysis::{CellId, PointsTo};
use atomig_core::trace::{decision_event, solver_event, to_jsonl, Clock};
use atomig_core::{lint_module, AliasMode, AtomigConfig, Pipeline};
use atomig_mir::Module;
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::fmt::Write;
use std::path::Path;
use std::time::Duration;

/// 64-bit FNV-1a over the bytes, printed as 16 hex digits.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// The solver statistics and a digest of the cell numbering.
fn points_to_line(m: &Module) -> String {
    let pt = PointsTo::analyze(m);
    let mut table = String::new();
    for c in 0..pt.cell_count() {
        let id = CellId(c as u32);
        let cell = pt.cell(id);
        let shared = pt.is_shareable(id);
        writeln!(table, "{c} {cell:?} shareable={shared}").unwrap();
    }
    for fid in m.func_ids() {
        for (_, inst) in m.func(fid).insts() {
            if inst.kind.is_memory_access() {
                let ids: Vec<u32> = pt
                    .cells_of_access(fid, inst.id)
                    .iter()
                    .map(|c| c.0)
                    .collect();
                writeln!(table, "{}:{} {ids:?}", fid.0, inst.id.0).unwrap();
            }
        }
    }
    let s = &pt.stats;
    format!(
        "nodes {} cells {} constraints {} iterations {} passes {} table {}",
        s.nodes,
        s.cells,
        s.constraints,
        s.iterations,
        s.passes,
        digest(&table)
    )
}

/// Lint and port of `m` under one alias backend, as digests.
fn backend_line(m: &Module, alias: AliasMode) -> String {
    let mut cfg = AtomigConfig::full();
    cfg.alias_mode = alias;
    cfg.clock = Clock::from_fn(|| Duration::ZERO);
    let lint = lint_module(m, &cfg).to_string();
    let mut ported = m.clone();
    let report = Pipeline::new(cfg).port_module(&mut ported);
    let events: Vec<_> = report
        .ledger
        .decisions()
        .iter()
        .map(decision_event)
        .collect();
    let mir = atomig_mir::printer::print_module(&ported);
    let mut line = format!(
        "lint {} port {} decisions {} ({}) mir {}",
        digest(&lint),
        digest(&report.to_string()),
        digest(&to_jsonl(&events)),
        events.len(),
        digest(&mir)
    );
    if let Some(s) = &report.metrics.solver {
        write!(
            line,
            " port-solver {}",
            to_jsonl(&[solver_event(s)]).trim_end()
        )
        .unwrap();
    }
    line
}

fn module_lines(out: &mut String, label: &str, src: &str, name: &str) {
    let m = atomig_frontc::compile(src, name).expect("input compiles");
    writeln!(out, "{label} points-to: {}", points_to_line(&m)).unwrap();
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let line = backend_line(&m, alias);
        writeln!(out, "{label} {}: {line}", alias.name()).unwrap();
    }
}

fn pinned_lines() -> String {
    let mut got = String::new();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    for p in paths {
        let name = p.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&p).expect("example readable");
        module_lines(&mut got, &format!("example {name}.c"), &src, &name);
    }
    for seed in [1, 7] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 100)
            });
            let label = format!("profile {} 1:100 seed {seed}", p.name);
            module_lines(&mut got, &label, &app.source, p.name);
        }
    }
    got
}

#[test]
fn analysis_outputs_match_the_pinned_lines() {
    let got = pinned_lines();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analysis_pin.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_pin.txt");
        std::fs::write(&out, &got).expect("write actual lines");
        let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
        let at = (0..g.len().max(w.len()))
            .find(|&i| g.get(i) != w.get(i))
            .unwrap_or(0);
        panic!(
            "analysis output differs from {} (actual written to {}); first at line {}: want {:?}, got {:?}",
            golden.display(),
            out.display(),
            at + 1,
            w.get(at),
            g.get(at)
        );
    }
}
