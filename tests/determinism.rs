//! Determinism, end to end: every user-visible artifact — port reports,
//! transformed IR, decision-ledger dumps, metrics JSONL, lint reports,
//! checker verdicts, batch reports — is byte-identical across repeated
//! runs. Every command runs on one thread, so repeated runs are the
//! whole contract. The test names still say `jobs` so that the ids the
//! suite prints stay stable.
//!
//! Wall-clock timings are the one inherently nondeterministic field, so
//! each run injects an [`atomig_testutil::ManualClock`] (core API tests)
//! or sets `ATOMIG_DETERMINISTIC=1` (CLI tests), making timing fields a
//! pure function of the number of clock reads.

use atomig_core::trace::{
    decision_event, finding_event, meta_event, phase_event, solver_event, summary_event, to_jsonl,
    Clock,
};
use atomig_core::{lint_module, AliasMode, AtomigConfig, Pipeline};
use atomig_testutil::ManualClock;
use std::sync::Arc;

const SEQLOCK: &str = include_str!("../examples/seqlock_alias.c");

const MP: &str = r#"
    int flag; int msg;
    void writer(long u) { msg = 1; flag = 1; }
    int main() {
        long t = spawn(writer, 0);
        while (flag == 0) { }
        assert(msg == 1);
        join(t);
        return 0;
    }
"#;

fn manual_config(alias: AliasMode) -> AtomigConfig {
    let mut cfg = AtomigConfig::full();
    cfg.alias_mode = alias;
    let clock = Arc::new(ManualClock::new(1000));
    cfg.clock = Clock::from_fn(move || clock.now());
    cfg
}

/// Ports the seqlock example and renders every artifact the CLI can
/// print: the report, the transformed IR, the ledger tree, and the
/// metrics JSONL stream (the same event list `--emit-metrics` writes).
fn port_artifacts(alias: AliasMode) -> String {
    let mut m = atomig_frontc::compile(SEQLOCK, "seqlock_alias").expect("example compiles");
    let report = Pipeline::new(manual_config(alias)).port_module(&mut m);
    let mut events = vec![meta_event("port", "seqlock_alias", Some(alias.name()))];
    if let Some(s) = &report.metrics.solver {
        events.push(solver_event(s));
    }
    for p in &report.metrics.phases {
        events.push(phase_event(p));
    }
    for d in report.ledger.decisions() {
        events.push(decision_event(d));
    }
    events.push(summary_event(
        report.metrics.total(),
        vec![("decisions", report.ledger.len().into())],
    ));
    format!(
        "== report ==\n{report}\n== ir ==\n{}\n== ledger ==\n{}\n== metrics ==\n{}",
        atomig_mir::printer::print_module(&m),
        report.ledger.render_tree("seqlock_alias"),
        to_jsonl(&events),
    )
}

fn lint_artifacts(alias: AliasMode) -> String {
    let m = atomig_frontc::compile(SEQLOCK, "seqlock_alias").expect("example compiles");
    let report = lint_module(&m, &manual_config(alias));
    let mut events = vec![meta_event("lint", "seqlock_alias", Some(alias.name()))];
    if let Some(s) = &report.metrics.solver {
        events.push(solver_event(s));
    }
    for p in &report.metrics.phases {
        events.push(phase_event(p));
    }
    for l in &report.lints {
        events.push(finding_event(l));
    }
    format!(
        "== report ==\n{report}\n== metrics ==\n{}",
        to_jsonl(&events)
    )
}

#[test]
fn port_artifacts_are_byte_identical_across_jobs_and_runs() {
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let want = port_artifacts(alias);
        for run in 0..4 {
            let got = port_artifacts(alias);
            assert_eq!(got, want, "port output diverged ({alias:?}, run={run})");
        }
    }
}

#[test]
fn lint_artifacts_are_byte_identical_across_jobs_and_runs() {
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let want = lint_artifacts(alias);
        for run in 0..4 {
            let got = lint_artifacts(alias);
            assert_eq!(got, want, "lint output diverged ({alias:?}, run={run})");
        }
    }
}

#[test]
fn check_verdicts_and_counts_are_jobs_invariant() {
    // Violating (original) and passing (ported) runs of the same litmus
    // program: verdict string carries states/executions/revisits/peak.
    for ported in [false, true] {
        let mut m = atomig_frontc::compile(MP, "mp").expect("litmus compiles");
        if ported {
            Pipeline::new(manual_config(AliasMode::TypeBased)).port_module(&mut m);
        }
        let verdict = || {
            atomig_wmm::Checker::new(atomig_wmm::ModelKind::Arm)
                .check(&m, "main")
                .to_string()
        };
        let want = verdict();
        for run in 0..4 {
            assert_eq!(
                verdict(),
                want,
                "verdict diverged (ported={ported}, run={run})"
            );
        }
        if ported {
            assert!(want.starts_with("PASS"), "{want}");
        } else {
            assert!(want.contains("VIOLATION"), "{want}");
        }
    }
}

/// The CLI acceptance path: `atomig port`, `lint` and `check` with
/// `--emit-metrics` under `ATOMIG_DETERMINISTIC=1` are byte-identical
/// across repeated runs, including the metrics file on disk.
#[test]
fn cli_port_and_check_are_byte_identical_across_jobs() {
    std::env::set_var("ATOMIG_DETERMINISTIC", "1");
    let run = |argv: &str, source: &str, name: &str| -> String {
        let path = std::env::temp_dir().join(format!(
            "atomig-determinism-{}-{name}.jsonl",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().into_owned();
        let args: Vec<String> = argv
            .split_whitespace()
            .map(String::from)
            .chain(["--emit-metrics".to_string(), path_str.clone()])
            .collect();
        let cmd = atomig_cli::parse_args(&args).expect("parses");
        let out = atomig_cli::execute(&cmd, source, name);
        let text = out.unwrap_or_else(|e| e);
        let metrics = std::fs::read_to_string(&path).expect("metrics written");
        std::fs::remove_file(&path).ok();
        // The printed note names the temp path; strip it so runs with
        // different paths stay comparable.
        let text = text.replace(&path_str, "<metrics>");
        format!("== stdout ==\n{text}\n== metrics ==\n{metrics}")
    };
    for (argv, source, name) in [
        (
            "port seqlock_alias.c --report --trace",
            SEQLOCK,
            "seqlock_alias",
        ),
        ("lint seqlock_alias.c", SEQLOCK, "seqlock_alias"),
        ("check mp.c --model arm --ported", MP, "mp"),
        ("check mp.c --model arm", MP, "mp"),
    ] {
        let want = run(argv, source, name);
        for rerun in 0..4 {
            assert_eq!(
                run(argv, source, name),
                want,
                "`{argv}` diverged at run={rerun}"
            );
        }
    }
}

/// The batch leg of the same contract: `atomig batch` over two modules
/// prints the same combined report under `ATOMIG_DETERMINISTIC=1`, run
/// after run.
#[test]
fn cli_batch_is_byte_identical_across_jobs_and_cache_temperature() {
    use atomig_cli::{execute_batch, BatchInput, Command};
    std::env::set_var("ATOMIG_DETERMINISTIC", "1");
    let inputs = vec![
        BatchInput {
            name: "mp".into(),
            source: MP.into(),
        },
        BatchInput {
            name: "seqlock_alias".into(),
            source: SEQLOCK.into(),
        },
    ];
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let cmd = Command::Batch {
            path: "mem".into(),
            stage: atomig_core::Stage::Full,
            alias,
            emit_metrics: None,
        };
        let want = execute_batch(&cmd, &inputs).unwrap();
        for rerun in 0..4 {
            let got = execute_batch(&cmd, &inputs).unwrap();
            assert_eq!(got, want, "{alias:?}: batch diverged at run={rerun}");
        }
    }
    // Deliberately left set: the CLI determinism test above also relies
    // on it, and tests in this binary run concurrently.
}
