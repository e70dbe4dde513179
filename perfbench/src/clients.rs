//! The `check-clients` workload: model-checking verdicts on ported
//! Concurrency Kit and lf-hash clients.
//!
//! Compiling and porting the clients is set-up; a round is one checker
//! call per case, so it is almost all exploration work.

use crate::corpus::{compile, port};
use crate::trace::Tracer;
use crate::Ops;
use atomig_core::{AtomigConfig, Pipeline, Stage};
use atomig_mir::Module;
use atomig_wmm::{Checker, CheckerConfig, ModelKind, Verdict};
use atomig_workloads::{ck, lf_hash, STAGES};

/// How large the wide clients are.
#[derive(Debug, Clone, Copy)]
pub struct ClientSizes {
    /// `ck::spinlock_cas_perf(threads, iters)`.
    pub cas: (u32, u32),
    /// `ck::spinlock_mcs_perf(threads, iters)`.
    pub mcs: (u32, u32),
    /// `ck::sequence_perf(iters)`.
    pub sequence: u32,
}

/// One verdict to compute.
#[derive(Debug, Clone)]
pub(crate) struct Case {
    /// `client/stage/model`, for failure messages.
    pub label: String,
    /// The ported client.
    pub module: Module,
    /// Model to check under.
    pub model: ModelKind,
    /// Reference verdict: `true` = no violation.
    pub expect_pass: bool,
}

/// Table 2's clients with the paper's verdict column (Original, Expl.,
/// Spin, AtoMig) under Arm.
fn table2() -> Vec<(&'static str, String, [bool; 4])> {
    const X: bool = false;
    const Y: bool = true;
    vec![
        ("ck_ring", ck::ring_mc(), [X, Y, Y, Y]),
        ("ck_spinlock_cas", ck::spinlock_cas_mc(), [X, Y, Y, Y]),
        ("ck_spinlock_mcs", ck::spinlock_mcs_mc(), [X, X, Y, Y]),
        ("ck_sequence", ck::sequence_mc(), [X, X, X, Y]),
        ("lf-hash", lf_hash::lf_hash_mc(), [X, X, X, Y]),
    ]
}

fn stage_config(stage: Stage, jobs: usize) -> AtomigConfig {
    let base = match stage {
        Stage::Original => AtomigConfig::original(),
        Stage::Explicit => AtomigConfig::explicit_only(),
        Stage::Spin => AtomigConfig::spin(),
        Stage::Full => AtomigConfig::full(),
    };
    AtomigConfig {
        jobs,
        cache: None,
        ..base
    }
}

/// Set-up: compiles and ports every case, in a fixed order. The wide
/// clients come first (ported at the full stage, reference PASS under
/// Arm), then the Table 2 grid under Arm, then each Table 2 client at
/// Original under TSO (reference PASS: these are portability bugs, not
/// bugs on x86).
///
/// # Errors
///
/// The first compile error.
pub(crate) fn prepare(
    sizes: ClientSizes,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Case>, String> {
    let wide = [
        (
            "spinlock_cas_perf",
            ck::spinlock_cas_perf(sizes.cas.0, sizes.cas.1),
        ),
        (
            "spinlock_mcs_perf",
            ck::spinlock_mcs_perf(sizes.mcs.0, sizes.mcs.1),
        ),
        ("sequence_perf", ck::sequence_perf(sizes.sequence)),
    ];
    let mut sources: Vec<(&str, String, Stage, ModelKind, bool)> = wide
        .into_iter()
        .map(|(name, src)| (name, src, Stage::Full, ModelKind::Arm, true))
        .collect();
    let grid = table2();
    for (name, src, column) in &grid {
        for (&stage, &pass) in STAGES.iter().zip(column) {
            sources.push((name, src.clone(), stage, ModelKind::Arm, pass));
        }
    }
    for (name, src, _) in grid {
        sources.push((name, src, Stage::Original, ModelKind::Tso, true));
    }
    sources
        .into_iter()
        .enumerate()
        .map(|(id, (name, src, stage, model, expect_pass))| {
            let id = id as u32;
            let mut module = compile(&src, name, id, tracer)?;
            port(
                &Pipeline::new(stage_config(stage, jobs)),
                &mut module,
                id,
                tracer,
            );
            Ok(Case {
                label: format!("{name}/{stage:?}/{model}"),
                module,
                model,
                expect_pass,
            })
        })
        .collect()
}

/// Runs `Checker::check` on one case in a `wmm.check` span and records
/// its exploration counters.
pub(crate) fn check(case: &Case, jobs: usize, id: u32, tracer: &mut Tracer) -> Verdict {
    let checker = Checker {
        config: CheckerConfig {
            jobs,
            ..CheckerConfig::for_model(case.model)
        },
    };
    let verdict = tracer.span("wmm.check", id, |_| checker.check(&case.module, "main"));
    tracer.count("wmm.states", id, verdict.states as u64);
    tracer.count("wmm.executions", id, verdict.executions);
    tracer.count("wmm.revisits", id, verdict.revisits);
    tracer.count("wmm.peak_tracked", id, verdict.peak_tracked as u64);
    verdict
}

/// One `check-clients` round. Each verdict is an op; it fails on a
/// truncated exploration or a verdict other than the reference.
pub(crate) fn check_round(cases: &[Case], jobs: usize, tracer: &mut Tracer, ops: &mut Ops) {
    for (id, case) in cases.iter().enumerate() {
        ops.run(&case.label, || {
            let verdict = check(case, jobs, id as u32, tracer);
            if verdict.truncated {
                return Err(format!("exploration truncated: {verdict}"));
            }
            let passed = verdict.violation.is_none();
            if passed != case.expect_pass {
                let want = if case.expect_pass {
                    "PASS"
                } else {
                    "VIOLATION"
                };
                return Err(format!("expected {want}, got {verdict}"));
            }
            Ok(())
        });
    }
}
