//! The two corpus workloads: the five Table 3 application profiles,
//! generated from the workload seed, then ported (`port-corpus`) or
//! audited (`lint-corpus`) one module at a time.

use crate::trace::Tracer;
use crate::{digest, Ops};
use atomig_core::{lint_module, AtomigConfig, LintReport, LintRule, Pipeline, PortReport};
use atomig_mir::Module;
use atomig_workloads::profiles::{self, AppProfile};
use atomig_workloads::synth::{self, GenConfig, GeneratedApp};

/// One generated application: its source and the generator's ground
/// truth.
#[derive(Debug, Clone)]
pub struct CorpusModule {
    /// Profile name (`MariaDB`, …), also the module name.
    pub name: &'static str,
    /// The generated codebase.
    pub app: GeneratedApp,
}

/// Generation config for `profile` at `1:scale`, seeded from the
/// workload seed so that every profile gets its own stream.
pub fn gen_config(profile: &AppProfile, scale: u32, seed: u64) -> GenConfig {
    GenConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ profile.sloc,
        ..GenConfig::from_profile(profile, scale)
    }
}

/// Set-up: generates the five profiles in paper order.
pub fn generate(scale: u32, seed: u64, tracer: &mut Tracer) -> Vec<CorpusModule> {
    profiles::all()
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let app = tracer.span("workloads.generate", id as u32, |t| {
                let app = synth::generate(gen_config(p, scale, seed));
                t.count("workloads.sloc", id as u32, app.sloc as u64);
                app
            });
            CorpusModule { name: p.name, app }
        })
        .collect()
}

/// `frontc::lex → parse → lower → mir::verify_module`, one span per call.
///
/// # Errors
///
/// The first stage's error message.
pub fn compile(source: &str, name: &str, id: u32, tracer: &mut Tracer) -> Result<Module, String> {
    let tokens = tracer.span("frontc.lex", id, |_| atomig_frontc::lex(source));
    let tokens = tokens.map_err(|e| format!("lex: {e}"))?;
    tracer.count("frontc.tokens", id, tokens.len() as u64);
    let program = tracer.span("frontc.parse", id, |_| atomig_frontc::parse(&tokens));
    let program = program.map_err(|e| format!("parse: {e}"))?;
    drop(tokens);
    let module = tracer.span("frontc.lower", id, |_| atomig_frontc::lower(&program, name));
    let module = module.map_err(|e| format!("lower: {e}"))?;
    drop(program);
    tracer
        .span("mir.verify", id, |_| atomig_mir::verify_module(&module))
        .map_err(|e| format!("verify: {e}"))?;
    tracer.count("mir.insts", id, module.inst_count() as u64);
    Ok(module)
}

/// Calls `Pipeline::port_module` in a `core.port` span and records the
/// phases the pipeline reports, plus the time none of them covers.
pub fn port(pipeline: &Pipeline, module: &mut Module, id: u32, tracer: &mut Tracer) -> PortReport {
    let report = tracer.span("core.port", id, |t| {
        let report = pipeline.port_module(module);
        let mut attributed = std::time::Duration::ZERO;
        for (phase, name) in [
            ("inline", "core.inline"),
            ("detect", "core.detect"),
            ("alias-build", "core.alias_build"),
            ("transform", "core.transform"),
        ] {
            if let Some(p) = report.metrics.phase(phase) {
                t.phase(name, id, p.duration);
                attributed += p.duration;
            }
        }
        t.phase(
            "core.port_unattributed",
            id,
            report.porting_time.saturating_sub(attributed),
        );
        report
    });
    tracer.count("core.spinloops", id, report.spinloops as u64);
    tracer.count("core.optiloops", id, report.optiloops as u64);
    tracer.count("core.barriers_implicit", id, report.after.implicit as u64);
    tracer.count("core.barriers_explicit", id, report.after.explicit as u64);
    report
}

/// The `port-corpus` configuration: full stage, type-based alias, no
/// artifact cache, and no inlining, as in the Table 3 harness: inlining
/// copies a callee's loops into its callers, and the generator's ground
/// truth counts statically distinct patterns.
pub fn port_config(jobs: usize) -> AtomigConfig {
    AtomigConfig {
        jobs,
        inline: false,
        cache: None,
        ..AtomigConfig::full()
    }
}

/// One `port-corpus` round. Each module is an op; it fails on a compile
/// error, on a pattern count other than the generator's ground truth, or
/// on printed MIR whose digest differs from `digests[id]` (filled on the
/// first round).
pub fn port_round(
    corpus: &[CorpusModule],
    jobs: usize,
    digests: &mut Vec<Option<u64>>,
    tracer: &mut Tracer,
    ops: &mut Ops,
) {
    let pipeline = Pipeline::new(port_config(jobs));
    digests.resize(corpus.len(), None);
    for (id, cm) in corpus.iter().enumerate() {
        let id = id as u32;
        let outcome = ops.run(cm.name, || {
            tracer.span("bench.module", id, |t| {
                let mut module = compile(&cm.app.source, cm.name, id, t)?;
                let report = port(&pipeline, &mut module, id, t);
                let text = t.span("mir.print", id, |_| {
                    atomig_mir::printer::print_module(&module)
                });
                t.count("mir.print_bytes", id, text.len() as u64);
                check_census(&cm.app.config, report.spinloops, report.optiloops)?;
                Ok(digest(text.as_bytes()))
            })
        });
        if let Some(d) = outcome {
            ops.expect_same(cm.name, "printed MIR", &mut digests[id as usize], d);
        }
    }
}

/// Checks a detected pattern census against the generator's ground truth.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_census(config: &GenConfig, spinloops: usize, optiloops: usize) -> Result<(), String> {
    let want = (
        config.expected_spinloops() as usize,
        config.expected_optiloops() as usize,
    );
    if (spinloops, optiloops) == want {
        Ok(())
    } else {
        Err(format!(
            "detected {spinloops} spinloops / {optiloops} optiloops, generator placed {} / {}",
            want.0, want.1
        ))
    }
}

/// Calls `core::lint_module` in a `core.lint` span and records the phases
/// and solver statistics the lint reports.
pub fn lint(module: &Module, config: &AtomigConfig, id: u32, tracer: &mut Tracer) -> LintReport {
    let report = tracer.span("core.lint", id, |t| {
        let report = lint_module(module, config);
        for (phase, name) in [
            ("points-to-solve", "analysis.pointsto_solve"),
            ("dry-run", "core.lint_dry_run"),
            ("lint-race-candidate", "core.lint_race_candidate"),
        ] {
            if let Some(p) = report.metrics.phase(phase) {
                t.phase(name, id, p.duration);
            }
        }
        report
    });
    if let Some(s) = &report.metrics.solver {
        tracer.count("analysis.pointsto_iterations", id, s.iterations as u64);
        tracer.count("analysis.pointsto_constraints", id, s.constraints as u64);
        tracer.count("analysis.pointsto_cells", id, s.cells as u64);
    }
    tracer.count("core.lint_findings", id, report.lints.len() as u64);
    report
}

/// The `lint-corpus` configuration: the complete audit (full-stage dry
/// run, points-to alias), no artifact cache.
pub fn lint_config(jobs: usize) -> AtomigConfig {
    AtomigConfig {
        jobs,
        cache: None,
        ..AtomigConfig::full()
    }
}

/// Renders every finding, in report order, for the digest.
pub fn render_lints(report: &LintReport) -> String {
    let mut out = String::new();
    for l in &report.lints {
        out.push_str(&format!(
            "{} {} {} %{} {} !{} {} {:?} {:?}\n",
            l.rule.name(),
            l.severity,
            l.func,
            l.inst.0,
            l.loc,
            l.span,
            l.message,
            l.notes,
            l.suggestion
        ));
    }
    out
}

/// Checks the optimistic-loop findings of an unported module against the
/// generator's ground truth. Every generated seqlock reader loads its
/// sequence counter twice per iteration and every writer stores it twice,
/// so the audit must ask for exactly two reader fences and two writer
/// fences per seqlock.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_lint_census(config: &GenConfig, report: &LintReport) -> Result<(), String> {
    let with = |needle: &str| {
        report
            .lints
            .iter()
            .filter(|l| l.rule == LintRule::FencePlacement && l.message.contains(needle))
            .count()
    };
    let want = 2 * config.expected_optiloops() as usize;
    let got = (
        with("before this optimistic-control load"),
        with("after this store to an optimistic location"),
    );
    if got == (want, want) {
        Ok(())
    } else {
        Err(format!(
            "audit asks for {} reader / {} writer fences, generator placed {want} / {want}",
            got.0, got.1
        ))
    }
}

/// One `lint-corpus` round. Each module is an op; it fails on a compile
/// error, on optimistic-loop findings that do not match the generator's
/// ground truth, or on findings whose digest differs from `digests[id]`.
pub fn lint_round(
    corpus: &[CorpusModule],
    jobs: usize,
    digests: &mut Vec<Option<u64>>,
    tracer: &mut Tracer,
    ops: &mut Ops,
) {
    let config = lint_config(jobs);
    digests.resize(corpus.len(), None);
    for (id, cm) in corpus.iter().enumerate() {
        let id = id as u32;
        let outcome = ops.run(cm.name, || {
            tracer.span("bench.module", id, |t| {
                let module = compile(&cm.app.source, cm.name, id, t)?;
                let report = lint(&module, &config, id, t);
                check_lint_census(&cm.app.config, &report)?;
                Ok(digest(render_lints(&report).as_bytes()))
            })
        });
        if let Some(d) = outcome {
            ops.expect_same(cm.name, "lint findings", &mut digests[id as usize], d);
        }
    }
}
