//! Implementation of the `atomig` command-line tool.
//!
//! Mirrors the paper's workflow (Figure 2) as a CLI:
//!
//! ```console
//! $ atomig port prog.c              # port and print the transformed IR
//! $ atomig port prog.c --report     # print the porting report instead
//! $ atomig port prog.c --stage spin # stop after spinloop detection
//! $ atomig check prog.c --model arm # exhaustively model-check @main
//! $ atomig run prog.c               # run deterministically, print cost
//! $ atomig lint prog.c              # static WMM-robustness audit
//! $ atomig explain prog.c:41        # why was line 41 rewritten?
//! $ atomig metrics run.jsonl        # validate an --emit-metrics stream
//! ```

#![forbid(unsafe_code)]

use atomig_core::json::Value;
use atomig_core::trace::{
    self, checker_event, decision_event, finding_event, meta_event, phase_event, solver_event,
    summary_event, to_jsonl,
};
use atomig_core::{
    lint_module, AliasMode, AtomigConfig, CheckerMetrics, LintRule, PhaseStat, Pipeline,
    PipelineMetrics, Stage,
};
use atomig_wmm::{Checker, CostModel, Limit, ModelKind};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `atomig port <file> [--stage s] [--alias a] [--report]
    /// [--naive|--lasagne] [--trace] [--emit-metrics out]`
    Port {
        /// Input path.
        file: String,
        /// Detection stage.
        stage: Stage,
        /// Alias backend for sticky-buddy expansion.
        alias: AliasMode,
        /// Print the report instead of the transformed IR.
        report_only: bool,
        /// Apply the Naïve baseline instead of AtoMig.
        naive: bool,
        /// Apply the Lasagne-style baseline instead of AtoMig.
        lasagne: bool,
        /// Append the human-readable decision trace tree.
        trace: bool,
        /// Write the JSONL metrics stream to this path.
        emit_metrics: Option<String>,
    },
    /// `atomig check <file> [--model m] [--ported] [--emit-metrics out]`
    Check {
        /// Input path.
        file: String,
        /// Memory model to explore.
        model: ModelKind,
        /// Port with full AtoMig before checking.
        ported: bool,
        /// Write the JSONL metrics stream to this path.
        emit_metrics: Option<String>,
    },
    /// `atomig run <file> [--ported]`
    Run {
        /// Input path.
        file: String,
        /// Port with full AtoMig before running.
        ported: bool,
    },
    /// `atomig lint <file> [--ported] [--alias a] [--deny rule]*
    /// [--emit-metrics out]`
    Lint {
        /// Input path.
        file: String,
        /// Port with full AtoMig before auditing (should then be clean).
        ported: bool,
        /// Alias backend mirrored by the fence-placement dry run.
        alias: AliasMode,
        /// Rules whose findings make the exit status non-zero.
        deny: Vec<LintRule>,
        /// Write the JSONL metrics stream to this path.
        emit_metrics: Option<String>,
    },
    /// `atomig batch <manifest|dir> [--stage s] [--alias a]
    /// [--emit-metrics out]`
    Batch {
        /// A directory scanned recursively for `.c` files, a single `.c`
        /// file, or a manifest listing one path per line (`#` comments).
        path: String,
        /// Detection stage applied to every module.
        stage: Stage,
        /// Alias backend applied to every module.
        alias: AliasMode,
        /// Write the combined JSONL metrics stream to this path.
        emit_metrics: Option<String>,
    },
    /// `atomig explain <file[:line]> [--alias a]`
    Explain {
        /// Input path.
        file: String,
        /// Source line to explain; `None` prints the whole decision tree.
        line: Option<u32>,
        /// Alias backend for sticky-buddy expansion.
        alias: AliasMode,
    },
    /// `atomig metrics <file.jsonl>`
    Metrics {
        /// Path of a stream produced by `--emit-metrics`.
        file: String,
    },
    /// `atomig help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
atomig — port legacy x86 (TSO) programs to weak memory models

USAGE:
    atomig port  <file.c> [--stage original|expl|spin|full] [--report]
                          [--alias type-based|points-to]
                          [--naive | --lasagne] [--trace]
                          [--emit-metrics <out.jsonl>]
    atomig check <file.c> [--model sc|tso|wmm|arm] [--ported]
                          [--emit-metrics <out.jsonl>]
    atomig run   <file.c> [--ported]
    atomig lint  <file.c> [--ported] [--alias type-based|points-to]
                          [--deny race-candidate|fence-placement]
                          [--emit-metrics <out.jsonl>]
    atomig batch <dir|manifest|file.c>
                          [--stage original|expl|spin|full]
                          [--alias type-based|points-to]
                          [--emit-metrics <out.jsonl>]
    atomig explain <file.c[:LINE]> [--alias type-based|points-to]
    atomig metrics <run.jsonl>

`port` prints the transformed IR (or, with --report, the Table-3 style
porting statistics). `check` exhaustively model-checks @main and reports
the first assertion violation; a violation, or a search that a limit
(max_states, max_depth) cut short, makes the exit status non-zero. `run`
executes @main deterministically and prints the Armv8 cost-model
summary. `lint` statically audits the module for WMM-portability hazards
and prints sourced diagnostics; findings for a --deny'd rule make the
exit status non-zero (for CI). `--alias` picks
the buddy-expansion backend: the paper's type-based keys (default) or the
Andersen-style points-to analysis.

Observability: `--trace` appends the decision-provenance tree to `port`
output; `--emit-metrics` writes a JSONL stream of phase timings, solver
and checker counters, decisions, and findings (see DESIGN.md for the
schema). `explain` replays the decision ledger for one source line —
every rewrite is traced back through sticky-buddy alias classes to the
annotation or loop pattern that seeded it, with pre-port race-candidate
context. `metrics` validates a JSONL stream and prints its tally.

Determinism: every subcommand runs on one thread. Set
ATOMIG_DETERMINISTIC=1 to replace the phase-timing clock with a
fixed-step counter so the output is byte-identical across runs (for
diffing in CI).

Batches: `batch` ports every `.c` file under a directory (or listed in
a manifest, one path per line, `#` comments) and prints one combined
report, one row per module, named by its path relative to the directory
or as the manifest lists it, without `.c`.";

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a message suitable for printing on unknown flags or commands.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "port" => {
            let f = Flags::parse(
                rest,
                "--report --naive --lasagne --trace --stage --alias --emit-metrics",
            )?;
            let (naive, lasagne) = (f.has("--naive"), f.has("--lasagne"));
            if naive && lasagne {
                return Err("--naive and --lasagne are mutually exclusive".into());
            }
            // The baselines port without the AtoMig pipeline, so its knobs
            // would be silently ignored.
            if naive || lasagne {
                let baseline = if naive { "--naive" } else { "--lasagne" };
                if let Some(knob) = ["--stage", "--alias"].iter().find(|k| f.has(k)) {
                    return Err(format!(
                        "{knob} has no effect with {baseline} (the baseline runs no AtoMig pipeline)"
                    ));
                }
            }
            Ok(Command::Port {
                report_only: f.has("--report"),
                trace: f.has("--trace"),
                file: f.input.ok_or("port: missing input file")?,
                stage: f.stage,
                alias: f.alias,
                naive,
                lasagne,
                emit_metrics: f.emit_metrics,
            })
        }
        "check" => {
            let f = Flags::parse(rest, "--ported --model --emit-metrics")?;
            Ok(Command::Check {
                ported: f.ported,
                file: f.input.ok_or("check: missing input file")?,
                model: f.model,
                emit_metrics: f.emit_metrics,
            })
        }
        "run" => {
            let f = Flags::parse(rest, "--ported")?;
            Ok(Command::Run {
                ported: f.ported,
                file: f.input.ok_or("run: missing input file")?,
            })
        }
        "lint" => {
            let f = Flags::parse(rest, "--ported --alias --deny --emit-metrics")?;
            Ok(Command::Lint {
                ported: f.ported,
                file: f.input.ok_or("lint: missing input file")?,
                alias: f.alias,
                deny: f.deny,
                emit_metrics: f.emit_metrics,
            })
        }
        "batch" => {
            let f = Flags::parse(rest, "--stage --alias --emit-metrics")?;
            Ok(Command::Batch {
                path: f
                    .input
                    .ok_or("batch: missing input directory, manifest, or file")?,
                stage: f.stage,
                alias: f.alias,
                emit_metrics: f.emit_metrics,
            })
        }
        "explain" => {
            let f = Flags::parse(rest, "--alias")?;
            let target = f
                .input
                .ok_or("explain: missing input location (file.c[:LINE])")?;
            let (file, line) = match target.rsplit_once(':') {
                Some(("", _)) => {
                    return Err(format!(
                        "explain: `{target}` has no file before the `:` \
                         (expected file.c[:LINE])"
                    ));
                }
                Some((_, "")) => {
                    return Err(format!(
                        "explain: `{target}` has a trailing `:` but no line number \
                         (expected file.c[:LINE])"
                    ));
                }
                Some((f, l)) => {
                    let n = l
                        .parse::<u32>()
                        .map_err(|_| format!("explain: `{l}` is not a line number"))?;
                    if n == 0 {
                        return Err("explain: line numbers are 1-based; 0 never matches".into());
                    }
                    (f.to_string(), Some(n))
                }
                None => (target, None),
            };
            Ok(Command::Explain {
                file,
                line,
                alias: f.alias,
            })
        }
        "metrics" => {
            let f = Flags::parse(rest, "")?;
            Ok(Command::Metrics {
                file: f.input.ok_or("metrics: missing input file")?,
            })
        }
        other => Err(format!("unknown command `{other}` (try `atomig help`)")),
    }
}

/// The flags of one subcommand's command line, parsed by [`Flags::parse`]
/// in one pass. Absent flags keep their defaults.
struct Flags {
    /// The one positional argument.
    input: Option<String>,
    /// Every accepted flag seen, in order.
    seen: Vec<&'static str>,
    stage: Stage,
    alias: AliasMode,
    emit_metrics: Option<String>,
    ported: bool,
    model: ModelKind,
    deny: Vec<LintRule>,
}

impl Flags {
    /// Parses `args` against the subcommand's `accepted` flags (separated
    /// by spaces): a flag outside that set, or a second positional
    /// argument, is an unknown argument. Errors surface in argument order.
    fn parse(args: &[String], accepted: &'static str) -> Result<Flags, String> {
        let mut f = Flags {
            input: None,
            seen: Vec::new(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            emit_metrics: None,
            ported: false,
            model: ModelKind::Arm,
            deny: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = accepted.split_whitespace().find(|&k| k == a) else {
                if a.starts_with('-') || f.input.is_some() {
                    return Err(format!("unknown argument `{a}`"));
                }
                f.input = Some(a.clone());
                continue;
            };
            f.seen.push(flag);
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag {
                "--stage" => f.stage = parse_stage(value("a value")?)?,
                "--alias" => f.alias = parse_alias(value("a value")?)?,
                "--model" => f.model = parse_model(value("a value")?)?,
                "--emit-metrics" => f.emit_metrics = Some(value("a path")?.clone()),
                "--ported" => f.ported = true,
                "--deny" => {
                    let v = value("a value")?;
                    let rule = LintRule::from_name(v).ok_or_else(|| {
                        let names: Vec<&str> = LintRule::ALL.iter().map(LintRule::name).collect();
                        format!("unknown lint rule `{v}` (accepted: {})", names.join(", "))
                    })?;
                    if !f.deny.contains(&rule) {
                        f.deny.push(rule);
                    }
                }
                _ => {} // a switch: `seen` is its value
            }
        }
        Ok(f)
    }

    /// Whether `flag` appeared.
    fn has(&self, flag: &str) -> bool {
        self.seen.contains(&flag)
    }
}

/// `--stage` values; the first name of a stage is the one reports print.
const STAGES: [(&str, Stage); 6] = [
    ("original", Stage::Original),
    ("expl", Stage::Explicit),
    ("explicit", Stage::Explicit),
    ("spin", Stage::Spin),
    ("full", Stage::Full),
    ("atomig", Stage::Full),
];

fn parse_stage(s: &str) -> Result<Stage, String> {
    let known = STAGES.iter().find(|(name, _)| *name == s);
    known
        .map(|&(_, stage)| stage)
        .ok_or_else(|| format!("unknown stage `{s}` (accepted: original, expl, spin, full)"))
}

fn parse_alias(s: &str) -> Result<AliasMode, String> {
    AliasMode::from_name(s)
        .ok_or_else(|| format!("unknown alias mode `{s}` (accepted: type-based, points-to)"))
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    Ok(match s {
        "sc" => ModelKind::Sc,
        "tso" => ModelKind::Tso,
        "wmm" => ModelKind::Wmm,
        "arm" => ModelKind::Arm,
        other => {
            return Err(format!(
                "unknown model `{other}` (accepted: sc, tso, wmm, arm)"
            ))
        }
    })
}

/// The pipeline configuration of one run: the stage's preset with the
/// given alias backend, on the deterministic clock when
/// `ATOMIG_DETERMINISTIC` asks for it.
fn pipeline_config(stage: Stage, alias: AliasMode) -> AtomigConfig {
    let mut cfg = AtomigConfig::for_stage(stage);
    cfg.alias_mode = alias;
    if let Some(c) = deterministic_clock() {
        cfg.clock = c;
    }
    cfg
}

/// With `ATOMIG_DETERMINISTIC` set (to anything but `""`/`0`), a
/// fixed-step counter clock: every read advances one millisecond. Phase
/// timings then depend only on the number of clock reads, making metrics
/// streams byte-comparable across runs (and job counts) in CI.
fn deterministic_clock() -> Option<trace::Clock> {
    match std::env::var("ATOMIG_DETERMINISTIC") {
        Ok(v) if !v.is_empty() && v != "0" => {
            let ticks = std::sync::atomic::AtomicU64::new(0);
            Some(trace::Clock::from_fn(move || {
                let t = ticks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::time::Duration::from_millis(t)
            }))
        }
        _ => None,
    }
}

/// The meta, solver, phase and checker events of one run, in
/// stream order; the caller appends its own events and the summary.
fn metrics_events(
    command: &str,
    module: &str,
    backend: Option<AliasMode>,
    metrics: &PipelineMetrics,
) -> Vec<Value> {
    let mut events = vec![meta_event(command, module, backend.map(|b| b.name()))];
    events.extend(metrics.solver.as_ref().map(solver_event));
    events.extend(metrics.phases.iter().map(phase_event));
    events.extend(metrics.checker.as_ref().map(checker_event));
    events
}

fn write_metrics(path: &str, events: &[Value]) -> Result<String, String> {
    std::fs::write(path, to_jsonl(events))
        .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
    Ok(format!(
        "metrics: wrote {} event(s) to {path}",
        events.len()
    ))
}

/// The module name of a source path: final component without `.c`.
pub fn module_name(file: &str) -> &str {
    file.rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".c")
}

/// Reads one source file for the single-file subcommands.
///
/// # Errors
///
/// A directory gets a named error pointing at `atomig batch` instead of
/// the raw `Is a directory` I/O failure; other failures keep the OS text.
pub fn read_source(file: &str) -> Result<String, String> {
    let p = std::path::Path::new(file);
    if p.is_dir() {
        return Err(format!(
            "`{file}` is a directory, not a source file \
             (use `atomig batch {file}` to process every .c file under it)"
        ));
    }
    std::fs::read_to_string(p).map_err(|e| format!("cannot read `{file}`: {e}"))
}

/// One module of a batch run: its name and loaded source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInput {
    /// Module name: the path relative to the batch directory, or as the
    /// manifest lists it, without `.c` (a single file's stem), so two
    /// files with the same stem stay apart.
    pub name: String,
    /// Source text.
    pub source: String,
}

fn collect_c_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory `{}`: {e}", dir.display()))?;
    for entry in entries {
        let p = entry
            .map_err(|e| format!("cannot read directory `{}`: {e}", dir.display()))?
            .path();
        if p.is_dir() {
            collect_c_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "c") {
            out.push(p);
        }
    }
    Ok(())
}

/// Resolves a `batch` argument into loaded inputs: a directory is
/// scanned recursively for `.c` files (sorted by path, so the combined
/// report order is stable), a `.c` path is a single input, and anything
/// else is read as a manifest listing one path per line (relative to the
/// manifest's directory; blank lines and `#` comments are skipped). See
/// [`BatchInput::name`] for how modules are named.
///
/// # Errors
///
/// Names the unreadable path; an empty result is reported by
/// [`execute_batch`], not here.
pub fn discover_batch_inputs(path: &str) -> Result<Vec<BatchInput>, String> {
    let p = std::path::Path::new(path);
    // Each file with its module name, `.c` still attached.
    let mut files: Vec<(std::path::PathBuf, String)> = Vec::new();
    if p.is_dir() {
        let mut found = Vec::new();
        collect_c_files(p, &mut found)?;
        found.sort();
        for f in found {
            let rel = f
                .strip_prefix(p)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            files.push((f, rel));
        }
    } else if path.ends_with(".c") {
        files.push((p.to_path_buf(), module_name(path).to_string()));
    } else {
        let text = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read manifest `{path}`: {e}"))?;
        let base = p.parent().unwrap_or_else(|| std::path::Path::new("."));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            files.push((base.join(line), line.to_string()));
        }
    }
    let mut inputs = Vec::with_capacity(files.len());
    for (f, name) in files {
        let source = std::fs::read_to_string(&f)
            .map_err(|e| format!("cannot read `{}`: {e}", f.display()))?;
        inputs.push(BatchInput {
            name: name.trim_end_matches(".c").to_string(),
            source,
        });
    }
    Ok(inputs)
}

/// Executes `atomig batch` over already-loaded inputs, returning the
/// combined report (discovery is separate for testability).
///
/// Modules are ported in input order, each with a fresh pipeline.
///
/// # Errors
///
/// Aggregates per-module compile/verify failures into one message;
/// an empty input set and metrics I/O failures are also errors.
pub fn execute_batch(cmd: &Command, inputs: &[BatchInput]) -> Result<String, String> {
    let Command::Batch {
        path,
        stage,
        alias,
        emit_metrics,
    } = cmd
    else {
        return Err("execute_batch: not a batch command".into());
    };
    if inputs.is_empty() {
        return Err(format!("batch: no .c files found under `{path}`"));
    }
    let port = |inp: &BatchInput| {
        let mut m = atomig_frontc::compile(&inp.source, &inp.name)?;
        let report = Pipeline::new(pipeline_config(*stage, *alias)).port_module(&mut m);
        atomig_mir::verify_module(&m).map_err(|e| e.to_string())?;
        Ok::<_, String>(report)
    };

    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for inp in inputs {
        match port(inp) {
            Ok(r) => reports.push((inp.name.as_str(), r)),
            Err(e) => failures.push(format!("  {}: {e}", inp.name)),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "batch: {} of {} module(s) failed\n{}",
            failures.len(),
            inputs.len(),
            failures.join("\n")
        ));
    }

    let mut out = format!(
        "batch report: {} module(s) from `{path}` (stage {}, {} alias)\n",
        reports.len(),
        STAGES
            .iter()
            .find(|(_, s)| s == stage)
            .map_or("", |(name, _)| name),
        alias.name(),
    );
    let (mut spins, mut opts, mut sc, mut fences) = (0usize, 0usize, 0usize, 0usize);
    let mut total = std::time::Duration::ZERO;
    for (mod_name, r) in &reports {
        out.push_str(&format!(
            "  {mod_name:<24} {:>3} spinloop(s) {:>3} optimistic {:>4} sc-upgrade(s) \
             {:>4} fence(s) {:>12?}\n",
            r.spinloops,
            r.optiloops,
            r.implicit_barriers_added,
            r.explicit_barriers_added,
            r.porting_time,
        ));
        spins += r.spinloops;
        opts += r.optiloops;
        sc += r.implicit_barriers_added;
        fences += r.explicit_barriers_added;
        total += r.porting_time;
    }
    out.push_str(&format!(
        "totals: {spins} spinloop(s), {opts} optimistic loop(s), \
         {sc} sc-upgrade(s), {fences} fence(s), {total:?} porting"
    ));
    if let Some(p) = emit_metrics {
        let metrics = PipelineMetrics {
            phases: reports
                .iter()
                .map(|(mod_name, r)| PhaseStat {
                    name: format!("port:{mod_name}"),
                    duration: r.porting_time,
                    items: r.implicit_barriers_added + r.explicit_barriers_added,
                })
                .collect(),
            ..PipelineMetrics::default()
        };
        let mut events = metrics_events("batch", path, Some(*alias), &metrics);
        events.push(summary_event(
            total,
            vec![
                ("modules", reports.len().into()),
                ("spinloops", spins.into()),
                ("optiloops", opts.into()),
                ("sc_upgraded", sc.into()),
                ("fences_inserted", fences.into()),
            ],
        ));
        out.push('\n');
        out.push_str(&write_metrics(p, &events)?);
    }
    Ok(out)
}

/// Executes a command against already-loaded source text, returning the
/// text to print (separated from I/O for testability).
///
/// # Errors
///
/// Returns compile errors, check violations and trap messages as strings.
pub fn execute(cmd: &Command, source: &str, name: &str) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Port {
            stage,
            alias,
            report_only,
            naive,
            lasagne,
            trace,
            emit_metrics,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            if (*naive || *lasagne) && (*trace || emit_metrics.is_some()) {
                return Err(
                    "--trace/--emit-metrics need the AtoMig pipeline (drop --naive/--lasagne)"
                        .into(),
                );
            }
            let mut pipeline_report = None;
            let summary = if *naive {
                let stats = atomig_core::naive_port(&mut module);
                format!(
                    "naive port: {} accesses upgraded, {} private skipped",
                    stats.upgraded, stats.skipped_private
                )
            } else if *lasagne {
                let stats = atomig_core::lasagne_port(&mut module);
                format!(
                    "lasagne port: {} fences inserted, {} removed",
                    stats.fences_inserted, stats.fences_removed
                )
            } else {
                let cfg = pipeline_config(*stage, *alias);
                let report = Pipeline::new(cfg).port_module(&mut module);
                let s = format!("{report}");
                pipeline_report = Some(report);
                s
            };
            atomig_mir::verify_module(&module).map_err(|e| e.to_string())?;
            let mut out = if *report_only {
                summary
            } else {
                atomig_mir::printer::print_module(&module)
            };
            if let Some(report) = &pipeline_report {
                if *trace {
                    out.push_str("\n\n");
                    out.push_str(&report.ledger.render_tree(name));
                }
                if let Some(path) = emit_metrics {
                    let mut events = metrics_events("port", name, Some(*alias), &report.metrics);
                    events.extend(report.ledger.decisions().iter().map(decision_event));
                    events.push(summary_event(
                        report.metrics.total(),
                        vec![
                            ("decisions", report.ledger.len().into()),
                            ("sc_upgraded", report.implicit_barriers_added.into()),
                            ("fences_inserted", report.explicit_barriers_added.into()),
                        ],
                    ));
                    out.push('\n');
                    out.push_str(&write_metrics(path, &events)?);
                }
            }
            Ok(out)
        }
        Command::Check {
            model,
            ported,
            emit_metrics,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            let cfg = pipeline_config(Stage::Full, AliasMode::TypeBased);
            // Porting and exploration read one clock.
            let clock = cfg.clock.clone();
            let port_report = ported.then(|| Pipeline::new(cfg).port_module(&mut module));
            if module.func_by_name("main").is_none() {
                return Err("check: the program has no `main`".into());
            }
            let checker = Checker::new(*model);
            let t0 = clock.now();
            let verdict = checker.check(&module, "main");
            let explore = clock.now() - t0;
            let mut note = String::new();
            if let Some(path) = emit_metrics {
                let mut metrics = port_report.map(|r| r.metrics).unwrap_or_default();
                metrics.record("check-explore", explore, verdict.states);
                metrics.checker = Some(CheckerMetrics {
                    model: model.to_string(),
                    states: verdict.states,
                    executions: verdict.executions,
                    revisits: verdict.revisits,
                    peak_tracked: verdict.peak_tracked,
                    truncated: verdict.truncated,
                });
                let mut events = metrics_events("check", name, None, &metrics);
                events.push(summary_event(
                    metrics.total(),
                    vec![
                        ("states", verdict.states.into()),
                        ("executions", verdict.executions.into()),
                        ("revisits", verdict.revisits.into()),
                        ("peak_tracked", verdict.peak_tracked.into()),
                    ],
                ));
                note = format!("\n{}", write_metrics(path, &events)?);
            }
            // A found violation is a non-zero exit, so `atomig check`
            // can gate CI; so is a truncated search, which proves nothing.
            if verdict.violation.is_some() {
                Err(format!("{model}: {verdict}{note}"))
            } else if verdict.truncated {
                let cfg = &checker.config;
                let why = match verdict.truncated_by {
                    Some(Limit::MaxStates) => {
                        format!("max_states ({} distinct states) ran out", cfg.max_states)
                    }
                    Some(Limit::MaxDepth) | None => {
                        format!("a path reached max_depth ({} steps)", cfg.max_depth)
                    }
                };
                Err(format!(
                    "{model}: {verdict}; the exploration is incomplete: {why}{note}"
                ))
            } else {
                Ok(format!("{model}: {verdict}{note}"))
            }
        }
        Command::Lint {
            ported,
            alias,
            deny,
            emit_metrics,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            let cfg = pipeline_config(Stage::Full, *alias);
            if *ported {
                Pipeline::new(cfg.clone()).port_module(&mut module);
            }
            let report = lint_module(&module, &cfg);
            let mut out = report.to_string();
            if let Some(path) = emit_metrics {
                let mut events = metrics_events("lint", name, Some(*alias), &report.metrics);
                events.extend(report.lints.iter().map(finding_event));
                events.push(summary_event(
                    report.metrics.total(),
                    vec![
                        ("findings", report.lints.len().into()),
                        ("funcs", report.funcs.into()),
                        ("accesses", report.accesses.into()),
                    ],
                ));
                out.push_str(&write_metrics(path, &events)?);
                out.push('\n');
            }
            let denied: Vec<&LintRule> = deny.iter().filter(|r| report.count(**r) > 0).collect();
            if !denied.is_empty() {
                let names: Vec<&str> = denied.iter().map(|r| r.name()).collect();
                return Err(format!(
                    "{out}lint: denied rule(s) fired: {}",
                    names.join(", ")
                ));
            }
            Ok(out)
        }
        Command::Explain { line, alias, .. } => {
            let module = atomig_frontc::compile(source, name)?;
            // One audit of the module as written: its plan's ledger holds
            // the decisions a port would make (under the source's function
            // names, since the lint does not inline), and its race
            // candidates give the pre-port context.
            let audit = lint_module(&module, &pipeline_config(Stage::Full, *alias));
            let ledger = &audit.ledger;
            let mut out = String::new();
            match line {
                Some(l) => {
                    let ds = ledger.at_line(*l);
                    if ds.is_empty() {
                        out.push_str(&format!(
                            "no porting decision at {name}.c:{l} \
                             (run `atomig explain {name}.c` for the full tree)\n"
                        ));
                    } else {
                        out.push_str(&format!("{} decision(s) at {name}.c:{l}\n", ds.len()));
                        for d in ds {
                            for step in ledger.chain(d, name) {
                                out.push_str(&step);
                                out.push('\n');
                            }
                        }
                    }
                }
                None => out.push_str(&ledger.render_tree(name)),
            }
            // Pre-port race-candidate context: which shared accesses the
            // audit saw, and the nearest non-covering synchronization.
            let context: Vec<&atomig_core::Lint> = audit
                .lints
                .iter()
                .filter(|l| l.rule == LintRule::RaceCandidate)
                .filter(|l| match line {
                    Some(n) => l.span == *n,
                    None => true,
                })
                .collect();
            if !context.is_empty() {
                out.push_str("\nrace-candidate context (pre-port audit):\n");
                for l in context {
                    out.push_str(&format!(
                        "  {name}.c:{} {}(): {}\n",
                        l.span, l.func, l.message
                    ));
                    for n in &l.notes {
                        out.push_str(&format!("    note: {n}\n"));
                    }
                }
            }
            Ok(out)
        }
        Command::Metrics { .. } => {
            let tally =
                trace::validate_metrics_jsonl(source).map_err(|e| format!("metrics: {e}"))?;
            Ok(format!(
                "valid metrics stream: {} event(s) — {} phase(s), {} decision(s), \
                 {} finding(s), {} solver, {} checker; {} ns across phases\nphases: {}",
                tally.events,
                tally.phases,
                tally.decisions,
                tally.findings,
                tally.solvers,
                tally.checkers,
                tally.total_phase_nanos,
                tally.phase_names.join(", ")
            ))
        }
        Command::Batch { path, .. } => Err(format!(
            "batch: `{path}` must be resolved with `discover_batch_inputs` \
             and run through `execute_batch`"
        )),
        Command::Run { ported, .. } => {
            let mut module = atomig_frontc::compile(source, name)?;
            if *ported {
                Pipeline::new(AtomigConfig::full()).port_module(&mut module);
            }
            if module.func_by_name("main").is_none() {
                return Err("run: the program has no `main`".into());
            }
            let r = atomig_wmm::run_default(&module);
            if let Some(f) = &r.failure {
                return Err(format!("execution failed: {f}"));
            }
            let cm = CostModel::ARMV8;
            let mut out = String::new();
            for v in &r.output {
                out.push_str(&format!("{v}\n"));
            }
            out.push_str(&format!(
                "exit {} | {} visible steps | {} accesses ({} atomic, {} rmw, {} fences) | cost {}",
                r.exit_value,
                r.steps,
                r.stats.total_accesses(),
                r.stats.atomic_loads + r.stats.atomic_stores,
                r.stats.rmws,
                r.stats.fences + r.stats.light_fences,
                cm.cost(&r.stats)
            ));
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

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

    #[test]
    fn parses_commands() {
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args("port a.c --stage spin --report")).unwrap(),
            Command::Port {
                file: "a.c".into(),
                stage: Stage::Spin,
                alias: AliasMode::TypeBased,
                report_only: true,
                naive: false,
                lasagne: false,
                trace: false,
                emit_metrics: None,
            }
        );
        assert_eq!(
            parse_args(&args(
                "port a.c --alias points-to --trace --emit-metrics m.jsonl"
            ))
            .unwrap(),
            Command::Port {
                file: "a.c".into(),
                stage: Stage::Full,
                alias: AliasMode::PointsTo,
                report_only: false,
                naive: false,
                lasagne: false,
                trace: true,
                emit_metrics: Some("m.jsonl".into()),
            }
        );
        assert_eq!(
            parse_args(&args("check a.c --model tso --ported")).unwrap(),
            Command::Check {
                file: "a.c".into(),
                model: ModelKind::Tso,
                ported: true,
                emit_metrics: None,
            }
        );
        assert!(parse_args(&args("port")).is_err());
        assert!(parse_args(&args("port a.c --bogus")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("port a.c --naive --lasagne")).is_err());
    }

    #[test]
    fn port_prints_transformed_ir() {
        let cmd = parse_args(&args("port mp.c")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("seq_cst"), "{out}");
    }

    #[test]
    fn port_report_prints_statistics() {
        let cmd = parse_args(&args("port mp.c --report")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("spinloops        : 1"), "{out}");
    }

    #[test]
    fn check_finds_and_fixes_the_bug() {
        // A violation is an Err so the binary exits non-zero (CI gating).
        let broken = parse_args(&args("check mp.c --model arm")).unwrap();
        let out = execute(&broken, MP, "mp").unwrap_err();
        assert!(out.contains("VIOLATION"), "{out}");
        let fixed = parse_args(&args("check mp.c --model arm --ported")).unwrap();
        let out = execute(&fixed, MP, "mp").unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    /// An exploration the depth limit cuts short is an error naming the
    /// limit, not a pass: the fixture fails its assertion only after
    /// 30,000 iterations, past the default 20,000-step depth.
    #[test]
    fn check_fails_on_a_truncated_exploration() {
        const LOOP: &str = include_str!("../../../tests/fixtures/truncated_loop.c");
        for line in [
            "check loop.c --model sc",
            "check loop.c --model arm --ported",
        ] {
            let cmd = parse_args(&args(line)).unwrap();
            let err = execute(&cmd, LOOP, "loop").unwrap_err();
            assert!(err.contains("TRUNCATED by max_depth"), "{line}: {err}");
            assert!(err.contains("max_depth (20000 steps)"), "{line}: {err}");
            assert!(!err.contains("PASS"), "{line}: {err}");
        }
    }

    #[test]
    fn run_reports_cost_summary() {
        let cmd = parse_args(&args("run mp.c --ported")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("cost "), "{out}");
        assert!(out.contains("exit 0"), "{out}");
    }

    #[test]
    fn compile_errors_surface() {
        let cmd = parse_args(&args("run bad.c")).unwrap();
        let err = execute(&cmd, "int main() { return nope; }", "bad").unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn parse_errors_name_value_and_accepted_set() {
        let err = parse_args(&args("port a.c --stage bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("original") && err.contains("full"), "{err}");
        let err = parse_args(&args("check a.c --model fast")).unwrap_err();
        assert!(err.contains("fast"), "{err}");
        assert!(err.contains("sc") && err.contains("arm"), "{err}");
        let err = parse_args(&args("lint a.c --deny everything")).unwrap_err();
        assert!(err.contains("everything"), "{err}");
        assert!(
            err.contains("race-candidate") && err.contains("fence-placement"),
            "{err}"
        );
        let err = parse_args(&args("port a.c --alias bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(
            err.contains("type-based") && err.contains("points-to"),
            "{err}"
        );
        let err = parse_args(&args("lint a.c --alias precise")).unwrap_err();
        assert!(err.contains("precise"), "{err}");
    }

    #[test]
    fn parses_lint_command() {
        // `shared-plain-access` is the legacy alias of `race-candidate`.
        assert_eq!(
            parse_args(&args("lint a.c --ported --deny shared-plain-access")).unwrap(),
            Command::Lint {
                file: "a.c".into(),
                ported: true,
                alias: AliasMode::TypeBased,
                deny: vec![LintRule::RaceCandidate],
                emit_metrics: None,
            }
        );
        assert_eq!(
            parse_args(&args("lint a.c --alias points-to --deny race-candidate")).unwrap(),
            Command::Lint {
                file: "a.c".into(),
                ported: false,
                alias: AliasMode::PointsTo,
                deny: vec![LintRule::RaceCandidate],
                emit_metrics: None,
            }
        );
        assert!(parse_args(&args("lint")).is_err());
        assert!(parse_args(&args("lint a.c --deny")).is_err());
        assert!(parse_args(&args("lint a.c --alias")).is_err());
        assert!(parse_args(&args("lint a.c --bogus")).is_err());
    }

    #[test]
    fn lint_flags_original_and_clears_ported() {
        let cmd = parse_args(&args("lint mp.c")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("fence-placement"), "{out}");
        assert!(out.contains("mp.c:"), "{out}");
        let cmd = parse_args(&args("lint mp.c --ported")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("0 finding(s)"), "{out}");
    }

    #[test]
    fn lint_deny_gates_exit_status() {
        // Denied rule fires on the original module → Err (non-zero exit).
        let cmd = parse_args(&args("lint mp.c --deny fence-placement")).unwrap();
        let err = execute(&cmd, MP, "mp").unwrap_err();
        assert!(
            err.contains("denied rule(s) fired: fence-placement"),
            "{err}"
        );
        // Ported module is clean, so the same deny passes.
        let cmd = parse_args(&args(
            "lint mp.c --ported --deny fence-placement --deny shared-plain-access",
        ))
        .unwrap();
        assert!(execute(&cmd, MP, "mp").is_ok());
    }

    const SEQLOCK: &str = include_str!("../../../examples/seqlock_alias.c");

    fn tmp(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("atomig-cli-{tag}-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn parses_explain_and_metrics() {
        assert_eq!(
            parse_args(&args("explain a.c:41 --alias points-to")).unwrap(),
            Command::Explain {
                file: "a.c".into(),
                line: Some(41),
                alias: AliasMode::PointsTo,
            }
        );
        assert_eq!(
            parse_args(&args("explain a.c")).unwrap(),
            Command::Explain {
                file: "a.c".into(),
                line: None,
                alias: AliasMode::TypeBased,
            }
        );
        assert_eq!(
            parse_args(&args("metrics run.jsonl")).unwrap(),
            Command::Metrics {
                file: "run.jsonl".into(),
            }
        );
        assert!(parse_args(&args("explain")).is_err());
        assert!(parse_args(&args("explain a.c:forty")).is_err());
        assert!(parse_args(&args("explain a.c --bogus")).is_err());
        assert!(parse_args(&args("metrics")).is_err());
        assert!(parse_args(&args("port a.c --emit-metrics")).is_err());
    }

    #[test]
    fn explain_rejects_malformed_targets_by_name() {
        // Trailing colon: previously split into ("a.c", "") and surfaced
        // as a confusing empty-string parse error.
        let err = parse_args(&args("explain a.c:")).unwrap_err();
        assert!(err.contains("trailing `:`"), "{err}");
        assert!(err.contains("a.c:"), "{err}");
        // No file before the colon: previously treated `:41` as a file
        // named ":41" and silently explained nothing.
        let err = parse_args(&args("explain :41")).unwrap_err();
        assert!(err.contains("no file before"), "{err}");
        // Line 0 can never match a 1-based source span.
        let err = parse_args(&args("explain a.c:0")).unwrap_err();
        assert!(err.contains("1-based"), "{err}");
        // Non-numeric suffix keeps the existing named error.
        let err = parse_args(&args("explain a.c:forty")).unwrap_err();
        assert!(err.contains("forty"), "{err}");
    }

    #[test]
    fn every_subcommand_rejects_jobs() {
        // Everything runs on one thread: there is no worker count to set.
        for cmd in [
            "port a.c",
            "check a.c",
            "run a.c",
            "lint a.c",
            "batch d",
            "explain a.c",
            "metrics m.jsonl",
        ] {
            let err = parse_args(&args(&format!("{cmd} --jobs 2"))).unwrap_err();
            assert_eq!(err, "unknown argument `--jobs`", "{cmd}");
        }
    }

    #[test]
    fn explain_traces_a_buddy_upgrade_to_its_spin_seed() {
        // Acceptance: the h->epoch store on line 30 of seqlock_alias.c is
        // upgraded by sticky-buddy expansion; the chain must name the
        // alias class, the backend, and end at the spin-control seed.
        let cmd = parse_args(&args("explain seqlock_alias.c:30 --alias points-to")).unwrap();
        let out = execute(&cmd, SEQLOCK, "seqlock_alias").unwrap();
        assert!(out.contains("decision(s) at seqlock_alias.c:30"), "{out}");
        assert!(out.contains("sticky-buddy"), "{out}");
        assert!(out.contains("alias class"), "{out}");
        assert!(out.contains("points-to"), "{out}");
        assert!(out.contains("spin-control"), "{out}");
        assert!(out.contains("writer_step"), "{out}");
        // Same chain under the paper's type-based keys.
        let cmd = parse_args(&args("explain seqlock_alias.c:30")).unwrap();
        let out = execute(&cmd, SEQLOCK, "seqlock_alias").unwrap();
        assert!(out.contains("sticky-buddy"), "{out}");
        assert!(out.contains("type-based"), "{out}");
    }

    #[test]
    fn explain_without_line_prints_the_full_tree() {
        let cmd = parse_args(&args("explain mp.c")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("decision trace for `mp`"), "{out}");
        assert!(out.contains("spin-control"), "{out}");
        // Pre-port audit context rides along for shared plain accesses.
        assert!(out.contains("race-candidate context"), "{out}");
    }

    #[test]
    fn explain_reports_lines_without_decisions() {
        let cmd = parse_args(&args("explain mp.c:1")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("no porting decision at mp.c:1"), "{out}");
    }

    #[test]
    fn trace_flag_appends_the_decision_tree() {
        let cmd = parse_args(&args("port mp.c --report --trace")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("spinloops        : 1"), "{out}");
        assert!(out.contains("decision trace for `mp`"), "{out}");
        assert!(out.contains("spin-control"), "{out}");
    }

    #[test]
    fn emit_metrics_streams_validate_with_nonzero_timings() {
        // Acceptance: port, lint, and check streams all round-trip
        // through the schema validator with nonzero phase timings.
        let p_port = tmp("port");
        let cmd = parse_args(&args(&format!(
            "port mp.c --report --emit-metrics {p_port}"
        )))
        .unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("metrics: wrote"), "{out}");
        let text = std::fs::read_to_string(&p_port).unwrap();
        std::fs::remove_file(&p_port).ok();
        let tally = atomig_core::validate_metrics_jsonl(&text).unwrap();
        assert!(tally.total_phase_nanos > 0, "{tally:?}");
        assert!(tally.decisions > 0, "{tally:?}");
        assert!(tally.phase_names.iter().any(|n| n == "port-total"));
        // The `metrics` subcommand accepts what `--emit-metrics` wrote.
        let cmd = parse_args(&args("metrics m.jsonl")).unwrap();
        let out = execute(&cmd, &text, "m").unwrap();
        assert!(out.contains("valid metrics stream"), "{out}");

        let p_lint = tmp("lint");
        let cmd = parse_args(&args(&format!("lint mp.c --emit-metrics {p_lint}"))).unwrap();
        execute(&cmd, MP, "mp").unwrap();
        let text = std::fs::read_to_string(&p_lint).unwrap();
        std::fs::remove_file(&p_lint).ok();
        let tally = atomig_core::validate_metrics_jsonl(&text).unwrap();
        assert!(tally.total_phase_nanos > 0, "{tally:?}");
        assert!(tally.findings > 0 && tally.solvers == 1, "{tally:?}");
        assert!(tally.phase_names.iter().any(|n| n == "lint-total"));

        let p_check = tmp("check");
        let cmd = parse_args(&args(&format!(
            "check mp.c --ported --emit-metrics {p_check}"
        )))
        .unwrap();
        execute(&cmd, MP, "mp").unwrap();
        let text = std::fs::read_to_string(&p_check).unwrap();
        std::fs::remove_file(&p_check).ok();
        let tally = atomig_core::validate_metrics_jsonl(&text).unwrap();
        assert!(tally.total_phase_nanos > 0, "{tally:?}");
        assert!(tally.checkers == 1, "{tally:?}");
        assert!(tally.phase_names.iter().any(|n| n == "check-explore"));
    }

    #[test]
    fn metrics_rejects_malformed_streams() {
        let cmd = parse_args(&args("metrics bad.jsonl")).unwrap();
        let err = execute(&cmd, "{\"event\":\"phase\"}\n", "bad").unwrap_err();
        assert!(err.contains("metrics:"), "{err}");
    }

    #[test]
    fn baselines_reject_observability_flags() {
        let cmd = parse_args(&args("port mp.c --naive --trace")).unwrap();
        let err = execute(&cmd, MP, "mp").unwrap_err();
        assert!(err.contains("AtoMig pipeline"), "{err}");
    }

    #[test]
    fn baselines_apply() {
        let cmd = parse_args(&args("port mp.c --naive --report")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("naive port"), "{out}");
        let cmd = parse_args(&args("port mp.c --lasagne --report")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(out.contains("lasagne port"), "{out}");
    }

    /// `port --naive`/`--lasagne` skip the AtoMig pipeline, so a pipeline
    /// knob next to them is an error rather than silently ignored.
    fn assert_baselines_reject(knob: &str, value: &str) {
        for baseline in ["--naive", "--lasagne"] {
            let line = format!("port a.c {baseline} {knob} {value}");
            let err = parse_args(&args(&line)).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "{knob} has no effect with {baseline} (the baseline runs no AtoMig pipeline)"
                ),
                "{line}"
            );
        }
    }

    #[test]
    fn baselines_reject_stage() {
        assert_baselines_reject("--stage", "spin");
    }

    #[test]
    fn baselines_reject_alias() {
        assert_baselines_reject("--alias", "points-to");
    }

    fn tmp_dir(tag: &str) -> String {
        let d = std::env::temp_dir().join(format!("atomig-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn parses_batch_command() {
        assert_eq!(
            parse_args(&args("batch examples --alias points-to")).unwrap(),
            Command::Batch {
                path: "examples".into(),
                stage: Stage::Full,
                alias: AliasMode::PointsTo,
                emit_metrics: None,
            }
        );
        assert_eq!(
            parse_args(&args("batch list.txt --stage spin --emit-metrics b.jsonl")).unwrap(),
            Command::Batch {
                path: "list.txt".into(),
                stage: Stage::Spin,
                alias: AliasMode::TypeBased,
                emit_metrics: Some("b.jsonl".into()),
            }
        );
        assert!(parse_args(&args("batch")).is_err());
        assert!(parse_args(&args("batch d --bogus")).is_err());
    }

    #[test]
    fn read_source_names_directories_and_suggests_batch() {
        let d = tmp_dir("readdir");
        let err = read_source(&d).unwrap_err();
        assert!(err.contains("is a directory"), "{err}");
        assert!(err.contains(&format!("atomig batch {d}")), "{err}");
        std::fs::remove_dir_all(&d).ok();
        // Regular missing files keep the OS error text.
        let err = read_source("definitely-missing.c").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    /// The module names of a discovered batch, in order.
    fn names(inputs: &[BatchInput]) -> Vec<&str> {
        inputs.iter().map(|i| i.name.as_str()).collect()
    }

    #[test]
    fn discover_names_nested_files_by_relative_path_in_path_order() {
        let d = tmp_dir("discover-nested");
        std::fs::create_dir_all(format!("{d}/sub/deeper")).unwrap();
        std::fs::write(format!("{d}/b.c"), "int main() { return 0; }").unwrap();
        std::fs::write(format!("{d}/sub/a.c"), "int x;").unwrap();
        std::fs::write(format!("{d}/sub/deeper/c.c"), "int y;").unwrap();
        std::fs::write(format!("{d}/notes.txt"), "not C").unwrap();
        let got = discover_batch_inputs(&d).unwrap();
        std::fs::remove_dir_all(&d).ok();
        assert_eq!(names(&got), vec!["b", "sub/a", "sub/deeper/c"]);
        assert_eq!(got[0].source, "int main() { return 0; }");
    }

    #[test]
    fn discover_reads_a_manifest_relative_to_its_directory() {
        let d = tmp_dir("discover-manifest");
        std::fs::create_dir_all(format!("{d}/sub")).unwrap();
        std::fs::write(format!("{d}/b.c"), "int b;").unwrap();
        std::fs::write(format!("{d}/sub/a.c"), "int a;").unwrap();
        std::fs::write(
            format!("{d}/list.txt"),
            "# modules, in report order\n\nsub/a.c\n  # indented comment\n   \nb.c\n",
        )
        .unwrap();
        let got = discover_batch_inputs(&format!("{d}/list.txt"));
        let missing = discover_batch_inputs(&format!("{d}/missing.txt"));
        std::fs::remove_dir_all(&d).ok();
        let got = got.unwrap();
        assert_eq!(names(&got), vec!["sub/a", "b"]);
        assert_eq!(got[0].source, "int a;");
        assert!(missing.unwrap_err().contains("cannot read manifest"));
    }

    #[test]
    fn discover_takes_a_single_c_file_by_its_stem() {
        let d = tmp_dir("discover-file");
        std::fs::write(format!("{d}/b.c"), "int b;").unwrap();
        let got = discover_batch_inputs(&format!("{d}/b.c"));
        std::fs::remove_dir_all(&d).ok();
        let got = got.unwrap();
        assert_eq!(names(&got), vec!["b"]);
        assert_eq!(got[0].source, "int b;");
    }

    #[test]
    fn discover_keeps_files_with_the_same_stem_apart() {
        let d = tmp_dir("discover-stems");
        for sub in ["a", "b"] {
            std::fs::create_dir_all(format!("{d}/n/{sub}")).unwrap();
            std::fs::write(format!("{d}/n/{sub}/x.c"), format!("int {sub};")).unwrap();
        }
        let got = discover_batch_inputs(&format!("{d}/n"));
        std::fs::remove_dir_all(&d).ok();
        let inputs = got.unwrap();
        assert_eq!(names(&inputs), vec!["a/x", "b/x"]);
        let cmd = Command::Batch {
            path: "n".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            emit_metrics: None,
        };
        let out = execute_batch(&cmd, &inputs).unwrap();
        assert!(out.contains("\n  a/x "), "{out}");
        assert!(out.contains("\n  b/x "), "{out}");
    }

    #[test]
    fn batch_report_names_its_setup_and_streams_one_phase_per_module() {
        let p = tmp("batch-metrics");
        let cmd = Command::Batch {
            path: "mem".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            emit_metrics: Some(p.clone()),
        };
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
        let out = execute_batch(&cmd, &inputs).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert!(
            out.starts_with(
                "batch report: 2 module(s) from `mem` (stage full, type-based alias)\n"
            ),
            "{out}"
        );
        assert!(out.contains("totals:"), "{out}");
        let tally = atomig_core::validate_metrics_jsonl(&text).unwrap();
        assert_eq!(
            tally.phase_names,
            vec!["port:mp", "port:seqlock_alias"],
            "{text}"
        );
    }

    #[test]
    fn batch_rejects_empty_input_sets_and_aggregates_failures() {
        let cmd = Command::Batch {
            path: "empty".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            emit_metrics: None,
        };
        let err = execute_batch(&cmd, &[]).unwrap_err();
        assert!(err.contains("no .c files"), "{err}");
        let inputs = vec![
            BatchInput {
                name: "good".into(),
                source: "int main() { return 0; }".into(),
            },
            BatchInput {
                name: "bad".into(),
                source: "int main() { return nope; }".into(),
            },
        ];
        let err = execute_batch(&cmd, &inputs).unwrap_err();
        assert!(err.contains("1 of 2 module(s) failed"), "{err}");
        assert!(err.contains("bad:"), "{err}");
    }
}
