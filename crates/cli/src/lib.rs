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

use atomig_cache::CacheStore;
use atomig_core::json::Value;
use atomig_core::trace::{
    self, cache_event, checker_event, decision_event, finding_event, meta_event, phase_event,
    solver_event, summary_event, to_jsonl,
};
use atomig_core::{
    lint_module, AliasMode, AtomigConfig, CacheMetrics, CheckerMetrics, LintRule, PhaseStat,
    Pipeline, PipelineMetrics, Stage,
};
use atomig_wmm::{Checker, CostModel, Limit, ModelKind};
use std::sync::Arc;

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
        /// Worker threads; `None` means host parallelism. Output is
        /// byte-identical for any value.
        jobs: Option<usize>,
        /// Artifact-cache directory; `None` disables caching for this
        /// single-file run (`atomig batch` caches by default instead).
        cache_dir: Option<String>,
    },
    /// `atomig check <file> [--model m] [--ported] [--emit-metrics out]
    /// [--jobs n]`
    Check {
        /// Input path.
        file: String,
        /// Memory model to explore.
        model: ModelKind,
        /// Port with full AtoMig before checking.
        ported: bool,
        /// Write the JSONL metrics stream to this path.
        emit_metrics: Option<String>,
        /// Worker threads; `None` means host parallelism. The verdict is
        /// identical for any value.
        jobs: Option<usize>,
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
        /// Worker threads; `None` means host parallelism. Output is
        /// byte-identical for any value.
        jobs: Option<usize>,
        /// Artifact-cache directory; `None` disables caching for this
        /// single-file run (`atomig batch` caches by default instead).
        cache_dir: Option<String>,
    },
    /// `atomig batch <manifest|dir> [--stage s] [--alias a] [--jobs n]
    /// [--emit-metrics out] [--cache-dir d | --no-cache]`
    Batch {
        /// A directory scanned recursively for `.c` files, a single `.c`
        /// file, or a manifest listing one path per line (`#` comments).
        path: String,
        /// Detection stage applied to every module.
        stage: Stage,
        /// Alias backend applied to every module.
        alias: AliasMode,
        /// Worker threads fanning out across modules; `None` resolves
        /// `ATOMIG_JOBS`, then host parallelism.
        jobs: Option<usize>,
        /// Write the combined JSONL metrics stream to this path.
        emit_metrics: Option<String>,
        /// Artifact-cache directory override (default:
        /// `$ATOMIG_CACHE_DIR`, then `.atomig-cache/`).
        cache_dir: Option<String>,
        /// Run without the artifact cache.
        no_cache: bool,
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
                          [--emit-metrics <out.jsonl>] [--jobs <N>]
                          [--cache-dir <dir>]
    atomig check <file.c> [--model sc|tso|wmm|arm] [--ported]
                          [--emit-metrics <out.jsonl>] [--jobs <N>]
    atomig run   <file.c> [--ported]
    atomig lint  <file.c> [--ported] [--alias type-based|points-to]
                          [--deny race-candidate|fence-placement]
                          [--emit-metrics <out.jsonl>] [--jobs <N>]
                          [--cache-dir <dir>]
    atomig batch <dir|manifest|file.c>
                          [--stage original|expl|spin|full]
                          [--alias type-based|points-to] [--jobs <N>]
                          [--emit-metrics <out.jsonl>]
                          [--cache-dir <dir> | --no-cache]
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

Parallelism: `--jobs N` sets the worker-thread count for the analysis
and exploration phases (default: host parallelism; `batch` also reads
ATOMIG_JOBS). Reports, metrics, ledgers, and verdicts are byte-identical
for every N — workers only compute, and results are merged in a fixed
order. Set ATOMIG_DETERMINISTIC=1 to replace the phase-timing clock with
a fixed-step counter so the output is also byte-identical across *runs*
(for diffing in CI).

Incremental analysis: `batch` ports every `.c` file under a directory
(or listed in a manifest, one path per line, `#` comments) and prints
one combined report. Per-function detection artifacts are cached in a
content-addressed store — `--cache-dir <dir>`, else $ATOMIG_CACHE_DIR,
else `.atomig-cache/` — so a warm rerun re-analyzes only functions whose
body or configuration changed; `--no-cache` disables the store. Warm
output is byte-identical to cold: hit/miss/eviction counters surface
only via `--trace`, the `cache` JSONL event, and `atomig metrics`.
`port` and `lint` join the cache when given `--cache-dir` explicitly.";

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
                "--report --naive --lasagne --trace --stage --alias --emit-metrics --jobs --cache-dir",
            )?;
            let (naive, lasagne) = (f.has("--naive"), f.has("--lasagne"));
            if naive && lasagne {
                return Err("--naive and --lasagne are mutually exclusive".into());
            }
            // The baselines port without the AtoMig pipeline, so its knobs
            // would be silently ignored.
            if naive || lasagne {
                let baseline = if naive { "--naive" } else { "--lasagne" };
                if let Some(knob) = ["--stage", "--alias", "--jobs"].iter().find(|k| f.has(k)) {
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
                jobs: f.jobs,
                cache_dir: f.cache_dir,
            })
        }
        "check" => {
            let f = Flags::parse(rest, "--ported --model --emit-metrics --jobs")?;
            Ok(Command::Check {
                ported: f.ported,
                file: f.input.ok_or("check: missing input file")?,
                model: f.model,
                emit_metrics: f.emit_metrics,
                jobs: f.jobs,
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
            let f = Flags::parse(
                rest,
                "--ported --alias --deny --emit-metrics --jobs --cache-dir",
            )?;
            Ok(Command::Lint {
                ported: f.ported,
                file: f.input.ok_or("lint: missing input file")?,
                alias: f.alias,
                deny: f.deny,
                emit_metrics: f.emit_metrics,
                jobs: f.jobs,
                cache_dir: f.cache_dir,
            })
        }
        "batch" => {
            let f = Flags::parse(
                rest,
                "--no-cache --stage --alias --jobs --emit-metrics --cache-dir",
            )?;
            let no_cache = f.has("--no-cache");
            if no_cache && f.cache_dir.is_some() {
                return Err("--cache-dir and --no-cache are mutually exclusive".into());
            }
            Ok(Command::Batch {
                path: f
                    .input
                    .ok_or("batch: missing input directory, manifest, or file")?,
                stage: f.stage,
                alias: f.alias,
                jobs: f.jobs,
                emit_metrics: f.emit_metrics,
                cache_dir: f.cache_dir,
                no_cache,
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
    jobs: Option<usize>,
    emit_metrics: Option<String>,
    cache_dir: Option<String>,
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
            jobs: None,
            emit_metrics: None,
            cache_dir: None,
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
                "--jobs" => f.jobs = Some(parse_jobs(value("a value")?)?),
                "--model" => f.model = parse_model(value("a value")?)?,
                "--emit-metrics" => f.emit_metrics = Some(value("a path")?.clone()),
                "--cache-dir" => f.cache_dir = Some(value("a directory")?.clone()),
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

fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--jobs: `{s}` is not a thread count")),
    }
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
/// given alias backend, worker count and artifact cache, on the
/// deterministic clock when `ATOMIG_DETERMINISTIC` asks for it.
fn pipeline_config(
    stage: Stage,
    alias: AliasMode,
    jobs: Option<usize>,
    cache: Option<Arc<CacheStore>>,
) -> AtomigConfig {
    let mut cfg = match stage {
        Stage::Original => AtomigConfig::original(),
        Stage::Explicit => AtomigConfig::explicit_only(),
        Stage::Spin => AtomigConfig::spin(),
        Stage::Full => AtomigConfig::full(),
    };
    cfg.alias_mode = alias;
    if let Some(j) = jobs {
        cfg.jobs = j;
    }
    if let Some(c) = deterministic_clock() {
        cfg.clock = c;
    }
    cfg.cache = cache;
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

/// The meta, solver, phase, checker and cache events of one run, in
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
    events.extend(metrics.cache.as_ref().map(cache_event));
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

/// The artifact cache at `dir` (`None`: the default root), opened only
/// when `on`.
fn open_cache(on: bool, dir: Option<&str>) -> Result<Option<Arc<CacheStore>>, String> {
    Ok(if on {
        Some(Arc::new(CacheStore::open(dir)?))
    } else {
        None
    })
}

/// The one-line trace rendering of cache counters. Deliberately absent
/// from reports: warm output must stay byte-identical to cold.
fn cache_line(c: &CacheMetrics) -> String {
    format!(
        "cache: {} hit(s), {} miss(es), {} evicted",
        c.hits, c.misses, c.evictions
    )
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
    /// Module name (file stem).
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
/// manifest's directory; blank lines and `#` comments are skipped).
///
/// # Errors
///
/// Names the unreadable path; an empty result is reported by
/// [`execute_batch`], not here.
pub fn discover_batch_inputs(path: &str) -> Result<Vec<BatchInput>, String> {
    let p = std::path::Path::new(path);
    let mut files = Vec::new();
    if p.is_dir() {
        collect_c_files(p, &mut files)?;
        files.sort();
    } else if path.ends_with(".c") {
        files.push(p.to_path_buf());
    } else {
        let text = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read manifest `{path}`: {e}"))?;
        let base = p.parent().unwrap_or_else(|| std::path::Path::new("."));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            files.push(base.join(line));
        }
    }
    let mut inputs = Vec::with_capacity(files.len());
    for f in files {
        let fs = f.to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&f).map_err(|e| format!("cannot read `{fs}`: {e}"))?;
        inputs.push(BatchInput {
            name: module_name(&fs).to_string(),
            source,
        });
    }
    Ok(inputs)
}

/// Executes `atomig batch` over already-loaded inputs, returning the
/// combined report (discovery is separate for testability).
///
/// Modules fan out across the worker pool; each worker runs a
/// single-threaded pipeline with its own deterministic clock, so
/// per-module output is independent of scheduling and the sequential
/// merge below is order-fixed. Cache counters stay out of the report —
/// they surface via the `cache` JSONL event only — so a warm rerun is
/// byte-identical to the cold one.
///
/// # Errors
///
/// Aggregates per-module compile/verify failures into one message;
/// an empty input set and cache/metrics I/O failures are also errors.
pub fn execute_batch(cmd: &Command, inputs: &[BatchInput]) -> Result<String, String> {
    let Command::Batch {
        path,
        stage,
        alias,
        jobs,
        emit_metrics,
        cache_dir,
        no_cache,
    } = cmd
    else {
        return Err("execute_batch: not a batch command".into());
    };
    if inputs.is_empty() {
        return Err(format!("batch: no .c files found under `{path}`"));
    }
    let store = open_cache(!no_cache, cache_dir.as_deref())?;
    let jobs = jobs.map_or_else(|| atomig_par::jobs_from_env("ATOMIG_JOBS"), Ok)?;
    let pool = atomig_par::WorkerPool::new(jobs);
    let results = pool.map(inputs, |_, inp| {
        let cfg = pipeline_config(*stage, *alias, Some(1), store.clone());
        let mut m = atomig_frontc::compile(&inp.source, &inp.name)?;
        let report = Pipeline::new(cfg).port_module(&mut m);
        atomig_mir::verify_module(&m).map_err(|e| e.to_string())?;
        Ok::<_, String>(report)
    });

    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for (inp, res) in inputs.iter().zip(results) {
        match res {
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
        "batch report: {} module(s) from `{path}` (stage {}, {} alias, cache {})\n",
        reports.len(),
        STAGES
            .iter()
            .find(|(_, s)| s == stage)
            .map_or("", |(name, _)| name),
        alias.name(),
        if store.is_some() { "on" } else { "off" },
    );
    let (mut spins, mut opts, mut sc, mut fences) = (0usize, 0usize, 0usize, 0usize);
    let mut total = std::time::Duration::ZERO;
    let mut cache: Option<CacheMetrics> = None;
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
        if let Some(c) = &r.metrics.cache {
            // Hits and misses are per-module and sum; evictions are a
            // store-wide count every module observed, so take the max
            // instead of overcounting.
            let agg = cache.get_or_insert_with(CacheMetrics::default);
            agg.hits += c.hits;
            agg.misses += c.misses;
            agg.evictions = agg.evictions.max(c.evictions);
        }
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
            cache,
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
                ("cache_hits", cache.map_or(0, |c| c.hits).into()),
                ("cache_misses", cache.map_or(0, |c| c.misses).into()),
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
            jobs,
            cache_dir,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            if (*naive || *lasagne) && (*trace || emit_metrics.is_some() || cache_dir.is_some()) {
                return Err(
                    "--trace/--emit-metrics/--cache-dir need the AtoMig pipeline \
                     (drop --naive/--lasagne)"
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
                let cache = open_cache(cache_dir.is_some(), cache_dir.as_deref())?;
                let cfg = pipeline_config(*stage, *alias, *jobs, cache);
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
                    if let Some(c) = &report.metrics.cache {
                        out.push('\n');
                        out.push_str(&cache_line(c));
                    }
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
            jobs,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            let cfg = pipeline_config(Stage::Full, AliasMode::TypeBased, *jobs, None);
            // Porting and exploration read one clock.
            let clock = cfg.clock.clone();
            let port_report = ported.then(|| Pipeline::new(cfg).port_module(&mut module));
            if module.func_by_name("main").is_none() {
                return Err("check: the program has no `main`".into());
            }
            let mut checker = Checker::new(*model);
            if let Some(j) = jobs {
                checker.config.jobs = *j;
            }
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
            jobs,
            cache_dir,
            ..
        } => {
            let mut module = atomig_frontc::compile(source, name)?;
            let cache = open_cache(cache_dir.is_some(), cache_dir.as_deref())?;
            let cfg = pipeline_config(Stage::Full, *alias, *jobs, cache);
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
            let audit = lint_module(&module, &pipeline_config(Stage::Full, *alias, None, None));
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
            let mut out = format!(
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
            );
            if tally.caches > 0 {
                out.push_str(&format!(
                    "\ncache: {} hit(s), {} miss(es)",
                    tally.cache_hits, tally.cache_misses
                ));
            }
            Ok(out)
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
                jobs: None,
                cache_dir: None,
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
                jobs: None,
                cache_dir: None,
            }
        );
        assert_eq!(
            parse_args(&args("check a.c --model tso --ported")).unwrap(),
            Command::Check {
                file: "a.c".into(),
                model: ModelKind::Tso,
                ported: true,
                emit_metrics: None,
                jobs: None,
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
                jobs: None,
                cache_dir: None,
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
                jobs: None,
                cache_dir: None,
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
    fn jobs_flag_parses_and_rejects_bad_counts() {
        assert_eq!(
            parse_args(&args("port a.c --jobs 4")).unwrap(),
            Command::Port {
                file: "a.c".into(),
                stage: Stage::Full,
                alias: AliasMode::TypeBased,
                report_only: false,
                naive: false,
                lasagne: false,
                trace: false,
                emit_metrics: None,
                jobs: Some(4),
                cache_dir: None,
            }
        );
        match parse_args(&args("check a.c --jobs 2")).unwrap() {
            Command::Check { jobs, .. } => assert_eq!(jobs, Some(2)),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("lint a.c --jobs 1")).unwrap() {
            Command::Lint { jobs, .. } => assert_eq!(jobs, Some(1)),
            other => panic!("{other:?}"),
        }
        let err = parse_args(&args("port a.c --jobs 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_args(&args("port a.c --jobs many")).unwrap_err();
        assert!(err.contains("many"), "{err}");
        assert!(parse_args(&args("port a.c --jobs")).is_err());
        // `run` has no parallel phase, so it takes no --jobs.
        assert!(parse_args(&args("run a.c --jobs 2")).is_err());
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

    #[test]
    fn baselines_reject_jobs() {
        assert_baselines_reject("--jobs", "2");
    }

    fn tmp_dir(tag: &str) -> String {
        let d = std::env::temp_dir().join(format!("atomig-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn parses_batch_command() {
        assert_eq!(
            parse_args(&args("batch examples --jobs 2 --alias points-to")).unwrap(),
            Command::Batch {
                path: "examples".into(),
                stage: Stage::Full,
                alias: AliasMode::PointsTo,
                jobs: Some(2),
                emit_metrics: None,
                cache_dir: None,
                no_cache: false,
            }
        );
        assert_eq!(
            parse_args(&args(
                "batch list.txt --stage spin --no-cache --emit-metrics b.jsonl"
            ))
            .unwrap(),
            Command::Batch {
                path: "list.txt".into(),
                stage: Stage::Spin,
                alias: AliasMode::TypeBased,
                jobs: None,
                emit_metrics: Some("b.jsonl".into()),
                cache_dir: None,
                no_cache: true,
            }
        );
        assert!(parse_args(&args("batch")).is_err());
        assert!(parse_args(&args("batch d --bogus")).is_err());
        let err = parse_args(&args("batch d --cache-dir c --no-cache")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn cache_dir_flag_round_trips_on_port_and_lint() {
        match parse_args(&args("port a.c --cache-dir .cache")).unwrap() {
            Command::Port { cache_dir, .. } => assert_eq!(cache_dir.as_deref(), Some(".cache")),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("lint a.c --cache-dir .cache")).unwrap() {
            Command::Lint { cache_dir, .. } => assert_eq!(cache_dir.as_deref(), Some(".cache")),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("port a.c --cache-dir")).is_err());
        // `check` has no detection phase to cache.
        assert!(parse_args(&args("check a.c --cache-dir c")).is_err());
        // Baselines skip the pipeline entirely, so a cache is an error.
        let cmd = parse_args(&args("port mp.c --naive --cache-dir c")).unwrap();
        let err = execute(&cmd, MP, "mp").unwrap_err();
        assert!(err.contains("AtoMig pipeline"), "{err}");
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

    #[test]
    fn discover_handles_dirs_files_and_manifests() {
        let d = tmp_dir("discover");
        std::fs::create_dir_all(format!("{d}/sub")).unwrap();
        std::fs::write(format!("{d}/b.c"), "int main() { return 0; }").unwrap();
        std::fs::write(format!("{d}/sub/a.c"), "int x;").unwrap();
        std::fs::write(format!("{d}/notes.txt"), "not C").unwrap();
        let got = discover_batch_inputs(&d).unwrap();
        assert_eq!(
            got.iter().map(|i| i.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "a"],
            "sorted by path: {d}/b.c before {d}/sub/a.c"
        );
        // A single .c file is a one-module batch.
        let got = discover_batch_inputs(&format!("{d}/b.c")).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "b");
        // A manifest resolves entries relative to its own directory.
        std::fs::write(format!("{d}/list.txt"), "# comment\n\nb.c\nsub/a.c\n").unwrap();
        let got = discover_batch_inputs(&format!("{d}/list.txt")).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "b");
        assert_eq!(got[1].name, "a");
        assert!(discover_batch_inputs(&format!("{d}/missing.txt")).is_err());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn batch_runs_cold_then_warm_with_identical_reports() {
        let cache = tmp_dir("batch-cache");
        let cmd = Command::Batch {
            path: "mem".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            jobs: Some(2),
            emit_metrics: None,
            cache_dir: Some(cache.clone()),
            no_cache: false,
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
        std::env::set_var("ATOMIG_DETERMINISTIC", "1");
        let cold = execute_batch(&cmd, &inputs).unwrap();
        let warm = execute_batch(&cmd, &inputs).unwrap();
        std::env::remove_var("ATOMIG_DETERMINISTIC");
        assert_eq!(cold, warm, "warm batch output must be byte-identical");
        assert!(cold.contains("batch report: 2 module(s)"), "{cold}");
        assert!(cold.contains("totals:"), "{cold}");
        assert!(!cold.contains("cache:"), "counters must stay out: {cold}");

        // The metrics stream is where the counters live: warm = all hits.
        let p = tmp("batch-metrics");
        let with_metrics = Command::Batch {
            path: "mem".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            jobs: Some(2),
            emit_metrics: Some(p.clone()),
            cache_dir: Some(cache.clone()),
            no_cache: false,
        };
        std::env::set_var("ATOMIG_DETERMINISTIC", "1");
        execute_batch(&with_metrics, &inputs).unwrap();
        std::env::remove_var("ATOMIG_DETERMINISTIC");
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::remove_file(&p).ok();
        std::fs::remove_dir_all(&cache).ok();
        let tally = atomig_core::validate_metrics_jsonl(&text).unwrap();
        assert_eq!(tally.caches, 1, "{text}");
        assert!(tally.cache_hits > 0 && tally.cache_misses == 0, "{text}");
        assert!(tally.phase_names.iter().any(|n| n == "port:mp"), "{text}");
        // The metrics subcommand surfaces the tallied counters.
        let out = execute(&parse_args(&args("metrics b.jsonl")).unwrap(), &text, "b").unwrap();
        assert!(out.contains("cache:") && out.contains("hit(s)"), "{out}");
    }

    #[test]
    fn batch_rejects_empty_input_sets_and_aggregates_failures() {
        let cmd = Command::Batch {
            path: "empty".into(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            jobs: Some(1),
            emit_metrics: None,
            cache_dir: None,
            no_cache: true,
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

    #[test]
    fn port_trace_appends_cache_counters_only_with_a_cache() {
        let cache = tmp_dir("port-cache");
        let cmd = parse_args(&args(&format!(
            "port mp.c --report --trace --cache-dir {cache}"
        )))
        .unwrap();
        let cold = execute(&cmd, MP, "mp").unwrap();
        assert!(cold.contains("cache: 0 hit(s)"), "{cold}");
        let warm = execute(&cmd, MP, "mp").unwrap();
        std::fs::remove_dir_all(&cache).ok();
        assert!(warm.contains("miss(es)"), "{warm}");
        assert!(!warm.contains(" 0 hit(s)"), "warm run must hit: {warm}");
        // Without --cache-dir the trace has no cache line at all.
        let cmd = parse_args(&args("port mp.c --report --trace")).unwrap();
        let out = execute(&cmd, MP, "mp").unwrap();
        assert!(!out.contains("cache:"), "{out}");
    }
}
