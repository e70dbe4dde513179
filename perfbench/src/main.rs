//! Runs one benchmark workload and prints its result as the last line of
//! standard output:
//!
//! ```text
//! atomig-perfbench --workload <port-corpus|lint-corpus|check-clients>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics (`setup_s`,
//! `round_s`, `peak_rss_mib`). With `--trace 1` it holds the per-layer
//! metrics of a separate traced run, and the spans are written to
//! `perfbench/traces/<workload>-seed<n>.jsonl`.

use atomig_core::json::Value;
use atomig_perfbench::trace::Tracer;
use atomig_perfbench::{median, peak_rss_mib, Bench, Ops, Scale, Workload, JOBS};
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("a positive number of seconds")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
fn metric(value: f64, unit: &str) -> Value {
    Value::obj(vec![("value", value.into()), ("unit", unit.into())])
}

/// Set-ups timed after each untraced round. Spreading the samples over
/// the whole run, like the rounds, keeps `setup_s` from hanging on how
/// fast the host happened to be in its first fraction of a second.
const SETUPS_PER_ROUND: usize = 10;

/// Set-up repetitions of the traced run, each traced as its own round.
const TRACED_SETUPS: u32 = 5;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        traced_metrics(&args)
    } else {
        end_to_end_metrics(&args)
    };
    let (metrics, ops) = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for f in &ops.failures {
        eprintln!("failed: {f}");
    }
    let result = Value::obj(vec![
        ("correct", (ops.failed == 0).into()),
        ("attempted", ops.attempted.into()),
        ("failed", ops.failed.into()),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{result}");
}

type Metrics = Vec<(&'static str, Value)>;

/// The untraced run: rounds until starting another would overrun the
/// budget (at least one), each followed by a few timed set-ups. The
/// high-water mark is read after the first round: one pass over the
/// workload, as a CLI process makes it. Later rounds would only add the
/// allocator fragmentation of a long-lived process.
fn end_to_end_metrics(args: &Args) -> Result<(Metrics, Ops), String> {
    let setup = |t: &mut Tracer| Bench::timed_setup(args.workload, Scale::BENCH, args.seed, t);
    let mut tracer = Tracer::new(false);
    let (mut bench, first_setup) = setup(&mut tracer)?;
    let mut setups = vec![first_setup];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut rss = None;
    loop {
        let took = bench.timed_round(JOBS, &mut tracer);
        rounds.push(took);
        if rounds.len() == 1 {
            rss = peak_rss_mib();
        }
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(setup(&mut tracer)?.1);
        }
        if start.elapsed() + Duration::from_secs_f64(took) > budget {
            break;
        }
    }
    let rss = rss.ok_or("cannot read the peak resident set size")?;
    let (setup_s, round_s) = (median(&setups), median(&rounds));
    eprintln!(
        "{}: setup median {setup_s:.4} s of {}, round median {round_s:.4} s of {rounds:.3?}, \
         peak {rss:.1} MiB",
        args.workload.name(),
        setups.len(),
    );
    let metrics = vec![
        ("setup_s", metric(setup_s, "s")),
        ("round_s", metric(round_s, "s")),
        ("peak_rss_mib", metric(rss, "MiB")),
    ];
    Ok((metrics, bench.ops))
}

/// The traced run. Set-up is traced [`TRACED_SETUPS`] times. Then
/// untraced and traced rounds alternate for the budget, so both sides
/// see the same host and the untraced median is the reference for the
/// tracing overhead. One traced round at one job follows, so each
/// parallel layer's gain or cost shows.
fn traced_metrics(args: &Args) -> Result<(Metrics, Ops), String> {
    let mut tracer = Tracer::new(true);
    let mut bench = None;
    for rep in 0..TRACED_SETUPS {
        tracer.set_round(rep);
        drop(bench.take());
        bench = Some(Bench::setup(
            args.workload,
            Scale::BENCH,
            args.seed,
            &mut tracer,
        )?);
    }
    let mut bench = bench.expect("set-up ran");
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        untraced.push(bench.timed_round(JOBS, &mut plain));
        tracer.set_round(TRACED_SETUPS + traced.len() as u32);
        let took = bench.timed_round(JOBS, &mut tracer);
        traced.push(took);
        if start.elapsed() + Duration::from_secs_f64(2.0 * took) > budget {
            break;
        }
    }
    let mut one_job = Tracer::new(true);
    bench.timed_round(1, &mut one_job);

    let secs = |t: &Tracer, name: &str| median(&t.seconds_by_round(name));
    let count = |name: &str| tracer.last_count(name) as f64;
    let frontc_s: f64 = ["frontc.lex", "frontc.parse", "frontc.lower", "mir.verify"]
        .iter()
        .map(|n| secs(&tracer, n))
        .sum();
    let port_s = secs(&tracer, "core.port");
    let states = count("wmm.states");
    let revisits = count("wmm.revisits");
    let (untraced_s, traced_s) = (median(&untraced), median(&traced));

    let mut out: Metrics = Vec::new();
    for (key, span) in [
        ("workloads.generate_s", "workloads.generate"),
        ("frontc.lex_s", "frontc.lex"),
        ("frontc.parse_s", "frontc.parse"),
        ("frontc.lower_s", "frontc.lower"),
        ("mir.verify_s", "mir.verify"),
        ("core.port_s", "core.port"),
        ("core.inline_s", "core.inline"),
        ("core.detect_s", "core.detect"),
        ("core.alias_build_s", "core.alias_build"),
        ("core.transform_s", "core.transform"),
        ("core.port_unattributed_s", "core.port_unattributed"),
        ("mir.print_s", "mir.print"),
        ("core.lint_s", "core.lint"),
        ("analysis.pointsto_solve_s", "analysis.pointsto_solve"),
        ("core.lint_dry_run_s", "core.lint_dry_run"),
        ("core.lint_race_candidate_s", "core.lint_race_candidate"),
        ("wmm.check_s", "wmm.check"),
    ] {
        out.push((key, metric(secs(&tracer, span), "s")));
    }
    for (key, span) in [
        ("core.detect_jobs1_s", "core.detect"),
        ("analysis.pointsto_solve_jobs1_s", "analysis.pointsto_solve"),
        ("core.lint_dry_run_jobs1_s", "core.lint_dry_run"),
        ("wmm.check_jobs1_s", "wmm.check"),
    ] {
        out.push((key, metric(secs(&one_job, span), "s")));
    }
    for key in [
        "workloads.sloc",
        "frontc.tokens",
        "mir.insts",
        "core.spinloops",
        "core.optiloops",
        "core.barriers_implicit",
        "core.barriers_explicit",
        "mir.print_bytes",
        "analysis.pointsto_iterations",
        "analysis.pointsto_constraints",
        "analysis.pointsto_cells",
        "core.lint_findings",
        "wmm.states",
        "wmm.executions",
        "wmm.revisits",
        "wmm.peak_tracked",
    ] {
        out.push((key, metric(count(key), "count")));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.push((
        "wmm.revisit_ratio",
        metric(ratio(revisits, states + revisits), "ratio"),
    ));
    out.push((
        "core.port_over_frontc_x",
        metric(ratio(frontc_s + port_s, frontc_s), "x"),
    ));
    out.push(("bench.round_untraced_s", metric(untraced_s, "s")));
    out.push(("bench.round_traced_s", metric(traced_s, "s")));
    out.push((
        "bench.trace_overhead_pct",
        metric(100.0 * ratio(traced_s - untraced_s, untraced_s), "%"),
    ));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    for (suffix, t) in [("", &tracer), ("-jobs1", &one_job)] {
        let path = dir.join(format!("{stem}{suffix}.jsonl"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    Ok((out, bench.ops))
}
