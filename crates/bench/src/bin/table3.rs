//! Regenerates Table 3: AtoMig statistics for large applications.
//!
//! Usage: `table3 [--scale N]`. Each application is a synthetic MiniC
//! codebase generated at 1:N of the real pattern census (default 100;
//! see `atomig_workloads::synth`). "Build" is compiling MiniC to MIR;
//! "AtoMig" is build + the full porting pipeline, mirroring the paper's
//! build-system integration (§3.1). Both are timed after an untimed
//! compile of the same profile (it feeds the naïve port), so they run in
//! a heap that has already grown to the module's size. Detected pattern
//! counts are reported at generation scale; multiply by N to compare
//! against the paper column (also shown). "MIR B/inst" is the
//! instruction storage of the built and the ported module, per
//! instruction. A line after the table gives the process's peak resident
//! set (`VmHWM`). Only one module is live at a time, so at 1:1 that peak
//! is the largest profile's. Exits 1 when a detected census differs from
//! the generator's ground truth, 2 on a usage error.

#![forbid(unsafe_code)]

use atomig_bench::{render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_core::{naive_port, AtomigConfig, Pipeline};
use atomig_mir::{Block, Inst, Module};
use atomig_workloads::{profiles, synth};
use std::mem::size_of;
use std::time::Instant;

/// The `--scale` argument: generate at 1:N (default 100).
fn scale_arg() -> u32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => 100,
        [flag, n] if flag == "--scale" => match n.parse() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!("--scale needs a positive integer, got `{n}`")),
        },
        _ => usage_error(&format!("unexpected arguments {args:?}")),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: table3 [--scale N]");
    std::process::exit(2)
}

/// This process's peak resident set in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file does not exist.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Block capacities × `size_of::<Inst>()` plus blocks × `size_of::<Block>()`,
/// over the instruction count. Heap data an instruction owns (GEP indices,
/// call arguments) is not counted.
fn mir_bytes_per_inst(m: &Module) -> f64 {
    let blocks = m.funcs.iter().flat_map(|f| &f.blocks);
    let bytes: usize = blocks
        .map(|b| size_of::<Block>() + b.insts.capacity() * size_of::<Inst>())
        .sum();
    bytes as f64 / m.inst_count().max(1) as f64
}

fn main() {
    let scale = scale_arg();
    let mut rec = BenchRecorder::new("table3");
    let mut rows = Vec::new();
    let mut census_ok = true;
    for profile in &profiles::all() {
        let app = synth::generate_for(profile, scale);

        let compile = || {
            atomig_frontc::compile(&app.source, profile.name).expect("generated source compiles")
        };

        // Naïve port (for the last column), on an untimed compile: the
        // first compile in a process grows the heap, and the timed ones
        // below reuse it. Only one module is live at a time.
        let mut naive = compile();
        naive_port(&mut naive);
        let naive_census = atomig_core::BarrierCensus::of(&naive);
        drop(naive);

        // Original build: frontend only.
        let t0 = Instant::now();
        let module = compile();
        let build_time = t0.elapsed();
        let built_bytes = mir_bytes_per_inst(&module);
        drop(module);

        // AtoMig build: frontend + the porting pipeline (inlining off so
        // the census is exact; the paper reports statically distinct
        // patterns).
        let t1 = Instant::now();
        let mut ported = compile();
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let report = Pipeline::new(cfg).port_module(&mut ported);
        let atomig_time = t1.elapsed();

        rec.put(
            &format!("{}_build_nanos", profile.name),
            Value::from(build_time.as_nanos()),
        );
        rec.put(
            &format!("{}_atomig_nanos", profile.name),
            Value::from(atomig_time.as_nanos()),
        );
        rec.phases(&format!("{}_phases", profile.name), &report.metrics);
        rec.census(&format!("{}_census_before", profile.name), &report.before);
        rec.census(&format!("{}_census_after", profile.name), &report.after);
        let bytes = [built_bytes, mir_bytes_per_inst(&ported)];
        let key = format!("{}_mir_bytes_per_inst_built_ported", profile.name);
        rec.put(&key, Value::Arr(bytes.map(Value::from).to_vec()));
        let found = (report.spinloops as u32, report.optiloops as u32);
        let want = (
            app.config.expected_spinloops(),
            app.config.expected_optiloops(),
        );
        if found != want {
            eprintln!(
                "table3: {}: detected {found:?} spin/optiloops, generator placed {want:?}",
                profile.name
            );
            census_ok = false;
        }

        rows.push(vec![
            profile.name.to_string(),
            format!("{} (paper {})", app.sloc, profile.sloc),
            format!("{} (paper {})", report.spinloops, profile.spinloops),
            format!("{} (paper {})", report.optiloops, profile.optiloops),
            format!("{:.2?}", build_time),
            format!(
                "{:.2?} ({:.1}x)",
                atomig_time,
                atomig_time.as_secs_f64() / build_time.as_secs_f64().max(1e-9)
            ),
            format!("{}/{}", report.before.explicit, report.before.implicit),
            format!("{}/{}", report.after.explicit, report.after.implicit),
            naive_census.implicit.to_string(),
            format!("{:.1}/{:.1}", bytes[0], bytes[1]),
        ]);
    }

    print!(
        "{}",
        render_table(
            &format!(
                "Table 3: AtoMig statistics for large applications (synthetic, 1:{scale} scale)"
            ),
            &[
                "Application",
                "SLOC",
                "#Spinloops",
                "#Optiloops",
                "Build",
                "AtoMig build",
                "Orig BE/BI",
                "AtoMig BE/BI",
                "Naive BI",
                "MIR B/inst",
            ],
            &rows,
        )
    );
    println!(
        "(BE = explicit barriers, BI = implicit barriers; counts at 1:{scale} scale — multiply by {scale} to compare with the paper)"
    );
    let peak = peak_rss_mib();
    match peak {
        Some(mib) => println!("peak RSS: {mib:.1} MiB"),
        None => println!("peak RSS: n/a"),
    }
    rec.put("scale", Value::from(scale));
    rec.put("peak_rss_mib", peak.map_or(Value::Null, Value::from));
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
    if !census_ok {
        std::process::exit(1);
    }
}
