//! Regenerates Table 3: AtoMig statistics for large applications.
//!
//! Each application is a synthetic MiniC codebase generated at 1:100 of
//! the real pattern census (see `atomig_workloads::synth`). "Build" is
//! compiling MiniC to MIR; "AtoMig" is build + the full porting pipeline,
//! mirroring the paper's build-system integration (§3.1). Detected
//! pattern counts are reported at generation scale; multiply by 100 to
//! compare against the paper column (also shown).

use atomig_bench::{render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_core::{naive_port, AtomigConfig, Pipeline};
use atomig_workloads::{profiles, synth};
use std::time::Instant;

const SCALE: u32 = 100;

fn main() {
    let mut rec = BenchRecorder::new("table3");
    let mut rows = Vec::new();
    for profile in &profiles::all() {
        let app = synth::generate_for(profile, SCALE);

        // Original build: frontend only.
        let t0 = Instant::now();
        let module =
            atomig_frontc::compile(&app.source, profile.name).expect("generated source compiles");
        let build_time = t0.elapsed();

        // AtoMig build: frontend + the porting pipeline (inlining off so
        // the census is exact; the paper reports statically distinct
        // patterns).
        let t1 = Instant::now();
        let mut ported =
            atomig_frontc::compile(&app.source, profile.name).expect("generated source compiles");
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let report = Pipeline::new(cfg).port_module(&mut ported);
        let atomig_time = t1.elapsed();

        // Naïve port (for the last column).
        let mut naive = module.clone();
        naive_port(&mut naive);
        let naive_census = atomig_core::BarrierCensus::of(&naive);

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
        ]);
    }

    print!(
        "{}",
        render_table(
            &format!(
                "Table 3: AtoMig statistics for large applications (synthetic, 1:{SCALE} scale)"
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
            ],
            &rows,
        )
    );
    println!(
        "(BE = explicit barriers, BI = implicit barriers; counts at 1:{SCALE} scale — multiply by {SCALE} to compare with the paper)"
    );
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}
