//! The port report's censuses are not walks of their own: the
//! before-census comes from the pipeline's one sweep over the functions
//! (or, when inlining changes the module first, one walk before it), and
//! the after-census is derived from the analyzed module's census and the
//! transform's counts. This checks both against a real walk, of the
//! unported and of the ported module, for each `examples/*.c` and the
//! five Table 3 profiles at 1:100 (seeds 1 and 7), under both alias
//! backends, with inlining on and off.

use atomig_core::{AliasMode, AtomigConfig, BarrierCensus, Pipeline};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::path::Path;

fn inputs() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("example readable"))
        })
        .collect();
    assert!(!out.is_empty());
    for seed in [1, 7] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 100)
            });
            out.push((format!("{} seed {seed}", p.name), app.source));
        }
    }
    out
}

/// Checks the before-census too, against a walk of the unported module.
#[test]
fn derived_after_census_matches_a_walk() {
    for (name, src) in inputs() {
        let m = atomig_frontc::compile(&src, &name).expect("input compiles");
        let unported = BarrierCensus::of(&m);
        for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
            for inline in [true, false] {
                let cfg = AtomigConfig {
                    alias_mode: alias,
                    inline,
                    ..AtomigConfig::full()
                };
                let mut ported = m.clone();
                let report = Pipeline::new(cfg).port_module(&mut ported);
                assert_eq!(
                    report.before,
                    unported,
                    "{name}, {} alias, inline {inline}: before",
                    alias.name()
                );
                assert_eq!(
                    report.after,
                    BarrierCensus::of(&ported),
                    "{name}, {} alias, inline {inline}",
                    alias.name()
                );
            }
        }
    }
}
