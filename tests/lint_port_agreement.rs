//! The lint audits with the port's own rewriter: on every module, the
//! fence-placement findings of the original name exactly the barriers
//! `port_module` adds (one `; `-separated message part per SC upgrade or
//! inserted fence), and the ported module audits clean. Inlining is off,
//! so both sides plan the same module; each module runs under both alias
//! backends.

use atomig_core::{lint_module, AliasMode, AtomigConfig, LintRule, Pipeline};
use atomig_mir::Module;
use atomig_workloads::synth::{generate, GenConfig};
use atomig_workloads::{ck, lf_hash, profiles};

/// Fence-placement message parts: one per edit the transform would make.
fn pending_edits(m: &Module, config: &AtomigConfig) -> usize {
    let report = lint_module(m, config);
    report
        .lints
        .iter()
        .filter(|l| l.rule == LintRule::FencePlacement)
        .map(|l| l.message.split("; ").count())
        .sum()
}

fn assert_agreement(name: &str, m: &Module) {
    for mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let config = AtomigConfig {
            alias_mode: mode,
            inline: false,
            ..AtomigConfig::full()
        };
        let audited = pending_edits(m, &config);
        let mut ported = m.clone();
        let report = Pipeline::new(config.clone()).port_module(&mut ported);
        let added = report.implicit_barriers_added + report.explicit_barriers_added;
        assert!(added > 0, "{name} ({}): nothing to port", mode.name());
        assert_eq!(
            audited,
            added,
            "{name} ({}): lint reports {audited} pending edits, port adds {added} barriers",
            mode.name()
        );
        assert_eq!(
            pending_edits(&ported, &config),
            0,
            "{name} ({}): the ported module still has fence-placement findings",
            mode.name()
        );
    }
}

fn compile(src: &str, name: &str) -> Module {
    atomig_frontc::compile(src, name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn lint_and_port_agree_on_the_examples() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "examples/*.c: {paths:?}");
    for path in paths {
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        assert_agreement(&name, &compile(&src, &name));
    }
}

#[test]
fn lint_and_port_agree_on_the_table2_clients() {
    let clients = [
        ("ck_ring", ck::ring_mc()),
        ("ck_spinlock_cas", ck::spinlock_cas_mc()),
        ("ck_spinlock_mcs", ck::spinlock_mcs_mc()),
        ("ck_sequence", ck::sequence_mc()),
        ("lf_hash", lf_hash::lf_hash_mc()),
    ];
    for (name, src) in clients {
        assert_agreement(name, &compile(&src, name));
    }
}

#[test]
fn lint_and_port_agree_on_the_table3_profiles() {
    for profile in profiles::all() {
        for seed in [1, 7] {
            let app = generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&profile, 100)
            });
            let name = format!("{}_seed{seed}", profile.name);
            assert_agreement(&name, &compile(&app.source, &name));
        }
    }
}
