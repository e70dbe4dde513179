//! Ablation study over AtoMig's design choices (§3.5, §6).
//!
//! Knocks individual design decisions in and out and reports their effect
//! on detection counts, barrier counts, and simulated performance:
//!
//! 1. **Alias exploration off** — "once atomic, always atomic" disabled:
//!    spin controls are marked but their sticky buddies (e.g. the TAS
//!    unlock store) are not, breaking correctness.
//! 2. **Inlining off** — loops spanning functions stay invisible to the
//!    intra-procedural analysis.
//! 3. **Pointee buddies on** — the coarse type-only alias buckets the
//!    paper rejects: more marks, more overhead.
//! 4. **Compiler-barrier hints on** — the §6 future-work extension.
//! 5. **Flat barrier costs** — a machine where implicit barriers cost as
//!    much as explicit fences: AtoMig's implicit-barrier advantage
//!    disappears, motivating the paper's reliance on Liu et al.'s ratios.
//! 6. **Type-based vs points-to aliasing** — the §3.4 trade-off the paper
//!    decides on scalability grounds: the Andersen-style backend promotes
//!    strictly fewer accesses on aliased handles at identical checker
//!    verdicts, but costs a module-wide fixpoint (timed on Table-3-scale
//!    synthetic codebases).
//!
//! Usage: `ablation [--profile small|large] [--assert-equivalent]`.
//! `--profile` selects the synthetic codebases for the wall-time section
//! (small = Memcached-scale, large = MariaDB + PostgreSQL). With
//! `--assert-equivalent` the binary exits non-zero unless both alias
//! backends reach identical verdicts on every comparison program and
//! points-to promotes strictly fewer accesses on the aliased-handles
//! example (the CI gate).

use atomig_analysis::PointsTo;
use atomig_bench::{factor, render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_core::{AliasMode, AtomigConfig, Pipeline};
use atomig_wmm::{Checker, CostModel, ModelKind};
use atomig_workloads::{ck, compile_baseline, lf_hash, profiles, synth};
use std::time::Instant;

fn port_with(
    src: &str,
    name: &str,
    cfg: AtomigConfig,
) -> (atomig_mir::Module, atomig_core::PortReport) {
    let mut m = atomig_frontc::compile(src, name).expect("compiles");
    let report = Pipeline::new(cfg).port_module(&mut m);
    (m, report)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: ablation [--profile small|large] [--assert-equivalent]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = String::from("small");
    let mut assert_equivalent = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--assert-equivalent" => assert_equivalent = true,
            "--profile" => {
                i += 1;
                match args.get(i) {
                    Some(v) => profile = v.clone(),
                    None => usage_error("--profile needs a value"),
                }
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let wall_profiles: Vec<profiles::AppProfile> = match profile.as_str() {
        "small" => vec![profiles::MEMCACHED],
        "large" => vec![profiles::MARIADB, profiles::POSTGRESQL],
        other => usage_error(&format!(
            "unknown profile `{other}` (accepted: small, large)"
        )),
    };

    // ---- 1 & 2: correctness effect of alias exploration and inlining,
    // on message passing where the spin reads through a getter (a
    // cross-function loop with no explicit annotations anywhere).
    let tas_src = r#"
        int flag;
        int msg;
        int get_flag() { return flag; }
        void writer(long u) {
            msg = 42;
            flag = 1;
        }
        int main() {
            long t = spawn(writer, 0);
            while (get_flag() == 0) { pause(); }
            assert(msg == 42);
            join(t);
            return 0;
        }
    "#;
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("full AtoMig", AtomigConfig::full()),
        (
            "no alias exploration",
            AtomigConfig {
                alias_exploration: false,
                ..AtomigConfig::full()
            },
        ),
        (
            "no inlining",
            AtomigConfig {
                inline: false,
                ..AtomigConfig::full()
            },
        ),
    ] {
        let (m, report) = port_with(tas_src, "mp", cfg);
        let verdict = Checker::new(ModelKind::Arm).check(&m, "main");
        rows.push(vec![
            label.to_string(),
            report.spinloops.to_string(),
            report.implicit_barriers_added.to_string(),
            if verdict.passed() { "Y" } else { "x" }.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Ablation A: correctness of a cross-function MP port",
            &[
                "Configuration",
                "Spinloops",
                "Impl. added",
                "Correct on ARM"
            ],
            &rows,
        )
    );
    println!();

    // ---- 3 & 4: marking aggressiveness — the coarse pointee-typed
    // buckets (the §3.4 alternative the paper rejects) and the §6
    // compiler-barrier hints, on code where each knob bites: a spinloop
    // through a raw int pointer, unrelated int derefs, and a fenced
    // straight-line publication with no loop at all.
    let knob_src = r#"
        int flag_storage;
        int stats_a;
        int stats_b;
        long published; long ready_word;
        void wait_through_pointer(int *w) {
            while (*w == 0) { pause(); }
        }
        int read_stat(int *p) { return *p; }
        void straightline_publish(long v) {
            published = v;
            asm("" ::: "memory");
            ready_word = 1;
        }
        void driver(long n) {
            wait_through_pointer(&flag_storage);
            int x = read_stat(&stats_a) + read_stat(&stats_b);
            straightline_publish(x);
        }
    "#;
    let mut rows = Vec::new();
    for (label, cfg) in [
        (
            "full AtoMig",
            AtomigConfig {
                inline: false,
                ..AtomigConfig::full()
            },
        ),
        (
            "pointee buddies on",
            AtomigConfig {
                inline: false,
                pointee_buddies: true,
                ..AtomigConfig::full()
            },
        ),
        (
            "compiler-barrier hints on",
            AtomigConfig {
                inline: false,
                compiler_barrier_hints: true,
                ..AtomigConfig::full()
            },
        ),
    ] {
        let (_, report) = port_with(knob_src, "knobs", cfg);
        rows.push(vec![
            label.to_string(),
            report.spinloops.to_string(),
            report.barrier_hints.to_string(),
            report.implicit_barriers_added.to_string(),
            report.buddy_marks.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Ablation B: marking aggressiveness (pointer spin + fenced straight-line code)",
            &[
                "Configuration",
                "Spinloops",
                "Hints",
                "Impl. added",
                "Buddy marks"
            ],
            &rows,
        )
    );
    println!(
        "(pointee buckets sweep in the unrelated int derefs; barrier hints catch the          straight-line publication the loop heuristics cannot see)"
    );
    println!();

    // ---- 5: what if implicit barriers were as expensive as explicit
    // ones? (The counterfactual behind the paper's reliance on [48].)
    let ring_tso = ck::ring_perf(200);
    let ring_expert = ck::ring_expert_perf(200);
    let expert = compile_baseline(&ring_expert, "ck_ring_expert");
    let (mut ported, _) = port_with(&ring_tso, "ck_ring", AtomigConfig::full());
    atomig_analysis::inline_module(&mut ported, &Default::default());
    let re = atomig_wmm::run_default(&expert);
    let rp = atomig_wmm::run_default(&ported);
    assert!(re.ok() && rp.ok());
    let mut rows = Vec::new();
    for (label, cm) in [
        ("Armv8 ratios (implicit cheap)", CostModel::ARMV8),
        (
            "flat barriers (implicit = explicit)",
            CostModel::FLAT_BARRIERS,
        ),
    ] {
        rows.push(vec![
            label.to_string(),
            factor(cm.cost(&rp.stats) as f64 / cm.cost(&re.stats) as f64),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Ablation C: ck_ring AtoMig-vs-expert under different barrier cost models",
            &["Cost model", "AtoMig / expert"],
            &rows,
        )
    );
    println!(
        "(with flat barrier costs the implicit-barrier advantage the paper builds on disappears)"
    );
    println!();

    // ---- 6: type-based vs points-to buddy expansion, on programs that
    // exercise the trade-off: Figure-3-shaped spin programs (where both
    // backends must agree), the Figure-7 lf-hash (pointer-heavy, inlined),
    // and the aliased-handles seqlock where type-based keys over-promote
    // a thread-private staging object.
    let seqlock_alias = include_str!("../../../../examples/seqlock_alias.c");
    let lf_hash_src = lf_hash::lf_hash_mc();
    let gallery_mp = r#"
        int flag; int msg;
        void w(long u) { msg = 1; flag = 1; }
        int main() {
          long t = spawn(w, 0);
          while (flag != 1) { }
          assert(msg == 1);
          join(t); return 0;
        }
    "#;
    let gallery_do = r#"
        int flag; int msg;
        void w(long u) { msg = 7; flag = 1; }
        int main() {
          long t = spawn(w, 0);
          int l;
          do { l = flag; } while (l != 1);
          assert(msg == 7);
          join(t); return 0;
        }
    "#;
    let gallery_tas = r#"
        int locked; int hits;
        void worker(long u) {
          while (cmpxchg(&locked, 0, 1) != 0) { }
          hits = hits + 1;
          locked = 0;
        }
        int main() {
          long t = spawn(worker, 0);
          while (cmpxchg(&locked, 0, 1) != 0) { }
          hits = hits + 1;
          locked = 0;
          join(t);
          return 0;
        }
    "#;
    // (name, source, inline) — lf-hash needs inlining for its
    // cross-function loops; the handle demos must keep calls outlined so
    // the aliasing question stays open at analysis time.
    let programs: [(&str, &str, bool); 5] = [
        ("mp_while", gallery_mp, false),
        ("mp_do", gallery_do, false),
        ("tas_lock", gallery_tas, false),
        ("lf_hash", &lf_hash_src, true),
        ("seqlock_alias", seqlock_alias, false),
    ];
    let mut rows = Vec::new();
    let mut equivalent = true;
    let mut seqlock_impl = [0usize; 2];
    for (name, src, inline) in programs {
        let mut verdicts = Vec::new();
        for (mi, mode) in [AliasMode::TypeBased, AliasMode::PointsTo]
            .into_iter()
            .enumerate()
        {
            let cfg = AtomigConfig {
                inline,
                alias_mode: mode,
                ..AtomigConfig::full()
            };
            let (m, report) = port_with(src, name, cfg);
            let verdict = Checker::new(ModelKind::Arm).check(&m, "main");
            if name == "seqlock_alias" {
                seqlock_impl[mi] = report.implicit_barriers_added;
            }
            rows.push(vec![
                name.to_string(),
                mode.name().to_string(),
                report.spinloops.to_string(),
                report.optiloops.to_string(),
                report.implicit_barriers_added.to_string(),
                report.explicit_barriers_added.to_string(),
                if verdict.passed() { "Y" } else { "x" }.to_string(),
            ]);
            verdicts.push(verdict.passed());
        }
        if verdicts[0] != verdicts[1] {
            equivalent = false;
            eprintln!("ablation: verdict mismatch between alias modes on `{name}`");
        }
    }
    print!(
        "{}",
        render_table(
            "Ablation D: type-based vs points-to buddy expansion",
            &[
                "Program",
                "Alias mode",
                "Spin",
                "Opti",
                "Impl. added",
                "Expl. added",
                "Correct on ARM"
            ],
            &rows,
        )
    );
    println!(
        "(same verdict everywhere; on seqlock_alias the points-to backend skips the \
         thread-private staging copy: {} vs {} implicit barriers)",
        seqlock_impl[1], seqlock_impl[0]
    );
    println!();

    // ---- Wall time: what the points-to fixpoint costs at Table-3 scale.
    let mut rec = BenchRecorder::new("ablation");
    rec.put("profile", Value::from(profile.as_str()));
    rec.put(
        "seqlock_implicit",
        Value::obj(vec![
            ("type_based", seqlock_impl[0].into()),
            ("points_to", seqlock_impl[1].into()),
        ]),
    );
    rec.put("verdicts_equivalent", Value::from(equivalent));
    let mut rows = Vec::new();
    for p in &wall_profiles {
        let app = synth::generate_for(p, 100);
        let m0 = atomig_frontc::compile(&app.source, p.name).expect("synthetic app compiles");
        let t = Instant::now();
        let pt = PointsTo::analyze(&m0);
        let pt_time = t.elapsed();
        for mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
            let cfg = AtomigConfig {
                alias_mode: mode,
                ..AtomigConfig::full()
            };
            let mut m = m0.clone();
            let t = Instant::now();
            let report = Pipeline::new(cfg).port_module(&mut m);
            let port_time = t.elapsed();
            rec.put(
                &format!("{}_{}_port_nanos", p.name, mode.name()),
                Value::from(port_time.as_nanos()),
            );
            rec.phases(
                &format!("{}_{}_phases", p.name, mode.name()),
                &report.metrics,
            );
            rows.push(vec![
                p.name.to_string(),
                app.sloc.to_string(),
                mode.name().to_string(),
                report.implicit_barriers_added.to_string(),
                report.explicit_barriers_added.to_string(),
                format!("{port_time:.1?}"),
            ]);
        }
        println!(
            "{}: points-to solved {} cells / {} constraints in {} iterations / {} passes ({:.1?})",
            p.name,
            pt.stats.cells,
            pt.stats.constraints,
            pt.stats.iterations,
            pt.stats.passes,
            pt_time
        );
    }
    print!(
        "{}",
        render_table(
            &format!("Ablation E: alias-backend wall time ({profile} profile)"),
            &[
                "Profile",
                "SLOC",
                "Alias mode",
                "Impl.",
                "Expl.",
                "Port time"
            ],
            &rows,
        )
    );

    let path = rec.write().expect("write bench record");
    println!("wrote {path}");

    if assert_equivalent {
        assert!(
            equivalent,
            "alias backends must reach identical checker verdicts"
        );
        assert!(
            seqlock_impl[1] < seqlock_impl[0],
            "points-to must promote strictly fewer accesses than type-based \
             on seqlock_alias ({} vs {})",
            seqlock_impl[1],
            seqlock_impl[0]
        );
        println!("\nequivalence gate: OK (identical verdicts, points-to strictly tighter)");
    }
}
