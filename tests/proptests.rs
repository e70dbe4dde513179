//! Seeded generative tests over the whole stack.
//!
//! Formerly written with `proptest`; rewritten as deterministic seeded
//! loops over [`atomig_testutil::Rng`] so the suite builds with no
//! external dependencies. Each property runs a fixed number of cases
//! derived from a fixed seed — failures are reproducible directly from
//! the case index printed in the assertion message.

use atomig_core::{lint_module, AliasMode, AtomigConfig, BarrierCensus, LintRule, Pipeline};
use atomig_testutil::Rng;
use atomig_workloads::synth::{generate, GenConfig};

/// A random arithmetic expression with its expected (wrapping) value —
/// the oracle for the frontend+interpreter differential test.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self) -> i64 {
        match self {
            Expr::Lit(v) => *v,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            Expr::And(a, b) => a.eval() & b.eval(),
            Expr::Or(a, b) => a.eval() | b.eval(),
            Expr::Xor(a, b) => a.eval() ^ b.eval(),
        }
    }

    fn to_c(&self) -> String {
        match self {
            Expr::Lit(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
            Expr::Lit(v) => v.to_string(),
            Expr::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            Expr::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            Expr::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            Expr::And(a, b) => format!("({} & {})", a.to_c(), b.to_c()),
            Expr::Or(a, b) => format!("({} | {})", a.to_c(), b.to_c()),
            Expr::Xor(a, b) => format!("({} ^ {})", a.to_c(), b.to_c()),
        }
    }
}

fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_ratio(1, 4) {
        return Expr::Lit(rng.gen_range(-1_000_000..1_000_000));
    }
    let a = Box::new(gen_expr(rng, depth - 1));
    let b = Box::new(gen_expr(rng, depth - 1));
    match rng.gen_usize(6) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        3 => Expr::And(a, b),
        4 => Expr::Or(a, b),
        _ => Expr::Xor(a, b),
    }
}

fn gen_config(rng: &mut Rng) -> GenConfig {
    GenConfig {
        mp_waiters: rng.gen_range(1..6) as u32,
        tas_locks: rng.gen_range(1..5) as u32,
        seqlocks: rng.gen_range(0..4) as u32,
        atomics: rng.gen_range(0..6) as u32,
        volatiles: rng.gen_range(0..4) as u32,
        asm_fences: rng.gen_range(0..3) as u32,
        decoys: rng.gen_range(0..6) as u32,
        plain_funcs: rng.gen_range(0..12) as u32,
        seed: rng.next_u64(),
    }
}

/// Random printable-ASCII garbage (plus newlines) for totality fuzzing.
fn gen_garbage(rng: &mut Rng) -> String {
    let len = rng.gen_usize(201);
    (0..len)
        .map(|_| {
            if rng.gen_ratio(1, 16) {
                '\n'
            } else {
                (0x20 + rng.gen_usize(0x5f) as u8) as char
            }
        })
        .collect()
}

/// Frontend + interpreter differential test: MiniC arithmetic agrees
/// with a Rust-side oracle on wrapping i64 semantics.
#[test]
fn interpreter_matches_arithmetic_oracle() {
    let mut rng = Rng::new(0xA217);
    for case in 0..48 {
        let e = gen_expr(&mut rng, 4);
        let expected = e.eval();
        let src = format!(
            "int main() {{ long v = {}; print(v); return 0; }}",
            e.to_c()
        );
        let m = atomig_frontc::compile(&src, "arith").expect("compiles");
        let r = atomig_wmm::run_default(&m);
        assert!(r.ok(), "case {case}: {:?}", r.failure);
        assert_eq!(r.output, vec![expected], "case {case}: {src}");
    }
}

/// Any generated codebase survives the full round trip: compile,
/// verify, print, re-parse, re-print to a fixpoint.
#[test]
fn mir_textual_roundtrip() {
    let mut rng = Rng::new(0xB0B2);
    for case in 0..24 {
        let cfg = gen_config(&mut rng);
        let app = generate(cfg);
        let m = atomig_frontc::compile(&app.source, "synth").expect("compiles");
        atomig_mir::verify_module(&m).expect("verifies");
        // Parsing alpha-renames instruction ids into textual order, so
        // the fixpoint is reached after one normalization round.
        let text1 = atomig_mir::printer::print_module(&m);
        let m2 = atomig_mir::parse_module(&text1).expect("reparses");
        atomig_mir::verify_module(&m2).expect("reparse verifies");
        assert_eq!(m2.inst_count(), m.inst_count(), "case {case}");
        let text2 = atomig_mir::printer::print_module(&m2);
        let m3 = atomig_mir::parse_module(&text2).expect("normal form reparses");
        assert_eq!(atomig_mir::printer::print_module(&m3), text2, "case {case}");
        assert_eq!(m3.globals, m2.globals);
        assert_eq!(m3.structs, m2.structs);
    }
}

fn assert_pipeline_sound(cfg: GenConfig, what: &str) {
    let app = generate(cfg);
    let mut m = atomig_frontc::compile(&app.source, "synth").expect("compiles");
    let before = BarrierCensus::of(&m);
    let mut pcfg = AtomigConfig::full();
    pcfg.inline = false;
    let report = Pipeline::new(pcfg.clone()).port_module(&mut m);
    atomig_mir::verify_module(&m).expect("ported module verifies");
    assert_eq!(
        report.spinloops,
        cfg.expected_spinloops() as usize,
        "{what}: {cfg:?}"
    );
    assert_eq!(
        report.optiloops,
        cfg.expected_optiloops() as usize,
        "{what}: {cfg:?}"
    );
    let after = BarrierCensus::of(&m);
    assert!(after.implicit >= before.implicit, "{what}");
    assert!(after.explicit >= before.explicit, "{what}");
    // Idempotence.
    let snapshot = m.clone();
    let again = Pipeline::new(pcfg.clone()).port_module(&mut m);
    assert_eq!(again.implicit_barriers_added, 0, "{what}");
    assert_eq!(again.explicit_barriers_added, 0, "{what}");
    assert_eq!(m, snapshot, "{what}");
    // Plan agreement: the lint audits the marks the port applies, so a
    // ported module has no fence-placement finding under either backend.
    for mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let mut mcfg = pcfg.clone();
        mcfg.alias_mode = mode;
        let mut ported = atomig_frontc::compile(&app.source, "synth").expect("compiles");
        Pipeline::new(mcfg.clone()).port_module(&mut ported);
        let audit = lint_module(&ported, &mcfg);
        assert_eq!(
            audit.count(LintRule::FencePlacement),
            0,
            "{what} ({}): {cfg:?}\n{audit}",
            mode.name()
        );
    }
}

/// Porting any generated codebase: finds exactly the planted
/// patterns, never decreases the barrier census, verifies, and is
/// idempotent.
#[test]
fn pipeline_is_sound_on_generated_codebases() {
    let mut rng = Rng::new(0xC3D1);
    for case in 0..24 {
        let cfg = gen_config(&mut rng);
        assert_pipeline_sound(cfg, &format!("case {case}"));
    }
}

/// The shrunk case proptest recorded in `tests/proptests.proptest-regressions`
/// before the suite went dependency-free.
///
/// Root cause of the "seed tests failing" state this case was found in:
/// the workspace declared registry dependencies (`rand`, `proptest`,
/// `criterion`) with no lockfile or vendored sources, so in an offline
/// environment `cargo build` itself failed and every test failed with it.
/// The shrunk `GenConfig` is the *smallest* generated program — one MP
/// waiter spin plus one TAS lock, no decoys masking them — i.e. the first
/// case any run reaches once shrinking kicks in, which is why it is the one
/// the regression file recorded. Against the current detector it passes:
/// the MP wait loop and the TAS acquire loop (whose control is the cmpxchg
/// in the loop *condition*, an RMW rather than a load) are both classified,
/// `expected_spinloops() == 2` holds, and the port is idempotent. Pinned
/// here deterministically so any future detector change that miscounts the
/// minimal pattern pair fails immediately, without generative search.
#[test]
fn pipeline_regression_minimal_mp_plus_tas() {
    assert_pipeline_sound(
        GenConfig {
            mp_waiters: 1,
            tas_locks: 1,
            seqlocks: 0,
            atomics: 0,
            volatiles: 0,
            asm_fences: 0,
            decoys: 0,
            plain_funcs: 0,
            seed: 0,
        },
        "shrunk regression",
    );
}

/// The frontend never panics on arbitrary input: it returns an error
/// or a verified module.
#[test]
fn frontend_total_on_garbage() {
    let mut rng = Rng::new(0xD00D);
    for case in 0..256 {
        let src = gen_garbage(&mut rng);
        match atomig_frontc::compile(&src, "fuzz") {
            Ok(m) => {
                atomig_mir::verify_module(&m).expect("accepted module verifies");
            }
            Err(e) => {
                assert!(!e.is_empty(), "case {case}");
            }
        }
    }
}

/// The MIR text parser never panics on arbitrary input.
#[test]
fn mir_parser_total_on_garbage() {
    let mut rng = Rng::new(0xE11E);
    for _ in 0..256 {
        let src = gen_garbage(&mut rng);
        let _ = atomig_mir::parse_module(&src);
    }
}

/// Inlining preserves behaviour: a deterministic program prints the
/// same outputs before and after `inline_module` (differential test
/// against the interpreter).
#[test]
fn inlining_preserves_behaviour() {
    let mut rng = Rng::new(0xF00F);
    for case in 0..12 {
        let plain = rng.gen_range(2..6) as u32;
        let app = generate(GenConfig {
            mp_waiters: 1,
            tas_locks: 1,
            seqlocks: 1,
            atomics: 2,
            volatiles: 1,
            asm_fences: 1,
            decoys: 2,
            plain_funcs: plain,
            seed: rng.next_u64(),
        });
        let n_seeds = 1 + rng.gen_usize(4);
        let mut driver = String::from("int main() {\n");
        for i in 0..n_seeds {
            let s = rng.gen_range(0..1000);
            let f = i as u32 % plain;
            driver.push_str(&format!("    print(compute_{f}({s}, {}));\n", s * 3 + 1));
        }
        driver.push_str("    return 0;\n}\n");
        let src = format!("{}\n{}", app.source, driver);
        let m1 = atomig_frontc::compile(&src, "diff").expect("compiles");
        let r1 = atomig_wmm::run_default(&m1);
        assert!(r1.ok(), "case {case}: {:?}", r1.failure);

        let mut m2 = m1.clone();
        let inlined =
            atomig_analysis::inline_module(&mut m2, &atomig_analysis::InlineOptions::default());
        atomig_mir::verify_module(&m2).expect("inlined module verifies");
        let r2 = atomig_wmm::run_default(&m2);
        assert!(r2.ok(), "case {case}: {:?}", r2.failure);
        assert_eq!(
            &r1.output, &r2.output,
            "case {case}: inlined {inlined} call sites"
        );
    }
}

/// The AtoMig transformation preserves single-threaded behaviour:
/// barriers change ordering constraints, never values.
#[test]
fn porting_preserves_sequential_behaviour() {
    let mut rng = Rng::new(0xAB1E);
    for case in 0..12 {
        let app = generate(GenConfig {
            mp_waiters: 1,
            tas_locks: 1,
            seqlocks: 1,
            atomics: 1,
            volatiles: 1,
            asm_fences: 1,
            decoys: 2,
            plain_funcs: 3,
            seed: rng.next_u64(),
        });
        let n_seeds = 1 + rng.gen_usize(3);
        let mut driver = String::from("int main() {\n");
        for i in 0..n_seeds {
            let s = rng.gen_range(0..1000);
            let f = i % 3;
            driver.push_str(&format!("    print(compute_{f}({s}, {s}));\n"));
            driver.push_str(&format!("    tas_update_0({s});\n"));
            driver.push_str("    sl_write_0(7);\n    print(sl_read_0());\n");
        }
        driver.push_str("    return 0;\n}\n");
        let src = format!("{}\n{}", app.source, driver);
        let original = atomig_frontc::compile(&src, "port-diff").expect("compiles");
        let r1 = atomig_wmm::run_default(&original);
        assert!(r1.ok(), "case {case}: {:?}", r1.failure);

        let mut ported = original.clone();
        Pipeline::new(AtomigConfig::full()).port_module(&mut ported);
        let r2 = atomig_wmm::run_default(&ported);
        assert!(r2.ok(), "case {case}: {:?}", r2.failure);
        assert_eq!(&r1.output, &r2.output, "case {case}");
    }
}
