//! Decision-ledger provenance on the aliasing stress test.
//!
//! `examples/seqlock_alias.c` exercises every cause the ledger can record:
//! the seqlock loop in `read_snapshot` seeds spin-control and
//! optimistic-control decisions, sticky-buddy expansion drags the writer's
//! accesses along, and a lightly annotated tail covers the §3.2 entry
//! point. Each chain must be reconstructible under both alias backends,
//! and with an injected deterministic clock the whole report — including
//! the JSONL metrics stream — must be byte-comparable across runs.

use atomig_core::trace::{
    decision_event, meta_event, phase_event, solver_event, summary_event, to_jsonl,
};
use atomig_core::{AliasMode, AtomigConfig, Clock, Pipeline, PortReport};
use atomig_testutil::ManualClock;

const SEQLOCK: &str = include_str!("../../../examples/seqlock_alias.c");

/// The example plus an annotated tail: appended at the end so the
/// original line numbers (`!30` = writer epoch bump, `!41` = reader
/// epoch load) are unchanged.
fn annotated_source() -> String {
    format!(
        "{SEQLOCK}\nvolatile int vflag;\n_Atomic int aflag;\n\
         void poke(long u) {{ vflag = 1; aflag = 2; }}\n"
    )
}

fn port(alias: AliasMode, clock: Option<Clock>) -> PortReport {
    let mut m = atomig_frontc::compile(&annotated_source(), "seqlock_alias").unwrap();
    let mut cfg = AtomigConfig::full();
    cfg.alias_mode = alias;
    // Keep original function names in the ledger, as `atomig explain` does.
    cfg.inline = false;
    if let Some(c) = clock {
        cfg.clock = c;
    }
    Pipeline::new(cfg).port_module(&mut m)
}

#[test]
fn all_four_provenance_kinds_are_reconstructible() {
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let report = port(alias, None);
        let ledger = &report.ledger;
        for kind in [
            "annotation",
            "spin-control",
            "optimistic-control",
            "sticky-buddy",
        ] {
            assert!(
                ledger.decisions().iter().any(|d| d.cause.kind() == kind),
                "{}: no {kind} decision in\n{}",
                alias.name(),
                ledger.render_tree("seqlock_alias")
            );
        }
    }
}

#[test]
fn buddy_chains_end_at_their_spin_control_seed() {
    for alias in [AliasMode::TypeBased, AliasMode::PointsTo] {
        let report = port(alias, None);
        let buddies: Vec<_> = report
            .ledger
            .decisions()
            .iter()
            .filter(|d| d.cause.kind() == "sticky-buddy")
            .collect();
        assert!(!buddies.is_empty(), "{}: no buddy upgrades", alias.name());
        // The writer's epoch bump on line 30 is never a control itself;
        // it must be dragged in by the reader's seed.
        let epoch_bump = buddies
            .iter()
            .find(|d| d.span == 30)
            .unwrap_or_else(|| panic!("{}: line 30 not buddy-upgraded", alias.name()));
        let chain = report.ledger.chain(epoch_bump, "seqlock_alias");
        let joined = chain.join("\n");
        assert!(chain.len() >= 2, "chain too short:\n{joined}");
        assert!(joined.contains("seqlock_alias.c:!30"), "{joined}");
        assert!(joined.contains("alias class"), "{joined}");
        assert!(joined.contains(alias.name()), "{joined}");
        assert!(joined.contains("spin-control"), "{joined}");
        assert!(joined.contains("read_snapshot"), "{joined}");
    }
}

#[test]
fn annotation_decisions_name_their_qualifier() {
    let report = port(AliasMode::PointsTo, None);
    let texts: Vec<String> = report
        .ledger
        .decisions()
        .iter()
        .filter(|d| d.cause.kind() == "annotation")
        .map(|d| d.describe("seqlock_alias"))
        .collect();
    assert!(texts.iter().any(|t| t.contains("volatile")), "{texts:?}");
    assert!(
        texts.iter().any(|t| t.contains("annotated atomic")),
        "{texts:?}"
    );
    assert!(texts.iter().all(|t| t.contains("poke")), "{texts:?}");
}

#[test]
fn optimistic_control_decisions_point_at_the_seqlock_loop() {
    let report = port(AliasMode::TypeBased, None);
    let opt: Vec<String> = report
        .ledger
        .decisions()
        .iter()
        .filter(|d| d.cause.kind() == "optimistic-control")
        .map(|d| d.describe("seqlock_alias"))
        .collect();
    assert!(!opt.is_empty());
    assert!(opt.iter().all(|t| t.contains("seqlock loop")), "{opt:?}");
    assert!(opt.iter().any(|t| t.contains("read_snapshot")), "{opt:?}");
}

fn manual_clock() -> Clock {
    let mc = ManualClock::new(1_000);
    Clock::from_fn(move || mc.now())
}

fn jsonl_of(report: &PortReport) -> String {
    let mut events = vec![meta_event("port", "seqlock_alias", Some("points-to"))];
    if let Some(s) = &report.metrics.solver {
        events.push(solver_event(s));
    }
    for p in &report.metrics.phases {
        events.push(phase_event(p));
    }
    for d in report.ledger.decisions() {
        events.push(decision_event(d));
    }
    events.push(summary_event(
        report.metrics.total(),
        vec![("decisions", report.ledger.len().into())],
    ));
    to_jsonl(&events)
}

#[test]
fn injected_clock_makes_reports_byte_comparable() {
    let a = port(AliasMode::PointsTo, Some(manual_clock()));
    let b = port(AliasMode::PointsTo, Some(manual_clock()));
    assert_eq!(format!("{a}"), format!("{b}"));
    assert_eq!(format!("{}", a.metrics), format!("{}", b.metrics));
    assert_eq!(
        a.ledger.render_tree("seqlock_alias"),
        b.ledger.render_tree("seqlock_alias")
    );
    let (ja, jb) = (jsonl_of(&a), jsonl_of(&b));
    assert_eq!(ja, jb);
    // The manual clock still yields strictly nonzero phase timings.
    assert!(a.metrics.phases.iter().all(|p| !p.duration.is_zero()));
    atomig_core::validate_metrics_jsonl(&ja).unwrap();
}

/// Ports a MIR module at the full stage on `alias`, without inlining.
fn port_mir(src: &str, alias: AliasMode) -> (atomig_mir::Module, PortReport) {
    let mut m = atomig_mir::parse_module(src).unwrap();
    let mut cfg = AtomigConfig::full();
    cfg.alias_mode = alias;
    cfg.inline = false;
    let report = Pipeline::new(cfg).port_module(&mut m);
    (m, report)
}

/// `@waiter` seeds `@cnt` by annotation and `@flag` by its spinloop;
/// `@other` writes both plainly (`other:0` is the `@flag` store).
const TWO_SEEDS: &str = r#"
global @flag: i32 = 0
global @cnt: i64 = 0
fn @waiter() : i64 {
loop:
  %f = load i32, @flag
  %c = cmp eq %f, 0
  condbr %c, loop, done
done:
  %v = load i64, @cnt seq_cst
  ret %v
}
fn @other() : void {
bb0:
  store i32 1, @flag
  store i64 2, @cnt
  ret
}
"#;

#[test]
fn backends_record_sticky_buddies_in_the_same_order() {
    let buddies = |alias| {
        let (_, report) = port_mir(TWO_SEEDS, alias);
        report
            .ledger
            .decisions()
            .iter()
            .filter(|d| d.cause.kind() == "sticky-buddy")
            .map(|d| format!("{}:{}", d.func_name, d.inst.0))
            .collect::<Vec<_>>()
    };
    let type_based = buddies(AliasMode::TypeBased);
    // Seeds expand in detection order: the annotation before the spin
    // control, so the `@cnt` store comes first.
    assert_eq!(type_based, ["other:1", "other:0"]);
    assert_eq!(buddies(AliasMode::PointsTo), type_based);
}

/// `@reader` is a seqlock on `*%s` that reads `@data`; `@unrelated`
/// stores through another `i64*`. Pins today's behaviour: type-based
/// writer fences match the control's `Pointee(i64)` location, a bucket
/// that buddy expansion skips while `pointee_buddies` is off, so the
/// unrelated store is fenced; points-to leaves it alone.
const POINTEE_SEQLOCK: &str = r#"
global @data: i64 = 0
fn @reader(%s: ptr i64) : i64 {
entry:
  %i = alloca i64
  %d = alloca i64
  br loop
loop:
  %s1 = load i64, %s
  store i64 %s1, %i
  %v = load i64, @data
  store i64 %v, %d
  %iv = load i64, %i
  %odd = rem %iv, 2
  %c1 = cmp ne %odd, 0
  condbr %c1, loop, check
check:
  %iv2 = load i64, %i
  %s2 = load i64, %s
  %c2 = cmp ne %iv2, %s2
  condbr %c2, loop, done
done:
  %r = load i64, %d
  ret %r
}
fn @unrelated(%p: ptr i64) : void {
bb0:
  store i64 1, %p
  ret
}
"#;

#[test]
fn type_based_writer_fences_match_pointee_buckets() {
    let unrelated_store = |m: &atomig_mir::Module| {
        let f = m.func(m.func_by_name("unrelated").unwrap());
        let kinds: Vec<_> = f.insts().map(|(_, i)| i.kind.clone()).collect();
        let fenced = matches!(kinds.get(1), Some(atomig_mir::InstKind::Fence { .. }));
        (kinds[0].ordering(), fenced)
    };
    let (m, tb) = port_mir(POINTEE_SEQLOCK, AliasMode::TypeBased);
    assert_eq!(tb.optiloops, 1);
    assert_eq!(
        (tb.ledger.len(), tb.explicit_barriers_added),
        (5, 3),
        "{tb}"
    );
    assert_eq!(
        unrelated_store(&m),
        (Some(atomig_mir::Ordering::SeqCst), true)
    );

    let (m, pt) = port_mir(POINTEE_SEQLOCK, AliasMode::PointsTo);
    assert_eq!(pt.optiloops, 1);
    assert_eq!(
        (pt.ledger.len(), pt.explicit_barriers_added),
        (4, 2),
        "{pt}"
    );
    assert_eq!(
        unrelated_store(&m),
        (Some(atomig_mir::Ordering::NotAtomic), false)
    );
}
