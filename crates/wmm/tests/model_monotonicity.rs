//! Assertion verdicts grow monotonically along SC, TSO, WMM and Arm: an
//! assertion violated under one model is violated under every later one.
//! Checked here on seeded randomly generated two-thread programs.
//!
//! This compares verdicts, not executions. The outcomes are not nested
//! the same way: SC ⊆ TSO ⊆ Arm holds on the final globals of generated
//! programs, but WMM forbids some TSO outcomes (a thread running `store
//! rel y; load seq_cst x` carries the release store's timestamp into the
//! other thread's SC store), so not every TSO execution is a WMM
//! execution. The verdicts stay monotone because no assertion of these
//! cases observes such an outcome.

mod common;

use atomig_testutil::Rng;
use atomig_wmm::{Checker, ModelKind};

#[test]
fn violations_grow_with_model_weakness() {
    let mut rng = Rng::new(0x11170);
    for case in 0..64 {
        let src = common::two_thread_program(&mut rng);
        let m = atomig_mir::parse_module(&src).expect("generated litmus parses");
        atomig_mir::verify_module(&m).expect("verifies");

        let violated = |model: ModelKind| {
            let v = Checker::new(model).check(&m, "main");
            assert!(!v.truncated, "case {case}: {model} truncated");
            v.violation.is_some()
        };
        let sc = violated(ModelKind::Sc);
        let tso = violated(ModelKind::Tso);
        let wmm = violated(ModelKind::Wmm);
        let arm = violated(ModelKind::Arm);
        // Monotonicity: a violation under a stronger model must persist
        // under every weaker one.
        assert!(!sc || tso, "case {case}: violated under SC but not TSO");
        assert!(!tso || wmm, "case {case}: violated under TSO but not WMM");
        assert!(
            !wmm || arm,
            "case {case}: violated under WMM(strong) but not ARM"
        );
    }
}
