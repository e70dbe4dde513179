//! Porting reports and the Table 1 comparison matrix.

use crate::trace::{DecisionLedger, PipelineMetrics};
use atomig_mir::{Function, InstKind, Module};
use std::fmt;
use std::time::Duration;

/// Counts of barriers present in a module, as reported per column in
/// Table 3 (`# B_Expl` / `# B_Impl`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierCensus {
    /// Stand-alone explicit fences.
    pub explicit: usize,
    /// Memory accesses carrying implicit barriers (any atomic ordering).
    pub implicit: usize,
    /// Plain memory accesses.
    pub plain: usize,
}

impl BarrierCensus {
    /// Counts barriers in `m`.
    pub fn of(m: &Module) -> BarrierCensus {
        let mut c = BarrierCensus::default();
        for f in &m.funcs {
            c.add(f);
        }
        c
    }

    /// Adds the barriers of `f` to the count.
    pub fn add(&mut self, f: &Function) {
        for (_, inst) in f.insts() {
            match &inst.kind {
                InstKind::Fence { .. } => self.explicit += 1,
                k if k.is_memory_access() => {
                    if k.ordering().map(|o| o.is_atomic()).unwrap_or(false) {
                        self.implicit += 1;
                    } else {
                        self.plain += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// The outcome of one AtoMig pipeline run (one row of Table 3).
#[derive(Debug, Clone, Default)]
pub struct PortReport {
    /// Module name.
    pub module: String,
    /// Spinloops detected (§3.3).
    pub spinloops: usize,
    /// Optimistic loops detected (§3.3).
    pub optiloops: usize,
    /// Explicitly annotated accesses found (§3.2): atomics + volatiles.
    pub explicit_annotations: usize,
    /// Accesses marked through the §6 compiler-barrier hint extension
    /// (0 unless [`AtomigConfig::compiler_barrier_hints`] is on).
    ///
    /// [`AtomigConfig::compiler_barrier_hints`]: crate::AtomigConfig::compiler_barrier_hints
    pub barrier_hints: usize,
    /// Call sites inlined before analysis (§3.5).
    pub inlined_calls: usize,
    /// Accesses marked through sticky-buddy expansion (beyond the seeds).
    pub buddy_marks: usize,
    /// Accesses actually upgraded to SC (implicit barriers added).
    pub implicit_barriers_added: usize,
    /// Explicit fences inserted (around optimistic controls).
    pub explicit_barriers_added: usize,
    /// Barrier census before porting ("Original" columns of Table 3).
    pub before: BarrierCensus,
    /// Barrier census after porting ("AtoMig" columns of Table 3).
    pub after: BarrierCensus,
    /// Wall-clock time of the pipeline itself.
    pub porting_time: Duration,
    /// Per-phase timings and counters ([`crate::trace`]).
    pub metrics: PipelineMetrics,
    /// Every decision the run made, with provenance ([`crate::trace`]).
    pub ledger: DecisionLedger,
}

impl fmt::Display for PortReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AtoMig port report for `{}`", self.module)?;
        writeln!(f, "  spinloops        : {}", self.spinloops)?;
        writeln!(f, "  optimistic loops : {}", self.optiloops)?;
        writeln!(f, "  explicit annots  : {}", self.explicit_annotations)?;
        writeln!(f, "  inlined calls    : {}", self.inlined_calls)?;
        writeln!(
            f,
            "  barriers before  : {} explicit / {} implicit",
            self.before.explicit, self.before.implicit
        )?;
        writeln!(
            f,
            "  barriers after   : {} explicit / {} implicit",
            self.after.explicit, self.after.implicit
        )?;
        writeln!(
            f,
            "  added            : {} explicit / {} implicit",
            self.explicit_barriers_added, self.implicit_barriers_added
        )?;
        write!(f, "  porting time     : {:?}", self.porting_time)
    }
}

/// A cell of the Table 1 comparison matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fulfil {
    /// ✓ — (mostly) fulfills the property.
    Yes,
    /// ✗ — (mostly) does not.
    No,
    /// = — partly fulfills it.
    Partly,
}

impl fmt::Display for Fulfil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fulfil::Yes => "Y",
            Fulfil::No => "x",
            Fulfil::Partly => "=",
        })
    }
}

/// One row of Table 1: approach name and Safe/Efficient/Scalable/Practical.
pub type ApproachRow = (&'static str, [Fulfil; 4]);

/// The Table 1 comparison of porting approaches, verbatim from the paper.
pub fn approach_matrix() -> Vec<ApproachRow> {
    use Fulfil::{No, Partly, Yes};
    vec![
        ("Naive", [Yes, No, Yes, Yes]),
        ("Hardware", [Yes, Partly, Yes, Partly]),
        ("Expert", [Partly, Yes, No, No]),
        ("VSync", [Yes, Yes, No, No]),
        ("Musketeer", [Yes, Partly, Partly, No]),
        ("Lasagne", [Yes, No, Yes, No]),
        ("TSan", [No, Partly, Partly, No]),
        ("AtoMig", [Partly, Yes, Yes, Yes]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    #[test]
    fn census_counts() {
        let m = parse_module(
            r#"
            global @x: i32 = 0
            fn @f() : void {
            bb0:
              %a = load i32, @x
              store i32 1, @x seq_cst
              fence seq_cst
              %b = rmw add i32 @x, 1 acq
              ret
            }
            "#,
        )
        .unwrap();
        let c = BarrierCensus::of(&m);
        assert_eq!(c.explicit, 1);
        assert_eq!(c.implicit, 2);
        assert_eq!(c.plain, 1);
    }

    #[test]
    fn matrix_matches_table1() {
        let rows = approach_matrix();
        assert_eq!(rows.len(), 8);
        let atomig = rows.iter().find(|(n, _)| *n == "AtoMig").unwrap();
        assert_eq!(
            atomig.1,
            [Fulfil::Partly, Fulfil::Yes, Fulfil::Yes, Fulfil::Yes]
        );
        let naive = rows.iter().find(|(n, _)| *n == "Naive").unwrap();
        assert_eq!(naive.1[1], Fulfil::No);
    }

    #[test]
    fn report_display_is_nonempty() {
        let r = PortReport {
            module: "m".into(),
            spinloops: 2,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("spinloops        : 2"));
    }
}
