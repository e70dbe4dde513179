//! Pipeline configuration: which detection stages run.
//!
//! The stages correspond to the columns of Table 2: *Original* (no
//! transformation), *Expl.* (explicit annotations only), *Spin* (plus
//! spinloop detection) and *AtoMig* (plus optimistic-loop detection).

use atomig_analysis::InlineOptions;

/// The cumulative detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// No transformation at all (baseline for model checking).
    Original,
    /// Explicit annotations only (§3.2).
    Explicit,
    /// Explicit annotations + spinloop detection (§3.3, first half).
    Spin,
    /// Everything, including optimistic-loop detection (full AtoMig).
    Full,
}

/// Which alias backend sticky-buddy expansion (§3.4) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasMode {
    /// The paper's scalable scheme: accesses are keyed by global or by
    /// `getelementptr` type+constant-offsets, and equal keys are assumed
    /// to alias. Constant-time per query; over-approximates.
    #[default]
    TypeBased,
    /// Andersen-style inter-procedural points-to sets
    /// ([`atomig_analysis::PointsTo`]): buddies are accesses whose
    /// points-to cells overlap. Strictly more precise on aliased handles
    /// and distinct allocation sites; costs a module-wide fixpoint.
    PointsTo,
}

impl AliasMode {
    /// The CLI-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            AliasMode::TypeBased => "type-based",
            AliasMode::PointsTo => "points-to",
        }
    }

    /// Parses a CLI-facing name.
    pub fn from_name(s: &str) -> Option<AliasMode> {
        match s {
            "type-based" => Some(AliasMode::TypeBased),
            "points-to" => Some(AliasMode::PointsTo),
            _ => None,
        }
    }
}

/// Configuration of the AtoMig pipeline.
#[derive(Debug, Clone)]
pub struct AtomigConfig {
    /// Detection stage to run.
    pub stage: Stage,
    /// Run module-wide sticky-buddy expansion (§3.4). On for every stage
    /// except `Original`; exposed separately for ablation benchmarks.
    pub alias_exploration: bool,
    /// Alias backend used for buddy expansion.
    pub alias_mode: AliasMode,
    /// Inline small functions first so cross-function loops are analyzable
    /// (§3.5).
    pub inline: bool,
    /// Inliner thresholds.
    pub inline_options: InlineOptions,
    /// Also expand buddies keyed only by pointee type (coarse; off by
    /// default, matching the paper's GEP-keyed scheme).
    pub pointee_buddies: bool,
    /// §6 extension: treat compiler barriers (`asm("" ::: "memory")`) as
    /// additional synchronization entry points, marking their adjacent
    /// non-local accesses. Off by default (not part of the evaluated
    /// system).
    pub compiler_barrier_hints: bool,
    /// Volatile locations to *exclude* from the §3.2 volatile conversion
    /// (device registers, signal-handler state). "Throughout all
    /// experiments that we performed, blacklisting of volatile variables
    /// was never necessary" — empty by default.
    pub volatile_blacklist: Vec<atomig_mir::MemLoc>,
    /// The time source behind every phase-timing field. Defaults to the
    /// system monotonic clock; tests inject `atomig_testutil::ManualClock`
    /// via [`crate::trace::Clock::from_fn`] to keep reports
    /// byte-comparable.
    pub clock: crate::trace::Clock,
    /// Unused: port, lint and explain analyze on one thread. Kept only
    /// because the benchmark harness in `perfbench/` still sets it; the
    /// next change to that harness deletes the field.
    pub jobs: usize,
    /// Unused and always `None`: the artifact cache is gone. Kept only
    /// because the benchmark harness in `perfbench/` still sets it; the
    /// next change to that harness deletes the field.
    pub cache: Option<std::convert::Infallible>,
}

impl AtomigConfig {
    /// The preset of a Table 2 stage: [`original`](Self::original),
    /// [`explicit_only`](Self::explicit_only), [`spin`](Self::spin) or
    /// [`full`](Self::full).
    pub fn for_stage(stage: Stage) -> AtomigConfig {
        match stage {
            Stage::Original => AtomigConfig::original(),
            Stage::Explicit => AtomigConfig::explicit_only(),
            Stage::Spin => AtomigConfig::spin(),
            Stage::Full => AtomigConfig::full(),
        }
    }

    /// The identity configuration (Table 2 "Original").
    pub fn original() -> AtomigConfig {
        AtomigConfig {
            stage: Stage::Original,
            alias_exploration: false,
            alias_mode: AliasMode::TypeBased,
            inline: false,
            inline_options: InlineOptions::default(),
            pointee_buddies: false,
            compiler_barrier_hints: false,
            volatile_blacklist: Vec::new(),
            clock: crate::trace::Clock::system(),
            jobs: 1,
            cache: None,
        }
    }

    /// Explicit annotations only (Table 2 "Expl.").
    pub fn explicit_only() -> AtomigConfig {
        AtomigConfig {
            stage: Stage::Explicit,
            ..AtomigConfig::full()
        }
    }

    /// Explicit annotations + spinloops (Table 2 "Spin").
    pub fn spin() -> AtomigConfig {
        AtomigConfig {
            stage: Stage::Spin,
            ..AtomigConfig::full()
        }
    }

    /// The full AtoMig pipeline (Table 2 "AtoMig").
    pub fn full() -> AtomigConfig {
        AtomigConfig {
            stage: Stage::Full,
            alias_exploration: true,
            alias_mode: AliasMode::TypeBased,
            inline: true,
            inline_options: InlineOptions::default(),
            pointee_buddies: false,
            compiler_barrier_hints: false,
            volatile_blacklist: Vec::new(),
            clock: crate::trace::Clock::system(),
            jobs: 1,
            cache: None,
        }
    }
}

impl Default for AtomigConfig {
    fn default() -> Self {
        AtomigConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_ordered() {
        assert!(Stage::Original < Stage::Explicit);
        assert!(Stage::Explicit < Stage::Spin);
        assert!(Stage::Spin < Stage::Full);
    }

    #[test]
    fn presets() {
        assert_eq!(AtomigConfig::original().stage, Stage::Original);
        assert!(!AtomigConfig::original().alias_exploration);
        assert_eq!(AtomigConfig::explicit_only().stage, Stage::Explicit);
        assert!(AtomigConfig::spin().alias_exploration);
        assert_eq!(AtomigConfig::default().stage, Stage::Full);
        assert_eq!(AtomigConfig::default().alias_mode, AliasMode::TypeBased);
    }

    #[test]
    fn alias_mode_names_round_trip() {
        for mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
            assert_eq!(AliasMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(AliasMode::from_name("precise"), None);
    }
}
