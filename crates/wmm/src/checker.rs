//! A bounded-exhaustive model checker over the operational memory models —
//! the reproduction's stand-in for GenMC (§4.1).
//!
//! The checker explores every interleaving of *visible* actions (shared
//! memory accesses, fences, spawn/join/barrier) of every thread, every
//! TSO buffer-flush point, and every eligible write a WMM load can read.
//! Revisited states (by 128-bit fingerprint) are pruned, which also makes
//! spinloops converge: spinning without new writes revisits the same
//! state. A violation is an `assert(0)`, a trap, or a deadlock.

use crate::exec::{Failure, Machine, Program, StepOutcome};
use crate::models::{Chooser, MemModel, ScMem, TsoMem, ViewMem};
use atomig_mir::Module;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a state fingerprint to its low 64 bits. Fingerprints are
/// already well mixed, so the visited set skips SipHash.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the visited set hashes only u128 fingerprints")
    }

    fn write_u128(&mut self, fingerprint: u128) {
        self.0 = fingerprint as u64;
    }
}

/// Fingerprints of every state counted so far.
type Visited = HashSet<u128, BuildHasherDefault<Prehashed>>;

/// Which memory model to check under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Sequential consistency.
    Sc,
    /// x86-TSO (store buffers).
    Tso,
    /// Weak memory (the view machine) with C11-flavoured strong SC
    /// accesses.
    Wmm,
    /// Weak memory with Arm-flavoured SC accesses (`LDAR`/`STLR` as
    /// release/acquire only; explicit fences are full barriers). The
    /// model Table 2 is checked under.
    Arm,
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelKind::Sc => "SC",
            ModelKind::Tso => "TSO",
            ModelKind::Wmm => "WMM",
            ModelKind::Arm => "ARM",
        })
    }
}

/// Checker limits.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Memory model to explore.
    pub model: ModelKind,
    /// Abort exploration after this many distinct states.
    pub max_states: usize,
    /// Abort a single path after this many visible steps.
    pub max_depth: u64,
    /// Inert: read by nothing, since exploration runs on one thread. It
    /// stays only because the benchmark harness still sets it; the
    /// benchmark change that drops `AtomigConfig::jobs` deletes it too.
    pub jobs: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            model: ModelKind::Wmm,
            max_states: 2_000_000,
            max_depth: 20_000,
            jobs: 1,
        }
    }
}

impl CheckerConfig {
    /// A config for the given model with default limits.
    pub fn for_model(model: ModelKind) -> CheckerConfig {
        CheckerConfig {
            model,
            ..CheckerConfig::default()
        }
    }
}

/// A checker limit that can cut an exploration short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// [`CheckerConfig::max_states`]: the distinct-state budget ran out.
    MaxStates,
    /// [`CheckerConfig::max_depth`]: a path ran out of steps.
    MaxDepth,
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Limit::MaxStates => "max_states",
            Limit::MaxDepth => "max_depth",
        })
    }
}

/// The result of an exploration.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The first failure found, if any.
    pub violation: Option<Failure>,
    /// Distinct states visited.
    pub states: usize,
    /// Completed executions (all threads finished).
    pub executions: u64,
    /// States reached again through a different interleaving and pruned.
    pub revisits: u64,
    /// Peak number of frontier states tracked at once.
    pub peak_tracked: usize,
    /// True if limits cut the exploration short.
    pub truncated: bool,
    /// The limit that cut the exploration short first (in frontier
    /// order), when `truncated`.
    pub truncated_by: Option<Limit>,
}

impl Verdict {
    fn truncate(&mut self, limit: Limit) {
        self.truncated = true;
        self.truncated_by.get_or_insert(limit);
    }

    /// `true` when no violation was found and the exploration completed.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.violation {
            Some(v) => write!(
                f,
                "VIOLATION: {v} ({} states, {} revisits, peak {} tracked)",
                self.states, self.revisits, self.peak_tracked
            ),
            None if self.truncated => {
                f.write_str("TRUNCATED")?;
                if let Some(limit) = self.truncated_by {
                    write!(f, " by {limit}")?;
                }
                write!(
                    f,
                    " after {} states ({} revisits, peak {} tracked)",
                    self.states, self.revisits, self.peak_tracked
                )
            }
            None => write!(
                f,
                "PASS ({} states, {} executions, {} revisits, peak {} tracked)",
                self.states, self.executions, self.revisits, self.peak_tracked
            ),
        }
    }
}

/// Replays a fixed prefix of choices, then defaults to 0, recording every
/// decision point in a log it borrows.
struct ReplayChooser<'a> {
    preset: &'a [usize],
    cursor: usize,
    /// `(taken, alternatives)` for every decision point hit.
    log: &'a mut Vec<(usize, usize)>,
}

impl Chooser for ReplayChooser<'_> {
    fn choose(&mut self, n: usize) -> usize {
        let pick = match self.preset.get(self.cursor) {
            Some(&p) => p.min(n - 1),
            None => 0,
        };
        self.cursor += 1;
        self.log.push((pick, n));
        pick
    }
}

/// How many spent machines [`Scratch`] keeps for reuse.
const SPARE_MACHINES: usize = 32;

/// Buffers that successor enumeration reuses from state to state, so
/// that expanding a state allocates little beyond what its steps change.
struct Scratch<'m, M: MemModel> {
    /// The fingerprinted successors of the state being expanded.
    successors: Vec<(u128, Machine<'m, M>)>,
    /// Spent machines to clone the next successors into.
    spare: Spare<'m, M>,
    /// The presets still to replay, stored back to back: a stack whose
    /// entries end at the offsets in `preset_ends`.
    presets: Vec<usize>,
    preset_ends: Vec<usize>,
    /// The decision log of the replay in progress.
    log: Vec<(usize, usize)>,
}

/// Spent machines (expanded states, revisits, pruned paths), kept so
/// that a successor is cloned into their buffers (the thread list, the
/// memory model's maps) instead of new ones.
struct Spare<'m, M: MemModel>(Vec<Machine<'m, M>>);

impl<'m, M: MemModel> Spare<'m, M> {
    /// A copy of `machine`, made in a spare machine if there is one.
    fn copy(&mut self, machine: &Machine<'m, M>) -> Machine<'m, M> {
        match self.0.pop() {
            Some(mut next) => {
                next.clone_from(machine);
                next
            }
            None => machine.clone(),
        }
    }

    /// Keeps a spent machine for [`Self::copy`], up to a few.
    fn recycle(&mut self, machine: Machine<'m, M>) {
        if self.0.len() < SPARE_MACHINES {
            self.0.push(machine);
        }
    }
}

impl<M: MemModel> Scratch<'_, M> {
    fn new() -> Self {
        Scratch {
            successors: Vec::new(),
            spare: Spare(Vec::new()),
            presets: Vec::new(),
            preset_ends: Vec::new(),
            log: Vec::new(),
        }
    }
}

/// One schedulable option in a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedChoice {
    /// Run thread `tid` for one visible step.
    Step(usize),
    /// Perform one internal memory step (TSO flush) for `tid`.
    Internal(usize),
}

/// The model checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    /// Limits and model selection.
    pub config: CheckerConfig,
}

impl Checker {
    /// Creates a checker for `model` with default limits.
    pub fn new(model: ModelKind) -> Checker {
        Checker {
            config: CheckerConfig::for_model(model),
        }
    }

    /// Explores `entry` (usually `"main"`) of `module` exhaustively.
    ///
    /// # Panics
    ///
    /// Panics if `entry` does not exist.
    pub fn check(&self, module: &Module, entry: &str) -> Verdict {
        let fid = module
            .func_by_name(entry)
            .unwrap_or_else(|| panic!("no function @{entry}"));
        let p = &Program::new(module);
        match self.config.model {
            ModelKind::Sc => self.explore(Machine::new(p, fid, vec![], ScMem::default())),
            ModelKind::Tso => self.explore(Machine::new(p, fid, vec![], TsoMem::default())),
            ModelKind::Wmm => self.explore(Machine::new(p, fid, vec![], ViewMem::default())),
            ModelKind::Arm => self.explore(Machine::new(p, fid, vec![], ViewMem::arm())),
        }
    }

    /// Breadth-first exploration, one round per depth. Each frontier
    /// state is expanded in frontier order, and its successors are merged
    /// into the visited set before the next state is expanded. A failure
    /// or deadlock ends the exploration at the first state that produced
    /// one, before that state's successors are counted.
    fn explore<'m, M: MemModel>(&self, mut initial: Machine<'m, M>) -> Verdict {
        let mut visited = Visited::with_capacity_and_hasher(1 << 16, Default::default());
        let mut verdict = Verdict {
            violation: None,
            states: 0,
            executions: 0,
            revisits: 0,
            peak_tracked: 0,
            truncated: false,
            truncated_by: None,
        };
        initial.mem.gc();
        if !visited.insert(initial.fingerprint()) {
            return verdict;
        }
        verdict.states += 1;
        // The frontier holds fresh (deduplicated, counted) states only.
        let mut frontier: Vec<Machine<'m, M>> = vec![initial];
        let mut next_frontier: Vec<Machine<'m, M>> = Vec::new();
        let mut scratch = Scratch::new();

        while !frontier.is_empty() {
            verdict.peak_tracked = verdict.peak_tracked.max(frontier.len());
            for machine in frontier.drain(..) {
                if machine.all_done() {
                    verdict.executions += 1;
                    continue;
                }
                if machine.steps >= self.config.max_depth {
                    verdict.truncate(Limit::MaxDepth);
                    continue;
                }
                if let Err(failure) = self.successors(&machine, &mut scratch) {
                    verdict.violation = failure;
                    return verdict;
                }
                for (fingerprint, next) in scratch.successors.drain(..) {
                    if verdict.states >= self.config.max_states {
                        verdict.truncate(Limit::MaxStates);
                        scratch.spare.recycle(next);
                    } else if visited.insert(fingerprint) {
                        #[cfg(debug_assertions)]
                        assert_eq!(
                            fingerprint,
                            next.uncached_fingerprint(),
                            "a cached digest is stale"
                        );
                        verdict.states += 1;
                        next_frontier.push(next);
                    } else {
                        verdict.revisits += 1;
                        scratch.spare.recycle(next);
                    }
                }
                scratch.spare.recycle(machine);
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
        }
        verdict
    }

    /// Fills `scratch.successors` with every fingerprinted successor of a
    /// running state, in enumeration order: each runnable thread's step,
    /// then each thread's internal step, each followed by its inner
    /// (read/nondet) choices via preset replay. `Err` carries the
    /// violation that ends the exploration: a failed step, or a deadlock
    /// when nothing is runnable and no internal step is available.
    fn successors<'m, M: MemModel>(
        &self,
        machine: &Machine<'m, M>,
        scratch: &mut Scratch<'m, M>,
    ) -> Result<(), Option<Failure>> {
        let n = machine.threads.len();
        let steps = (0..n)
            .filter(|&tid| machine.is_runnable(tid))
            .map(SchedChoice::Step);
        let internal = (0..n)
            .filter(|&tid| machine.internal_steps(tid) > 0)
            .map(SchedChoice::Internal);
        let mut options = steps.chain(internal).peekable();
        if options.peek().is_none() {
            return Err(Some(Failure::Deadlock));
        }
        let Scratch {
            successors,
            spare,
            presets,
            preset_ends,
            log,
        } = scratch;
        for opt in options {
            preset_ends.push(0);
            while let Some(end) = preset_ends.pop() {
                let start = preset_ends.last().copied().unwrap_or(0);
                let fixed = end - start;
                log.clear();
                let mut next = spare.copy(machine);
                let mut ch = ReplayChooser {
                    preset: &presets[start..end],
                    cursor: 0,
                    log,
                };
                let outcome = match opt {
                    SchedChoice::Step(tid) => next.step_visible(tid, &mut ch),
                    SchedChoice::Internal(tid) => {
                        next.internal_step(tid);
                        StepOutcome::Progress
                    }
                };
                // Fork alternatives for decision points defaulted to 0.
                presets.truncate(start);
                for i in fixed..log.len() {
                    for alt in 1..log[i].1 {
                        presets.extend(log[..i].iter().map(|&(taken, _)| taken));
                        presets.push(alt);
                        preset_ends.push(presets.len());
                    }
                }
                match outcome {
                    StepOutcome::Failed => return Err(next.failure),
                    StepOutcome::Pruned => spare.recycle(next),
                    _ => {
                        next.mem.gc();
                        successors.push((next.fingerprint(), next));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    /// Figure 1 / Figure 5: message passing with plain accesses.
    const MP_PLAIN: &str = r#"
    global @flag: i32 = 0
    global @msg: i32 = 0
    fn @writer(%a: i64) : void {
    bb0:
      store i32 1, @msg
      store i32 1, @flag
      ret
    }
    fn @main() : void {
    bb0:
      %t = call i64 @spawn(@writer, 0)
      br loop
    loop:
      %f = load i32, @flag
      %c = cmp eq %f, 0
      condbr %c, loop, done
    done:
      %m = load i32, @msg
      call void @assert(%m)
      call void @join(%t)
      ret
    }
    "#;

    /// The same with the accesses AtoMig would mark made SC.
    const MP_SC: &str = r#"
    global @flag: i32 = 0
    global @msg: i32 = 0
    fn @writer(%a: i64) : void {
    bb0:
      store i32 1, @msg
      store i32 1, @flag seq_cst
      ret
    }
    fn @main() : void {
    bb0:
      %t = call i64 @spawn(@writer, 0)
      br loop
    loop:
      %f = load i32, @flag seq_cst
      %c = cmp eq %f, 0
      condbr %c, loop, done
    done:
      %m = load i32, @msg
      call void @assert(%m)
      call void @join(%t)
      ret
    }
    "#;

    #[test]
    fn mp_plain_passes_under_sc_and_tso() {
        let m = parse_module(MP_PLAIN).unwrap();
        let sc = Checker::new(ModelKind::Sc).check(&m, "main");
        assert!(sc.passed(), "SC: {sc}");
        let tso = Checker::new(ModelKind::Tso).check(&m, "main");
        assert!(tso.passed(), "TSO: {tso}");
    }

    #[test]
    fn mp_plain_fails_under_wmm() {
        let m = parse_module(MP_PLAIN).unwrap();
        let v = Checker::new(ModelKind::Wmm).check(&m, "main");
        assert!(
            matches!(v.violation, Some(Failure::Assert { .. })),
            "expected assertion violation, got {v}"
        );
    }

    #[test]
    fn mp_sc_passes_under_wmm() {
        let m = parse_module(MP_SC).unwrap();
        let v = Checker::new(ModelKind::Wmm).check(&m, "main");
        assert!(v.passed(), "WMM: {v}");
    }

    /// Store buffering: plain accesses allow r1 = r2 = 0 under TSO already.
    const SB: &str = r#"
    global @x: i32 = 0
    global @y: i32 = 0
    global @r1: i32 = 0
    global @r2: i32 = 0
    fn @t1(%a: i64) : void {
    bb0:
      store i32 1, @x ORD1
      %v = load i32, @y ORD1
      store i32 %v, @r1
      ret
    }
    fn @main() : void {
    bb0:
      store i32 1, @y ORD2
      %v = load i32, @x ORD2
      %t = call i64 @spawn(@t1, 0)
      call void @join(%t)
      %a = load i32, @r1
      %b = add %v, %a
      %c = cmp gt %b, 0
      %ci = cast %c to i64
      call void @assert(%ci)
      ret
    }
    "#;

    // NOTE: the SB test above is sequential w.r.t. spawn (main stores
    // before spawning), so it cannot exhibit SB; the real SB test needs
    // truly concurrent threads:
    const SB_CONCURRENT: &str = r#"
    global @x: i32 = 0
    global @y: i32 = 0
    global @r1: i32 = 0
    fn @t1(%a: i64) : void {
    bb0:
      store i32 1, @x ORD
      %v = load i32, @y ORD
      store i32 %v, @r1
      ret
    }
    fn @main() : void {
    bb0:
      %t = call i64 @spawn(@t1, 0)
      store i32 1, @y ORD
      %v = load i32, @x ORD
      call void @join(%t)
      %a = load i32, @r1
      %b = add %v, %a
      %c = cmp gt %b, 0
      %ci = cast %c to i64
      call void @assert(%ci)
      ret
    }
    "#;

    #[test]
    fn sb_plain_fails_under_tso_and_wmm() {
        let src = SB_CONCURRENT.replace("ORD", "");
        let m = parse_module(&src).unwrap();
        let tso = Checker::new(ModelKind::Tso).check(&m, "main");
        assert!(
            matches!(tso.violation, Some(Failure::Assert { .. })),
            "{tso}"
        );
        let wmm = Checker::new(ModelKind::Wmm).check(&m, "main");
        assert!(
            matches!(wmm.violation, Some(Failure::Assert { .. })),
            "{wmm}"
        );
        // But SC forbids it.
        let sc = Checker::new(ModelKind::Sc).check(&m, "main");
        assert!(sc.passed(), "{sc}");
    }

    #[test]
    fn sb_seqcst_passes_everywhere() {
        let src = SB_CONCURRENT.replace("ORD", "seq_cst");
        let m = parse_module(&src).unwrap();
        for model in [ModelKind::Sc, ModelKind::Tso, ModelKind::Wmm] {
            let v = Checker::new(model).check(&m, "main");
            assert!(v.passed(), "{model}: {v}");
        }
        let _ = SB; // silence unused-const lint for the documented variant
    }

    /// A racy counter without atomics loses updates under every model.
    #[test]
    fn racy_counter_loses_updates() {
        let m = parse_module(
            r#"
            global @c: i64 = 0
            fn @incr(%a: i64) : void {
            bb0:
              %v = load i64, @c
              %n = add %v, 1
              store i64 %n, @c
              ret
            }
            fn @main() : void {
            bb0:
              %t = call i64 @spawn(@incr, 0)
              %v = load i64, @c
              %n = add %v, 1
              store i64 %n, @c
              call void @join(%t)
              %r = load i64, @c
              %ok = cmp eq %r, 2
              %oki = cast %ok to i64
              call void @assert(%oki)
              ret
            }
            "#,
        )
        .unwrap();
        let v = Checker::new(ModelKind::Sc).check(&m, "main");
        assert!(matches!(v.violation, Some(Failure::Assert { .. })), "{v}");
    }

    /// An RMW counter is correct under every model.
    #[test]
    fn rmw_counter_is_exact() {
        let m = parse_module(
            r#"
            global @c: i64 = 0
            fn @incr(%a: i64) : void {
            bb0:
              %o = rmw add i64 @c, 1 seq_cst
              ret
            }
            fn @main() : void {
            bb0:
              %t = call i64 @spawn(@incr, 0)
              %o = rmw add i64 @c, 1 seq_cst
              call void @join(%t)
              %r = load i64, @c seq_cst
              %ok = cmp eq %r, 2
              %oki = cast %ok to i64
              call void @assert(%oki)
              ret
            }
            "#,
        )
        .unwrap();
        for model in [ModelKind::Sc, ModelKind::Tso, ModelKind::Wmm] {
            let v = Checker::new(model).check(&m, "main");
            assert!(v.passed(), "{model}: {v}");
        }
    }

    /// Spinloops converge thanks to state-fingerprint pruning.
    #[test]
    fn spinloop_exploration_terminates() {
        let m = parse_module(MP_SC).unwrap();
        let v = Checker::new(ModelKind::Wmm).check(&m, "main");
        assert!(!v.truncated);
        assert!(v.states < 100_000);
    }

    /// Each limit names itself when it cuts the search short, and a cut
    /// search never passes.
    #[test]
    fn truncation_names_the_limit() {
        let m = parse_module(MP_SC).unwrap();
        let mut shallow = Checker::new(ModelKind::Wmm);
        shallow.config.max_depth = 2;
        let v = shallow.check(&m, "main");
        assert_eq!(v.truncated_by, Some(Limit::MaxDepth), "{v}");
        assert!(v.truncated && !v.passed());
        assert!(
            v.to_string().starts_with("TRUNCATED by max_depth after"),
            "{v}"
        );

        let mut small = Checker::new(ModelKind::Wmm);
        small.config.max_states = 5;
        let v = small.check(&m, "main");
        assert_eq!(v.truncated_by, Some(Limit::MaxStates), "{v}");
        assert!(v.truncated && !v.passed());
        assert!(
            v.to_string().starts_with("TRUNCATED by max_states after"),
            "{v}"
        );

        let v = Checker::new(ModelKind::Wmm).check(&m, "main");
        assert_eq!(v.truncated_by, None);
    }

    /// A single thread spinning on a lock it already holds never
    /// finishes, but it always stays runnable, so this is no deadlock:
    /// the spin converges by state pruning, with no violation and no
    /// completed execution.
    #[test]
    fn spin_on_own_lock_converges_without_executions() {
        let m = parse_module(
            r#"
            global @l: i32 = 0
            fn @main() : void {
            bb0:
              %o = cmpxchg i32 @l, 0, 1 seq_cst
              br spin
            spin:
              %o2 = cmpxchg i32 @l, 0, 1 seq_cst
              %c = cmp ne %o2, 0
              condbr %c, spin, done
            done:
              ret
            }
            "#,
        )
        .unwrap();
        let v = Checker::new(ModelKind::Sc).check(&m, "main");
        assert!(v.violation.is_none());
        assert_eq!(v.executions, 0);
        assert!(!v.truncated);
    }

    /// A barrier for two that only one thread reaches leaves nothing
    /// runnable and nothing to flush: a deadlock, under every model.
    #[test]
    fn barrier_short_of_participants_deadlocks() {
        let m = parse_module(
            r#"
            fn @main() : void {
            bb0:
              call void @barrier_wait(2)
              ret
            }
            "#,
        )
        .unwrap();
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::Wmm,
            ModelKind::Arm,
        ] {
            let v = Checker::new(model).check(&m, "main");
            assert_eq!(v.violation, Some(Failure::Deadlock), "{model}: {v}");
            assert!(!v.passed());
            assert_eq!(
                v.to_string(),
                "VIOLATION: deadlock (2 states, 0 revisits, peak 1 tracked)"
            );
        }
    }
}
