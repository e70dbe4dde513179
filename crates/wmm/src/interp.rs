//! The deterministic performance interpreter (Tables 4–6).
//!
//! Runs a module to completion under SC semantics with a round-robin
//! scheduler, collecting the dynamic operation counters of
//! [`ExecStats`]; [`CostModel`](crate::cost::CostModel) turns those into
//! abstract cost and relative slowdowns. Deterministic by construction:
//! the same module and config always produce the same counts.

use crate::exec::{ExecStats, Failure, Machine, Program, StepOutcome};
use crate::models::{LastChoice, ScMem};
use atomig_mir::Module;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Visible steps a thread runs before the scheduler rotates.
    pub quantum: u32,
    /// Hard cap on total visible steps (runaway protection).
    pub max_steps: u64,
    /// Entry function name.
    pub entry: String,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            quantum: 64,
            max_steps: 200_000_000,
            entry: "main".into(),
        }
    }
}

/// The outcome of a deterministic run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Dynamic operation counters.
    pub stats: ExecStats,
    /// Failure, if the program did not complete cleanly.
    pub failure: Option<Failure>,
    /// Values printed via the `print` builtin.
    pub output: Vec<i64>,
    /// Final values of all globals, by name.
    pub exit_value: i64,
    /// Total visible steps executed.
    pub steps: u64,
}

impl RunResult {
    /// `true` when the program ran to completion without failure.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs `module` deterministically and returns its counters.
pub fn run(module: &Module, config: &InterpConfig) -> RunResult {
    let fid = module
        .func_by_name(&config.entry)
        .unwrap_or_else(|| panic!("no function @{}", config.entry));
    let program = Program::new(module);
    let mut machine = Machine::new(&program, fid, vec![], ScMem::default());
    // Long purely-local computations are legitimate under the
    // interpreter; `max_steps` (which also bills invisible work coarsely)
    // is the runaway guard instead of the per-visible-step budget.
    machine.invisible_budget = u64::MAX;
    let mut ch = LastChoice;
    let mut cursor = 0usize;

    loop {
        if machine.failure.is_some() || machine.pruned || machine.all_done() {
            break;
        }
        if machine.steps >= config.max_steps {
            machine.failure = Some(Failure::Trap("interpreter step limit".into()));
            break;
        }
        let runnable = machine.runnable();
        if runnable.is_empty() {
            machine.failure = Some(Failure::Deadlock);
            break;
        }
        // Round-robin: pick the next runnable at-or-after the cursor.
        let tid = *runnable
            .iter()
            .find(|&&t| t >= cursor)
            .unwrap_or(&runnable[0]);
        let mut advanced = false;
        machine.yield_requested = false;
        for _ in 0..config.quantum {
            match machine.step_visible(tid, &mut ch) {
                StepOutcome::Progress => {
                    advanced = true;
                }
                _ => break,
            }
            if machine.failure.is_some() || machine.pruned || machine.yield_requested {
                // `pause()` spin hints deschedule the waiter, as an OS /
                // SMT sibling would; this keeps spin-wait iterations from
                // dominating deterministic cost measurements.
                break;
            }
        }
        let _ = advanced;
        cursor = tid + 1;
        if cursor >= machine.threads.len() {
            cursor = 0;
        }
    }

    let exit_value = machine.thread_result(0).unwrap_or(0);
    RunResult {
        stats: machine.stats,
        failure: machine.failure.clone(),
        output: machine.output.clone(),
        exit_value,
        steps: machine.steps,
    }
}

/// Convenience: run with defaults.
pub fn run_default(module: &Module) -> RunResult {
    run(module, &InterpConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use atomig_mir::parse_module;

    #[test]
    fn deterministic_counters() {
        let m = parse_module(
            r#"
            global @c: i64 = 0
            fn @worker(%n: i64) : void {
            entry:
              %i = alloca i64
              store i64 0, %i
              br header
            header:
              %iv = load i64, %i
              %cnd = cmp lt %iv, %n
              condbr %cnd, body, done
            body:
              %o = rmw add i64 @c, 1 seq_cst
              %inc = add %iv, 1
              store i64 %inc, %i
              br header
            done:
              ret
            }
            fn @main() : void {
            bb0:
              %t1 = call i64 @spawn(@worker, 100)
              %t2 = call i64 @spawn(@worker, 100)
              call void @join(%t1)
              call void @join(%t2)
              %v = load i64, @c seq_cst
              %ok = cmp eq %v, 200
              %oki = cast %ok to i64
              call void @assert(%oki)
              ret
            }
            "#,
        )
        .unwrap();
        let r1 = run_default(&m);
        let r2 = run_default(&m);
        assert!(r1.ok(), "failure: {:?}", r1.failure);
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.stats.rmws, 200);
    }

    #[test]
    fn spinlock_critical_sections_complete_under_round_robin() {
        let m = parse_module(
            r#"
            global @lock: i32 = 0
            global @shared: i64 = 0
            fn @worker(%n: i64) : void {
            entry:
              %i = alloca i64
              store i64 0, %i
              br header
            header:
              %iv = load i64, %i
              %cnd = cmp lt %iv, 50
              condbr %cnd, acquire, done
            acquire:
              %o = cmpxchg i32 @lock, 0, 1 seq_cst
              %busy = cmp ne %o, 0
              condbr %busy, acquire, critical
            critical:
              %v = load i64, @shared
              %nv = add %v, 1
              store i64 %nv, @shared
              store i32 0, @lock seq_cst
              %inc = add %iv, 1
              store i64 %inc, %i
              br header
            done:
              ret
            }
            fn @main() : void {
            bb0:
              %t1 = call i64 @spawn(@worker, 0)
              %t2 = call i64 @spawn(@worker, 0)
              call void @join(%t1)
              call void @join(%t2)
              %v = load i64, @shared
              %ok = cmp eq %v, 100
              %oki = cast %ok to i64
              call void @assert(%oki)
              ret
            }
            "#,
        )
        .unwrap();
        let r = run_default(&m);
        assert!(r.ok(), "failure: {:?}", r.failure);
        assert!(r.stats.rmws >= 100);
    }

    #[test]
    fn cost_model_prices_variants() {
        // The same logical program, once plain and once all-SC.
        let plain = parse_module(
            r#"
            global @x: i64 = 0
            fn @main() : void {
            entry:
              %i = alloca i64
              store i64 0, %i
              br header
            header:
              %iv = load i64, %i
              %c = cmp lt %iv, 1000
              condbr %c, body, done
            body:
              %v = load i64, @x
              %n = add %v, 1
              store i64 %n, @x
              %inc = add %iv, 1
              store i64 %inc, %i
              br header
            done:
              ret
            }
            "#,
        )
        .unwrap();
        let sc = parse_module(
            &atomig_mir::printer::print_module(&plain)
                .replace("load i64, @x", "load i64, @x seq_cst")
                .replace("store i64 %t5, @x", "store i64 %t5, @x seq_cst"),
        )
        .unwrap();
        let rp = run_default(&plain);
        let rs = run_default(&sc);
        assert!(rp.ok() && rs.ok());
        let cm = CostModel::ARMV8;
        let slow = cm.slowdown(&rp.stats, &rs.stats);
        assert!(slow > 1.0, "slowdown {slow}");
        assert!(slow < 4.0, "slowdown {slow}");
    }

    #[test]
    fn output_collection() {
        let m = parse_module(
            r#"
            fn @main() : void {
            bb0:
              call void @print(7)
              call void @print(8)
              ret
            }
            "#,
        )
        .unwrap();
        let r = run_default(&m);
        assert_eq!(r.output, vec![7, 8]);
    }
}
