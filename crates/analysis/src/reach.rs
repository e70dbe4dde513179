//! Thread-spawn reachability.
//!
//! [`CallGraph`](crate::CallGraph) deliberately merges direct-call and
//! spawn edges — fine for inlining order, useless for concurrency
//! reasoning. This pass re-classifies the edges: a *thread root* is
//! `main` (or any function nobody calls or spawns) plus every function
//! passed to the `spawn` builtin, and each root's *thread context* is
//! the set of functions reachable from it through **direct call edges
//! only**. A function reachable from two distinct roots can execute on
//! two threads concurrently, which is what the race-candidate lint rule
//! needs to know.
//!
//! This is a sound over-approximation in the usual may-analysis sense:
//! it ignores argument values, `join` ordering, and whether a spawn site
//! is actually executed, so it may report concurrency that a scheduler
//! can never realize — but it never misses a function a thread could
//! reach through direct calls.

use atomig_mir::{Builtin, Callee, FuncId, InstKind, Module, Value};

/// Which thread roots can reach each function via direct calls.
#[derive(Debug)]
pub struct ThreadReach {
    /// Thread entry points: `main` plus every spawn target.
    pub roots: Vec<FuncId>,
    /// `reached_by[f.0]` = indices into `roots` whose context includes `f`.
    reached_by: Vec<Vec<usize>>,
}

impl ThreadReach {
    /// Computes reachability for `m`.
    pub fn new(m: &Module) -> ThreadReach {
        let n = m.funcs.len();
        // Direct-call edges only; spawn targets collected separately.
        let mut calls: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut spawn_targets: Vec<FuncId> = Vec::new();
        for (i, f) in m.funcs.iter().enumerate() {
            for b in &f.blocks {
                for inst in &b.insts {
                    if let InstKind::Call { callee, args, .. } = &inst.kind {
                        match callee {
                            Callee::Func(t) => calls[i].push(*t),
                            Callee::Builtin(Builtin::Spawn) => {
                                for a in args {
                                    if let Value::Func(t) = a {
                                        spawn_targets.push(*t);
                                    }
                                }
                            }
                            Callee::Builtin(_) => {}
                        }
                    }
                }
            }
        }

        let mut roots: Vec<FuncId> = Vec::new();
        let mut is_root = vec![false; n];
        if let Some(main) = m.func_by_name("main") {
            roots.push(main);
            is_root[main.0 as usize] = true;
        } else {
            // No `main`: treat every function nobody calls or spawns as a
            // root, so library-style modules still get audited.
            let mut called = vec![false; n];
            for f in calls.iter().flatten().chain(&spawn_targets) {
                called[f.0 as usize] = true;
            }
            for f in m.func_ids() {
                if !called[f.0 as usize] {
                    roots.push(f);
                    is_root[f.0 as usize] = true;
                }
            }
        }
        for &t in &spawn_targets {
            if !std::mem::replace(&mut is_root[t.0 as usize], true) {
                roots.push(t);
            }
        }

        // One walk per root over one visited array, stamped with the
        // root's number: `O(edges + Σ reach sets)` in all, with no array
        // cleared per root.
        let mut reached_by: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut seen_by = vec![usize::MAX; n];
        let mut work = Vec::new();
        for (ri, root) in roots.iter().enumerate() {
            work.push(*root);
            while let Some(f) = work.pop() {
                if std::mem::replace(&mut seen_by[f.0 as usize], ri) == ri {
                    continue;
                }
                reached_by[f.0 as usize].push(ri);
                work.extend(calls[f.0 as usize].iter().copied());
            }
        }
        ThreadReach { roots, reached_by }
    }

    /// How many distinct thread roots can reach `f` via direct calls.
    pub fn context_count(&self, f: FuncId) -> usize {
        self.reached_by[f.0 as usize].len()
    }

    /// Whether `f` can run on two threads concurrently (reached by ≥2
    /// roots, or reached by a root that is spawned more than once).
    pub fn is_concurrent(&self, f: FuncId) -> bool {
        self.context_count(f) >= 2
    }

    /// The root functions whose thread contexts include `f`.
    pub fn roots_reaching(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.reached_by[f.0 as usize]
            .iter()
            .map(move |&ri| self.roots[ri])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_frontc::compile;

    fn reach_of(src: &str) -> (Module, ThreadReach) {
        let m = compile(src, "t").unwrap();
        let r = ThreadReach::new(&m);
        (m, r)
    }

    #[test]
    fn spawned_worker_is_a_second_context() {
        let (m, r) = reach_of(
            r#"
            int x;
            void helper() { x = 1; }
            void worker(long arg) { helper(); }
            void lonely() { }
            int main() {
              long t = spawn(worker, 0);
              helper();
              join(t);
              return 0;
            }
            "#,
        );
        let main = m.func_by_name("main").unwrap();
        let worker = m.func_by_name("worker").unwrap();
        let helper = m.func_by_name("helper").unwrap();
        let lonely = m.func_by_name("lonely").unwrap();
        assert_eq!(r.roots, vec![main, worker]);
        // helper is called from both thread contexts.
        assert!(r.is_concurrent(helper));
        assert_eq!(r.context_count(worker), 1, "spawn edge is not a call edge");
        assert_eq!(r.context_count(lonely), 0);
        assert!(!r.is_concurrent(main));
    }

    #[test]
    fn no_main_falls_back_to_uncalled_roots() {
        let (m, r) = reach_of(
            r#"
            int x;
            void inner() { x = 1; }
            void api_a() { inner(); }
            void api_b() { inner(); }
            "#,
        );
        let a = m.func_by_name("api_a").unwrap();
        let b = m.func_by_name("api_b").unwrap();
        let inner = m.func_by_name("inner").unwrap();
        assert!(r.roots.contains(&a) && r.roots.contains(&b));
        assert!(!r.roots.contains(&inner));
        assert!(r.is_concurrent(inner));
    }

    #[test]
    fn call_only_module_is_single_context() {
        let (m, r) = reach_of(
            r#"
            int x;
            void leaf() { x = 1; }
            int main() { leaf(); leaf(); return 0; }
            "#,
        );
        let leaf = m.func_by_name("leaf").unwrap();
        assert_eq!(r.context_count(leaf), 1);
        assert!(!r.is_concurrent(leaf));
    }
}
