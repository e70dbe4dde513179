//! `ThreadReach` against a per-root reference on seeded random call
//! graphs: with and without `main`, with spawns, and with call cycles.
//! The reference walks the call graph once per root with a fresh visited
//! set; the analysis must name the same roots in the same order and list
//! the same roots for every function, in the same order.

use atomig_analysis::ThreadReach;
use atomig_mir::{
    Block, Builtin, Callee, FuncId, Function, Inst, InstId, InstKind, Module, Terminator, Type,
    Value,
};
use atomig_testutil::Rng;
use std::collections::HashSet;

/// One call or spawn of a generated function.
#[derive(Clone, Copy)]
enum Edge {
    Call(usize),
    Spawn(usize),
}

/// A module of `edges.len()` functions, `f0` (or `main`, when `with_main`)
/// first; function `i` calls or spawns each of `edges[i]` in order.
fn module(edges: &[Vec<Edge>], with_main: bool) -> Module {
    let mut m = Module::new("reach");
    for (i, out) in edges.iter().enumerate() {
        let name = if with_main && i == 0 {
            "main".to_string()
        } else {
            format!("f{i}")
        };
        let mut f = Function::new(name, vec![], Type::Void);
        let insts = out
            .iter()
            .enumerate()
            .map(|(k, e)| {
                let (callee, args) = match *e {
                    Edge::Call(t) => (Callee::Func(FuncId(t as u32)), vec![]),
                    Edge::Spawn(t) => (
                        Callee::Builtin(Builtin::Spawn),
                        vec![Value::Func(FuncId(t as u32)), Value::Const(0)],
                    ),
                };
                let ret_ty = Type::Void;
                Inst::new(
                    InstId(k as u32),
                    InstKind::Call {
                        callee,
                        args,
                        ret_ty,
                    },
                )
            })
            .collect();
        f.next_inst = out.len() as u32;
        f.blocks = vec![Block {
            insts,
            term: Terminator::Ret(None),
        }];
        m.add_func(f);
    }
    m
}

/// The roots and, per function, the roots reaching it, computed with one
/// fresh visited set per root.
fn reference(edges: &[Vec<Edge>], with_main: bool) -> (Vec<FuncId>, Vec<Vec<FuncId>>) {
    let n = edges.len();
    let calls = |f: usize| {
        edges[f].iter().filter_map(|e| match *e {
            Edge::Call(t) => Some(t),
            Edge::Spawn(_) => None,
        })
    };
    let spawned: Vec<usize> = edges
        .iter()
        .flatten()
        .filter_map(|e| match *e {
            Edge::Spawn(t) => Some(t),
            Edge::Call(_) => None,
        })
        .collect();
    let mut roots: Vec<usize> = Vec::new();
    if with_main {
        roots.push(0);
    } else {
        let called: HashSet<usize> = (0..n).flat_map(calls).chain(spawned.clone()).collect();
        roots.extend((0..n).filter(|f| !called.contains(f)));
    }
    for t in spawned {
        if !roots.contains(&t) {
            roots.push(t);
        }
    }
    let mut reached_by = vec![Vec::new(); n];
    for &root in &roots {
        let mut seen = vec![false; n];
        let mut work = vec![root];
        while let Some(f) = work.pop() {
            if std::mem::replace(&mut seen[f], true) {
                continue;
            }
            reached_by[f].push(FuncId(root as u32));
            work.extend(calls(f));
        }
    }
    let roots = roots.into_iter().map(|r| FuncId(r as u32)).collect();
    (roots, reached_by)
}

/// A random call graph of `n` functions: each makes up to four calls or
/// spawns to any function, itself included, so cycles are common.
fn random_edges(rng: &mut Rng, n: usize, spawn_ratio: u64) -> Vec<Vec<Edge>> {
    (0..n)
        .map(|_| {
            (0..rng.gen_usize(5))
                .map(|_| {
                    let t = rng.gen_usize(n);
                    if rng.gen_ratio(spawn_ratio, 10) {
                        Edge::Spawn(t)
                    } else {
                        Edge::Call(t)
                    }
                })
                .collect()
        })
        .collect()
}

fn check(edges: &[Vec<Edge>], with_main: bool, what: &str) {
    let m = module(edges, with_main);
    let reach = ThreadReach::new(&m);
    let (roots, reached_by) = reference(edges, with_main);
    assert_eq!(reach.roots, roots, "{what}: roots");
    for (f, want) in reached_by.iter().enumerate() {
        let got: Vec<FuncId> = reach.roots_reaching(FuncId(f as u32)).collect();
        assert_eq!(&got, want, "{what}: roots reaching f{f}");
        assert_eq!(reach.context_count(FuncId(f as u32)), want.len(), "{what}");
    }
}

#[test]
fn matches_the_per_root_reference_on_random_call_graphs() {
    let mut rng = Rng::new(0x7EAC);
    for case in 0..300 {
        let n = 1 + rng.gen_usize(40);
        let spawn_ratio = [0, 1, 3][case % 3];
        let edges = random_edges(&mut rng, n, spawn_ratio);
        for with_main in [false, true] {
            check(&edges, with_main, &format!("case {case}, main {with_main}"));
        }
    }
}

#[test]
fn a_call_cycle_is_reached_from_its_spawned_member() {
    // Every function of the cycle f0 -> f1 -> f2 -> f0 is called, so
    // without `main` the roots are the uncalled spawner f3, then the
    // spawned f1 (once, though spawned twice).
    let edges = vec![
        vec![Edge::Call(1)],
        vec![Edge::Call(2)],
        vec![Edge::Call(0)],
        vec![Edge::Spawn(1), Edge::Spawn(1)],
    ];
    check(&edges, false, "cycle");
    let reach = ThreadReach::new(&module(&edges, false));
    assert_eq!(reach.roots, vec![FuncId(3), FuncId(1)]);
    assert!((0..3).all(|f| reach.context_count(FuncId(f)) == 1));
}
