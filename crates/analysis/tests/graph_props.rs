//! Seeded generative tests of the CFG, dominator, and loop machinery on
//! randomly generated control-flow graphs (deterministic, offline-only).

use atomig_analysis::loops::{LoopExit, NaturalLoop};
use atomig_analysis::{find_loops, Cfg, DomTree};
use atomig_mir::{Block, BlockId, Function, Terminator, Type, Value};
use atomig_testutil::Rng;
use std::collections::BTreeSet;

/// Builds a function whose CFG is given by `(kind, t1, t2)` per block:
/// kind 0 = Ret, 1 = Br(t1), 2 = CondBr(t1, t2).
fn build_cfg(spec: &[(u8, usize, usize)]) -> Function {
    let n = spec.len().max(1);
    let mut f = Function::new("g", vec![], Type::Void);
    f.blocks.clear();
    for &(kind, t1, t2) in spec {
        let term = match kind % 3 {
            0 => Terminator::Ret(None),
            1 => Terminator::Br(BlockId((t1 % n) as u32)),
            _ => Terminator::CondBr {
                cond: Value::Const(1),
                then_bb: BlockId((t1 % n) as u32),
                else_bb: BlockId((t2 % n) as u32),
            },
        };
        f.blocks.push(Block {
            insts: vec![],
            term,
        });
    }
    if f.blocks.is_empty() {
        f.blocks.push(Block {
            insts: vec![],
            term: Terminator::Ret(None),
        });
    }
    f
}

fn gen_spec(rng: &mut Rng) -> Vec<(u8, usize, usize)> {
    let len = 1 + rng.gen_usize(11);
    (0..len)
        .map(|_| (rng.gen_usize(3) as u8, rng.gen_usize(12), rng.gen_usize(12)))
        .collect()
}

/// The entry dominates every reachable block; the immediate dominator
/// dominates its block; dominance is acyclic towards the entry.
#[test]
fn dominator_invariants() {
    let mut rng = Rng::new(0x0D01);
    for case in 0..256 {
        let spec = gen_spec(&mut rng);
        let f = build_cfg(&spec);
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        for &b in cfg.rpo() {
            assert!(
                dom.dominates(BlockId(0), b),
                "case {case}: entry must dominate {b}"
            );
            let idom = dom.idom(b).expect("reachable blocks have an idom");
            assert!(dom.dominates(idom, b), "case {case}");
            if b != BlockId(0) {
                assert!(idom != b, "case {case}: only the entry self-dominates");
                // Walking idoms terminates at the entry.
                let mut cur = b;
                let mut steps = 0;
                while cur != BlockId(0) {
                    cur = dom.idom(cur).expect("chain stays reachable");
                    steps += 1;
                    assert!(steps <= f.blocks.len(), "case {case}: idom chain cycles");
                }
            }
        }
    }
}

/// Every predecessor edge has a matching successor edge and both ends
/// in range.
#[test]
fn cfg_edges_are_symmetric() {
    let mut rng = Rng::new(0x0D02);
    for case in 0..256 {
        let spec = gen_spec(&mut rng);
        let f = build_cfg(&spec);
        let cfg = Cfg::new(&f);
        for b in f.block_ids() {
            for &s in cfg.succs(b) {
                assert!((s.0 as usize) < f.blocks.len(), "case {case}");
                assert!(cfg.preds(s).contains(&b), "case {case}");
            }
            for &p in cfg.preds(b) {
                assert!(cfg.succs(p).contains(&b), "case {case}");
            }
        }
    }
}

/// Natural loops: the header dominates every body block, the header is
/// in its own body, and some body block branches back to the header.
#[test]
fn natural_loop_invariants() {
    let mut rng = Rng::new(0x0D03);
    for case in 0..256 {
        let spec = gen_spec(&mut rng);
        let f = build_cfg(&spec);
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        for l in find_loops(&f, &cfg, &dom) {
            assert!(l.body.contains(&l.header), "case {case}");
            for &b in &l.body {
                assert!(
                    dom.dominates(l.header, b),
                    "case {case}: {} !dom {b}",
                    l.header
                );
            }
            let has_backedge = l
                .body
                .iter()
                .any(|&b| f.block(b).term.successors().any(|s| s == l.header));
            assert!(
                has_backedge,
                "case {case}: loop at {} has no backedge",
                l.header
            );
            for exit in &l.exits {
                assert!(l.body.contains(&exit.block), "case {case}");
                assert!(!l.body.contains(&exit.exit_bb), "case {case}");
                assert!(l.body.contains(&exit.continue_bb), "case {case}");
            }
        }
    }
}

/// The blocks reachable from the entry without passing through `cut`.
fn reachable_without(f: &Function, cut: Option<BlockId>) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut work = vec![BlockId(0)];
    while let Some(b) = work.pop() {
        if Some(b) == cut || std::mem::replace(&mut seen[b.0 as usize], true) {
            continue;
        }
        work.extend(f.block(b).term.successors());
    }
    seen
}

/// The reverse post-order of a recursive depth-first search.
fn naive_rpo(f: &Function) -> Vec<BlockId> {
    fn visit(f: &Function, b: BlockId, seen: &mut [bool], post: &mut Vec<BlockId>) {
        seen[b.0 as usize] = true;
        for s in f.block(b).term.successors() {
            if !seen[s.0 as usize] {
                visit(f, s, seen, post);
            }
        }
        post.push(b);
    }
    let mut post = Vec::new();
    visit(f, BlockId(0), &mut vec![false; f.blocks.len()], &mut post);
    post.reverse();
    post
}

/// Natural loops by the definition: every edge whose target dominates its
/// source is a backedge, and a loop's body is its header plus every block
/// that reaches one of its backedges' sources without the header.
fn naive_loops(f: &Function, dominates: &dyn Fn(BlockId, BlockId) -> bool) -> Vec<NaturalLoop> {
    let reachable = reachable_without(f, None);
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for h in f.block_ids() {
        let tails: Vec<BlockId> = f
            .block_ids()
            .filter(|&t| reachable[t.0 as usize])
            .filter(|&t| f.block(t).term.successors().any(|s| s == h) && dominates(h, t))
            .collect();
        if tails.is_empty() {
            continue;
        }
        let mut body: BTreeSet<BlockId> = [h].into();
        let mut work = tails;
        while let Some(b) = work.pop() {
            if body.insert(b) {
                let preds = f.block_ids().filter(|&p| reachable[p.0 as usize]);
                work.extend(preds.filter(|&p| f.block(p).term.successors().any(|s| s == b)));
            }
        }
        let mut exits = Vec::new();
        for &b in &body {
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = f.block(b).term
            {
                let exit = |continue_bb, exit_bb| LoopExit {
                    block: b,
                    cond,
                    continue_bb,
                    exit_bb,
                };
                match (body.contains(&then_bb), body.contains(&else_bb)) {
                    (true, false) => exits.push(exit(then_bb, else_bb)),
                    (false, true) => exits.push(exit(else_bb, then_bb)),
                    _ => {}
                }
            }
        }
        loops.push(NaturalLoop {
            header: h,
            body,
            exits,
        });
    }
    loops
}

/// One `Cfg` and one `DomTree`, rebuilt from case to case, answer as the
/// definitions do: predecessors by ascending block, the recursive
/// search's reverse post-order, dominance as "every path from the entry
/// passes through", and natural loops from every dominated edge.
#[test]
fn rebuilt_graphs_match_the_definitions() {
    let mut rng = Rng::new(0x0D04);
    let (mut cfg, mut dom) = (Cfg::default(), DomTree::default());
    for case in 0..512 {
        let spec = gen_spec(&mut rng);
        let f = build_cfg(&spec);
        cfg.rebuild(&f);
        dom.rebuild(&cfg);
        let reachable = reachable_without(&f, None);
        let rpo = naive_rpo(&f);
        assert_eq!(cfg.rpo(), &rpo[..], "case {case}");
        assert_eq!(cfg.block_count(), f.blocks.len(), "case {case}");
        for b in f.block_ids() {
            let succs: Vec<BlockId> = f.block(b).term.successors().collect();
            assert_eq!(cfg.succs(b), &succs[..], "case {case}: succs of {b}");
            let preds: Vec<BlockId> = f
                .block_ids()
                .flat_map(|p| {
                    f.block(p)
                        .term
                        .successors()
                        .filter(move |&s| s == b)
                        .map(move |_| p)
                })
                .collect();
            assert_eq!(cfg.preds(b), &preds[..], "case {case}: preds of {b}");
            let at = rpo.iter().position(|&r| r == b);
            assert_eq!(cfg.rpo_index(b), at, "case {case}: rpo index of {b}");
            assert_eq!(cfg.is_reachable(b), reachable[b.0 as usize], "case {case}");
        }
        let dominates = |a: BlockId, b: BlockId| {
            reachable[a.0 as usize]
                && reachable[b.0 as usize]
                && !reachable_without(&f, Some(a))[b.0 as usize]
        };
        for a in f.block_ids() {
            for b in f.block_ids() {
                assert_eq!(
                    dom.dominates(a, b),
                    dominates(a, b),
                    "case {case}: {a} dom {b}"
                );
            }
        }
        assert_eq!(
            find_loops(&f, &cfg, &dom),
            naive_loops(&f, &dominates),
            "case {case}"
        );
    }
}
