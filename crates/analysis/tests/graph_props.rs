//! Seeded generative tests of the CFG, dominator, and loop machinery on
//! randomly generated control-flow graphs (deterministic, offline-only).

use atomig_analysis::{find_loops, Cfg, DomTree};
use atomig_mir::{Block, BlockId, Function, Terminator, Type, Value};
use atomig_testutil::Rng;

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
