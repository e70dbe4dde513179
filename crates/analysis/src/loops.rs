//! Natural-loop detection.
//!
//! The paper's definitions (§3.3): "A loop is identified by its loop header,
//! a node in a program's CFG that has an incoming backedge, and contains all
//! nodes that are dominated by the loop header and which have a path back to
//! the loop header. A loop exit condition is any condition on a branch that
//! exits the loop."

use crate::cfg::Cfg;
use crate::dom::DomTree;
use atomig_mir::{BlockId, Function, Terminator, Value};
use std::collections::BTreeSet;

/// One way out of a loop: a conditional branch in the body with one
/// successor outside the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopExit {
    /// Block containing the exiting branch.
    pub block: BlockId,
    /// The branch condition value.
    pub cond: Value,
    /// The in-loop successor (where the loop continues).
    pub continue_bb: BlockId,
    /// The out-of-loop successor.
    pub exit_bb: BlockId,
}

/// A natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// All exit conditions.
    pub exits: Vec<LoopExit>,
}

impl NaturalLoop {
    /// Whether `b` belongs to the loop body.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// Finds all natural loops of `func`. Loops sharing a header are merged
/// (as LLVM's `LoopInfo` does for multiple backedges).
pub fn find_loops(func: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<NaturalLoop> {
    // Collect backedges t -> h where h dominates t, by header. A dominator
    // comes no later than the blocks it dominates in reverse post-order,
    // so only the edges that go back in that order are asked.
    let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
    for b in func.block_ids() {
        let Some(at) = cfg.rpo_index(b) else {
            continue;
        };
        for &s in cfg.succs(b) {
            if cfg.rpo_index(s).is_some_and(|to| to <= at) && dom.dominates(s, b) {
                back_edges.push((s, b));
            }
        }
    }
    back_edges.sort_unstable();

    let mut loops = Vec::new();
    let mut stack: Vec<BlockId> = Vec::new();
    for edges in back_edges.chunk_by(|a, b| a.0 == b.0) {
        let header = edges[0].0;
        // Body: header plus everything that reaches a tail without passing
        // through the header (standard natural-loop construction).
        let mut body: BTreeSet<BlockId> = BTreeSet::new();
        body.insert(header);
        for &(_, t) in edges {
            if body.insert(t) {
                stack.push(t);
            }
        }
        while let Some(b) = stack.pop() {
            for &p in cfg.preds(b) {
                if cfg.is_reachable(p) && body.insert(p) {
                    stack.push(p);
                }
            }
        }

        // Exits: conditional branches with exactly one successor outside.
        let mut exits = Vec::new();
        for &b in &body {
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = func.block(b).term
            {
                let t_in = body.contains(&then_bb);
                let e_in = body.contains(&else_bb);
                match (t_in, e_in) {
                    (true, false) => exits.push(LoopExit {
                        block: b,
                        cond,
                        continue_bb: then_bb,
                        exit_bb: else_bb,
                    }),
                    (false, true) => exits.push(LoopExit {
                        block: b,
                        cond,
                        continue_bb: else_bb,
                        exit_bb: then_bb,
                    }),
                    _ => {}
                }
            }
        }
        loops.push(NaturalLoop {
            header,
            body,
            exits,
        });
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    fn loops_of(src: &str) -> Vec<NaturalLoop> {
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        find_loops(f, &cfg, &dom)
    }

    #[test]
    fn simple_while_loop() {
        let ls = loops_of(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              br header
            header:
              %v = load i32, @flag
              %c = cmp eq %v, 0
              condbr %c, header, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(ls.len(), 1);
        let l = &ls[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.body.len(), 1);
        assert_eq!(l.exits.len(), 1);
        assert_eq!(l.exits[0].exit_bb, BlockId(2));
        assert_eq!(l.exits[0].continue_bb, BlockId(1));
    }

    #[test]
    fn do_while_with_body_blocks() {
        let ls = loops_of(
            r#"
            global @x: i32 = 0
            fn @f(%c: i1) : void {
            entry:
              br body
            body:
              condbr %c, then, latch
            then:
              br latch
            latch:
              %v = load i32, @x
              %e = cmp ne %v, 0
              condbr %e, body, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(ls.len(), 1);
        let l = &ls[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.body.len(), 3); // body, then, latch
        assert_eq!(l.exits.len(), 1);
        assert_eq!(l.exits[0].block, BlockId(3));
    }

    #[test]
    fn nested_loops_found_separately() {
        let ls = loops_of(
            r#"
            fn @f(%a: i1, %b: i1) : void {
            entry:
              br outer
            outer:
              br inner
            inner:
              condbr %a, inner, outer_latch
            outer_latch:
              condbr %b, outer, exit
            exit:
              ret
            }
            "#,
        );
        assert_eq!(ls.len(), 2);
        let outer = ls.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = ls.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert!(outer.body.contains(&BlockId(2)));
        assert!(outer.body.contains(&BlockId(3)));
        assert_eq!(inner.body.len(), 1);
    }

    #[test]
    fn two_exit_conditions() {
        // for (i = 0; i < 100; i++) if (flag == DONE) break;
        let ls = loops_of(
            r#"
            global @flag: i32 = 0
            fn @f() : void {
            entry:
              %i = alloca i32
              store i32 0, %i
              br header
            header:
              %iv = load i32, %i
              %c = cmp lt %iv, 100
              condbr %c, body, exit
            body:
              %fv = load i32, @flag
              %d = cmp eq %fv, 1
              condbr %d, exit, latch
            latch:
              %iv2 = load i32, %i
              %inc = add %iv2, 1
              store i32 %inc, %i
              br header
            exit:
              ret
            }
            "#,
        );
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].exits.len(), 2);
    }

    #[test]
    fn multiple_backedges_merge() {
        let ls = loops_of(
            r#"
            fn @f(%a: i1, %b: i1) : void {
            entry:
              br h
            h:
              condbr %a, t1, t2
            t1:
              condbr %b, h, exit
            t2:
              br h
            exit:
              ret
            }
            "#,
        );
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].body.len(), 3);
    }

    #[test]
    fn no_loops_in_straightline_code() {
        let ls = loops_of(
            r#"
            fn @f() : void {
            a:
              br b
            b:
              ret
            }
            "#,
        );
        assert!(ls.is_empty());
    }
}
