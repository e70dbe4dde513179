//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use crate::cfg::Cfg;
use atomig_mir::BlockId;

/// The dominator tree of a function's CFG.
///
/// Only reachable blocks participate; queries involving unreachable blocks
/// return `false`/`None`.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// Immediate dominator per block (`idom[entry] == entry`).
    idom: Vec<Option<BlockId>>,
}

impl DomTree {
    /// Computes dominators over `cfg`.
    pub fn new(cfg: &Cfg) -> DomTree {
        let mut dom = DomTree::default();
        dom.rebuild(cfg);
        dom
    }

    /// Makes this the dominator tree of `cfg`, reusing the previous
    /// function's table.
    pub fn rebuild(&mut self, cfg: &Cfg) {
        let n = cfg.block_count();
        let idom = &mut self.idom;
        idom.clear();
        idom.resize(n, None);
        if n == 0 {
            return;
        }
        let entry = BlockId(0);
        idom[0] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            // Walk up by RPO index until the fingers meet.
            while a != b {
                let (ai, bi) = (
                    cfg.rpo_index(a).expect("reachable"),
                    cfg.rpo_index(b).expect("reachable"),
                );
                if ai > bi {
                    a = idom[a.0 as usize].expect("processed");
                } else {
                    b = idom[b.0 as usize].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if !cfg.is_reachable(p) || idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// The immediate dominator of `b` (`entry` for the entry block), or
    /// `None` for unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.0 as usize).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexive on reachable blocks; `false`
    /// when either is unreachable).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        while let Some(next) = self.idom(cur) {
            if cur == a {
                return true;
            }
            if next == cur {
                return false;
            }
            cur = next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    fn dom_of(src: &str) -> (Cfg, DomTree) {
        let m = parse_module(src).unwrap();
        let cfg = Cfg::new(&m.funcs[0]);
        let dt = DomTree::new(&cfg);
        (cfg, dt)
    }

    #[test]
    fn diamond_dominators() {
        let (_, dt) = dom_of(
            r#"
            fn @f(%c: i1) : void {
            a:
              condbr %c, b, c
            b:
              br d
            c:
              br d
            d:
              ret
            }
            "#,
        );
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        // d's idom is a, not b or c.
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn loop_header_dominates_body() {
        let (_, dt) = dom_of(
            r#"
            fn @f(%c: i1) : void {
            entry:
              br header
            header:
              condbr %c, body, exit
            body:
              br header
            exit:
              ret
            }
            "#,
        );
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        assert!(dt.dominates(BlockId(1), BlockId(3)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(1)));
    }

    #[test]
    fn unreachable_has_no_idom() {
        let (_, dt) = dom_of(
            r#"
            fn @f() : void {
            a:
              ret
            dead:
              ret
            }
            "#,
        );
        assert_eq!(dt.idom(BlockId(1)), None);
        assert!(!dt.dominates(BlockId(0), BlockId(1)));
        assert!(!dt.dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn nested_loops() {
        let (_, dt) = dom_of(
            r#"
            fn @f(%c: i1) : void {
            entry:
              br outer
            outer:
              condbr %c, inner, exit
            inner:
              condbr %c, inner, latch
            latch:
              br outer
            exit:
              ret
            }
            "#,
        );
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        assert!(dt.dominates(BlockId(2), BlockId(3)));
        assert!(dt.dominates(BlockId(1), BlockId(4)));
    }
}
