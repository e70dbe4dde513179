//! Control-flow graph utilities.

use atomig_mir::{BlockId, Function};

/// Predecessor/successor structure and traversal orders of a function.
///
/// # Examples
///
/// ```
/// use atomig_mir::parse_module;
/// use atomig_analysis::Cfg;
///
/// let m = parse_module(r#"
/// fn @f(%c: i1) : void {
/// bb0:
///   condbr %c, bb1, bb2
/// bb1:
///   br bb2
/// bb2:
///   ret
/// }
/// "#)?;
/// let cfg = Cfg::new(&m.funcs[0]);
/// assert_eq!(cfg.preds(atomig_mir::BlockId(2)).len(), 2);
/// # Ok::<(), atomig_mir::parser::ParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// `succs[succ_start[b]..succ_start[b + 1]]` are the successors of
    /// `b`, in terminator order.
    succ_start: Vec<u32>,
    succs: Vec<BlockId>,
    /// `preds[pred_start[b]..pred_start[b + 1]]` are the predecessors of
    /// `b`, by ascending block and then terminator order.
    pred_start: Vec<u32>,
    preds: Vec<BlockId>,
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo`, [`UNREACHED`] if unreachable.
    rpo_index: Vec<u32>,
    /// The depth-first search's stack, kept for the next rebuild.
    stack: Vec<(BlockId, u32)>,
}

/// [`Cfg::rpo_index`] of a block the entry does not reach.
const UNREACHED: u32 = u32::MAX;

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.rebuild(func);
        cfg
    }

    /// Makes this the CFG of `func`, reusing the previous function's
    /// tables.
    pub fn rebuild(&mut self, func: &Function) {
        let n = func.blocks.len();
        let Cfg {
            succ_start,
            succs,
            pred_start,
            preds,
            rpo,
            rpo_index,
            stack,
        } = self;
        succ_start.clear();
        succs.clear();
        pred_start.clear();
        pred_start.resize(n + 1, 0);
        for b in &func.blocks {
            succ_start.push(succs.len() as u32);
            for s in b.term.successors() {
                succs.push(s);
                pred_start[s.0 as usize] += 1;
            }
        }
        succ_start.push(succs.len() as u32);
        // Each block's predecessor count becomes the end of its range,
        // then filling the edges backwards moves it to the start.
        for b in 1..=n {
            pred_start[b] += pred_start[b - 1];
        }
        preds.clear();
        preds.resize(succs.len(), BlockId(0));
        for b in (0..n).rev() {
            for &s in succs[succ_start[b] as usize..succ_start[b + 1] as usize]
                .iter()
                .rev()
            {
                let at = &mut pred_start[s.0 as usize];
                *at -= 1;
                preds[*at as usize] = BlockId(b as u32);
            }
        }

        // Post-order DFS from the entry; a block is marked reached by
        // leaving `UNREACHED` as soon as it is pushed.
        rpo.clear();
        rpo_index.clear();
        rpo_index.resize(n, UNREACHED);
        stack.clear();
        if n > 0 {
            rpo_index[0] = 0;
            stack.push((BlockId(0), succ_start[0]));
        }
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < succ_start[b.0 as usize + 1] {
                let s = succs[*next as usize];
                *next += 1;
                if rpo_index[s.0 as usize] == UNREACHED {
                    rpo_index[s.0 as usize] = 0;
                    stack.push((s, succ_start[s.0 as usize]));
                }
            } else {
                rpo.push(b);
                stack.pop();
            }
        }
        rpo.reverse();
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i as u32;
        }
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.preds[self.pred_start[b] as usize..self.pred_start[b + 1] as usize]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.succs[self.succ_start[b] as usize..self.succ_start[b + 1] as usize]
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse post-order, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.0 as usize];
        (i != UNREACHED).then_some(i as usize)
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Number of blocks (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.rpo_index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::parse_module;

    fn cfg_of(src: &str) -> Cfg {
        let m = parse_module(src).unwrap();
        Cfg::new(&m.funcs[0])
    }

    #[test]
    fn diamond() {
        let cfg = cfg_of(
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
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(*cfg.rpo().last().unwrap(), BlockId(3));
        assert!(cfg.is_reachable(BlockId(3)));
    }

    #[test]
    fn self_loop() {
        let cfg = cfg_of(
            r#"
            fn @f(%c: i1) : void {
            a:
              condbr %c, a, b
            b:
              ret
            }
            "#,
        );
        assert!(cfg.preds(BlockId(0)).contains(&BlockId(0)));
        assert_eq!(cfg.rpo().len(), 2);
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let cfg = cfg_of(
            r#"
            fn @f() : void {
            a:
              ret
            dead:
              ret
            }
            "#,
        );
        assert_eq!(cfg.rpo().len(), 1);
        assert!(!cfg.is_reachable(BlockId(1)));
        assert_eq!(cfg.block_count(), 2);
    }

    #[test]
    fn rpo_visits_loop_header_before_body() {
        let cfg = cfg_of(
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
        let h = cfg.rpo_index(BlockId(1)).unwrap();
        let b = cfg.rpo_index(BlockId(2)).unwrap();
        assert!(h < b);
    }
}
