//! Functions and basic blocks.

use crate::inst::{Inst, InstKind, Terminator};
use crate::types::Type;
use std::fmt;

/// A function-unique instruction id. Doubles as the result's SSA name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%t{}", self.0)
    }
}

/// A basic-block id, indexing into [`Function::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A basic block: a straight-line instruction sequence plus a terminator.
/// Blocks carry no label: the printer names them `bbN` by index. The
/// default block is empty and ends in `unreachable`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    /// Instructions in execution order. The builder and the parser leave
    /// no spare capacity here (`insts.capacity() == insts.len()`).
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Name, unique within the module (without the `@` sigil).
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<Block>,
    /// Next unassigned instruction id.
    pub next_inst: u32,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            blocks: vec![Block::default()],
            next_inst: 0,
        }
    }

    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocates a fresh instruction id.
    pub fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Looks up a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterates over `(block, inst)` pairs in layout order.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |i| (b, i)))
    }

    /// Builds the dense instruction index of this function: one slot per
    /// id below `next_inst`, holding the instruction and its block. O(n)
    /// with no hashing; build it once per function and hand it to every
    /// per-function analysis (the paper's influence analysis caches
    /// exactly this, §3.5).
    pub fn inst_index(&self) -> InstIndex<'_> {
        let mut index = InstIndex {
            func: self,
            slots: Vec::new(),
        };
        index.reindex(self);
        index
    }

    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A dense instruction index of one function, indexed by `InstId.0`.
///
/// Built by [`Function::inst_index`]. Ids that no instruction carries
/// (gaps, or ids at or past `next_inst`) look up as `None`.
#[derive(Debug, Clone)]
pub struct InstIndex<'f> {
    func: &'f Function,
    slots: Vec<Option<(BlockId, &'f Inst)>>,
}

impl<'f> InstIndex<'f> {
    /// Makes this the index of `func`, reusing the slot buffer: a sweep
    /// over many functions of one module keeps one index alive.
    pub fn reindex(&mut self, func: &'f Function) {
        self.func = func;
        self.slots.clear();
        self.slots.resize(func.next_inst as usize, None);
        for (b, inst) in func.insts() {
            let i = inst.id.0 as usize;
            // Malformed functions (ids at or past `next_inst`) still index.
            if i >= self.slots.len() {
                self.slots.resize(i + 1, None);
            }
            self.slots[i] = Some((b, inst));
        }
    }

    /// The indexed function.
    pub fn func(&self) -> &'f Function {
        self.func
    }

    /// The kind of instruction `id`.
    pub fn get(&self, id: InstId) -> Option<&'f InstKind> {
        self.inst(id).map(|i| &i.kind)
    }

    /// Instruction `id` itself.
    pub fn inst(&self, id: InstId) -> Option<&'f Inst> {
        self.slot(id).map(|(_, i)| i)
    }

    /// The block containing instruction `id`.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.slot(id).map(|(b, _)| b)
    }

    /// Every instruction with its block, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &'f Inst)> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// One past the largest indexable id: the length of a dense side
    /// table keyed by `InstId.0`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no id is indexable.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, id: InstId) -> Option<(BlockId, &'f Inst)> {
        self.slots.get(id.0 as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{InstKind, Ordering};
    use crate::value::Value;

    fn sample() -> Function {
        let mut f = Function::new("f", vec![("x".into(), Type::ptr_to(Type::I32))], Type::Void);
        let id0 = f.fresh_inst_id();
        let id1 = f.fresh_inst_id();
        f.block_mut(BlockId(0)).insts.push(Inst::new(
            id0,
            InstKind::Load {
                ptr: Value::Param(0),
                ty: Type::I32,
                ord: Ordering::NotAtomic,
                volatile: false,
            },
        ));
        f.block_mut(BlockId(0)).insts.push(Inst::new(
            id1,
            InstKind::Store {
                ptr: Value::Param(0),
                val: Value::Inst(id0),
                ty: Type::I32,
                ord: Ordering::NotAtomic,
                volatile: false,
            },
        ));
        f.block_mut(BlockId(0)).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn fresh_ids_are_sequential() {
        let mut f = Function::new("g", vec![], Type::Void);
        assert_eq!(f.fresh_inst_id(), InstId(0));
        assert_eq!(f.fresh_inst_id(), InstId(1));
        assert_eq!(f.next_inst, 2);
    }

    #[test]
    fn inst_iteration_and_index() {
        let f = sample();
        assert_eq!(f.inst_count(), 2);
        let idx = f.inst_index();
        assert!(matches!(idx.get(InstId(0)), Some(InstKind::Load { .. })));
        assert!(idx.get(InstId(1)).unwrap().may_write());
        assert_eq!(idx.block_of(InstId(1)), Some(BlockId(0)));
        assert_eq!(idx.inst(InstId(1)).unwrap().id, InstId(1));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn index_misses_ids_at_or_past_next_inst() {
        let f = sample();
        let idx = f.inst_index();
        assert_eq!(idx.get(InstId(f.next_inst)), None);
        assert_eq!(idx.block_of(InstId(u32::MAX)), None);
        assert_eq!(idx.inst(InstId(99)), None);
    }

    #[test]
    fn index_skips_gaps_and_iterates_in_id_order() {
        let mut f = sample();
        // Ids 2..5 are never placed; 5 lands in a second block, ahead of
        // the entry block's instructions in layout order.
        f.next_inst = 6;
        f.blocks.insert(0, Block::default());
        f.blocks[0].insts.push(Inst::new(
            InstId(5),
            InstKind::Fence {
                ord: Ordering::SeqCst,
            },
        ));
        let idx = f.inst_index();
        assert_eq!(idx.len(), 6);
        for gap in 2..5 {
            assert_eq!(idx.get(InstId(gap)), None);
            assert_eq!(idx.block_of(InstId(gap)), None);
        }
        assert_eq!(idx.block_of(InstId(5)), Some(BlockId(0)));
        assert_eq!(idx.block_of(InstId(0)), Some(BlockId(1)));
        let ids: Vec<u32> = idx.iter().map(|(_, i)| i.id.0).collect();
        assert_eq!(ids, vec![0, 1, 5]);
    }

    #[test]
    fn index_of_an_empty_function() {
        let f = Function::new("e", vec![], Type::Void);
        let idx = f.inst_index();
        assert!(idx.is_empty());
        assert_eq!(idx.iter().count(), 0);
        assert_eq!(idx.get(InstId(0)), None);
    }

    #[test]
    fn index_covers_ids_past_next_inst_in_malformed_functions() {
        let mut f = sample();
        f.blocks[0].insts.push(Inst::new(
            InstId(9),
            InstKind::Fence {
                ord: Ordering::SeqCst,
            },
        ));
        let idx = f.inst_index();
        assert_eq!(idx.len(), 10);
        assert!(idx.get(InstId(9)).is_some());
    }

    #[test]
    fn block_lookup() {
        let f = sample();
        let idx = f.inst_index();
        assert_eq!(idx.block_of(InstId(1)), Some(BlockId(0)));
        assert_eq!(idx.block_of(InstId(99)), None);
    }

    #[test]
    fn entry_is_block_zero() {
        let f = sample();
        assert_eq!(f.entry(), BlockId(0));
    }
}
