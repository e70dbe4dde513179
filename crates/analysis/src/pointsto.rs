//! Andersen-style inter-procedural points-to analysis.
//!
//! The paper deliberately *rejects* a precise points-to analysis in favor
//! of the scalable type-based alias keys of §3.4 ("a precise
//! inter-procedural alias analysis exhausts memory on our targets"). This
//! module implements the road not taken so the trade-off can be measured:
//! an inclusion-based (Andersen) analysis that is
//!
//! * **field-sensitive** — abstract objects are split into cells by
//!   constant field path, so `n->state` and `n->key` do not alias,
//! * **flow-insensitive** — one constraint system per module, no program
//!   points,
//! * **context-insensitive** — call edges merge all call sites, and
//! * **inter-procedural** — parameter/return binding over direct calls
//!   plus `spawn` argument binding, so pointers that travel through
//!   threads (and through integer casts, as in the lf-hash workload) are
//!   still tracked.
//!
//! Constraint generation walks every MIR instruction once: `alloca` and
//! `malloc` introduce objects (address-of constraints), `cast`/`bin` are
//! copies, `load`/`store` are the complex dereference constraints, and
//! `gep` appends field paths. A worklist solver propagates only the cells
//! a node gained since it was last popped; complex constraints add new
//! copy edges as points-to sets grow. On the generated Table 3 profiles
//! every set holds at most one cell and one pass reaches the fixpoint, so
//! the cost is the number of nodes, not the solve.
//!
//! Every table is therefore dense and indexed by id:
//!
//! * Instruction ids are dense below `Function::next_inst`, so the node of
//!   `Var(f, i)` sits in slot `slot_base[f] + i` of one flat array.
//!   Parameter and return nodes live in per-function tables, contents
//!   nodes in a per-cell table, global literals in a per-global table.
//!   Nodes are still numbered lazily, in the order the constraints first
//!   name them, so the worklist order and every statistic are fixed.
//! * A set of at most one cell is stored inline in its node; larger sets
//!   spill to a sorted vector with a list of pending cells.
//! * `load`, `store` and `gep` constraints are complete once generation
//!   ends and are filed per pointer node in one compressed (CSR) array.
//!   Copy edges grow while solving; they form per-node linked lists in one
//!   arena, deduplicated by an Fx-hashed set. Field paths are interned.
//! * [`PointsTo::cells_of_access`] returns a slice of one flat array
//!   indexed by the same per-function slots.

use crate::escape::EscapeInfo;
use atomig_mir::{
    Builtin, Callee, FuncId, Function, FxBuild, GlobalId, InstId, InstKind, Module, Terminator,
    Value,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Field paths longer than this are truncated into summary cells, which
/// bounds the cell universe and guarantees termination even when GEPs
/// feed each other through memory cycles.
const MAX_PATH: usize = 8;

/// Wildcard path element standing for a dynamically computed index.
pub const ANY_INDEX: i64 = -1;

/// The allocation site an abstract memory cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjBase {
    /// A module global.
    Global(GlobalId),
    /// A stack slot, identified by its `alloca` instruction.
    Stack(FuncId, InstId),
    /// A heap object, one per static `malloc` call site.
    Heap(FuncId, InstId),
}

/// An abstract memory cell: an object base plus a constant field path
/// (`ANY_INDEX` marks dynamically indexed steps).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The allocation site.
    pub base: ObjBase,
    /// Field/element path below the base.
    pub path: Vec<i64>,
    /// The path was truncated at `MAX_PATH` steps: this cell summarizes
    /// the entire subtree below `path`.
    pub summary: bool,
}

/// Index of an interned [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Solver statistics, reported by the ablation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointsToStats {
    /// Constraint-graph nodes (SSA vars, params, returns, cell contents).
    pub nodes: usize,
    /// Distinct abstract memory cells.
    pub cells: usize,
    /// Base constraints generated from the MIR.
    pub constraints: usize,
    /// Worklist pops until fixpoint.
    pub iterations: usize,
    /// Fixpoint passes: the maximum number of times any single node was
    /// re-popped from the worklist (1 means one sweep sufficed).
    pub passes: usize,
    /// Wall-clock time of the whole analysis: constraint generation,
    /// solving, access resolution and shareability.
    pub solve_time: Duration,
}

/// An absent node, cell or copy edge in the dense tables.
const NONE: u32 = u32::MAX;

/// Tag bit of [`NodeState::pts`]: the set has spilled to `Solver::big`.
const BIG: u32 = 1 << 31;

/// Solver state of one constraint node.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// The points-to set: empty (`NONE`), one cell id, or `BIG | k` for
    /// the spilled set `Solver::big[k]`.
    pts: u32,
    /// First and last outgoing copy edge in `Solver::edges`.
    copy_head: u32,
    copy_tail: u32,
    /// Worklist pops, for the fixpoint-pass statistic.
    pops: u32,
    queued: bool,
}

impl NodeState {
    const EMPTY: NodeState = NodeState {
        pts: NONE,
        copy_head: NONE,
        copy_tail: NONE,
        pops: 0,
        queued: false,
    };
}

/// The node in `slot`, numbered next if the slot is still empty.
fn lazy_node(nodes: &mut Vec<NodeState>, slot: &mut u32) -> u32 {
    if *slot == NONE {
        *slot = nodes.len() as u32;
        nodes.push(NodeState::EMPTY);
    }
    *slot
}

/// A points-to set of two or more cells.
#[derive(Debug)]
struct BigSet {
    /// The set, ascending.
    cells: Vec<u32>,
    /// Cells added since the node was last popped.
    pending: Vec<u32>,
}

/// A `load`, `store` or `gep` constraint, filed under its pointer node.
/// The variant order is the order `solve` processes them in.
#[derive(Debug, Clone, Copy)]
enum Complex {
    /// `dst ⊇ { c.path ++ paths[path] | c ∈ pts p }`.
    Gep { dst: u32, path: u32 },
    /// `dst ⊇ *(pts p)`.
    Load { dst: u32 },
    /// `*(pts p) ⊇ src`.
    Store { src: u32 },
}

impl Complex {
    fn rank(self) -> u8 {
        match self {
            Complex::Gep { .. } => 0,
            Complex::Load { .. } => 1,
            Complex::Store { .. } => 2,
        }
    }
}

struct Solver {
    cells: Vec<Cell>,
    /// Whether each cell may be visible to more than one thread.
    shareable: Vec<bool>,
    /// The contents node of each cell.
    content: Vec<u32>,
    cell_ids: HashMap<(ObjBase, u32, bool), u32, FxBuild>,
    /// Interned field paths; id 0 is the empty path.
    paths: Vec<Vec<i64>>,
    path_ids: HashMap<Vec<i64>, u32, FxBuild>,
    /// First `Var` slot of each function, then the slot count.
    slot_base: Vec<u32>,
    /// The node of each `Var` slot.
    var: Vec<u32>,
    /// Parameter and return nodes per function, literal nodes per global.
    param: Vec<Vec<u32>>,
    ret: Vec<u32>,
    lit: Vec<u32>,
    nodes: Vec<NodeState>,
    big: Vec<BigSet>,
    /// Copy edges `(dst, next)`, linked per source in insertion order.
    edges: Vec<(u32, u32)>,
    /// `src << 32 | dst` of every copy edge.
    copy_seen: HashSet<u64, FxBuild>,
    /// Complex constraints with their pointer node, in generation order.
    complex: Vec<(u32, Complex)>,
    worklist: Vec<u32>,
    /// Scratch buffers, reused so the solve loop never allocates.
    set_buf: Vec<u32>,
    path_buf: Vec<i64>,
    stats: PointsToStats,
}

impl Solver {
    fn new(m: &Module) -> Solver {
        let mut slot_base = Vec::with_capacity(m.funcs.len() + 1);
        let mut slots: u32 = 0;
        for f in &m.funcs {
            slot_base.push(slots);
            slots = slots
                .checked_add(f.next_inst)
                .expect("instruction ids of a module fit in u32");
        }
        slot_base.push(slots);
        let mut path_ids = HashMap::default();
        path_ids.insert(Vec::new(), 0);
        Solver {
            cells: Vec::new(),
            shareable: Vec::new(),
            content: Vec::new(),
            cell_ids: HashMap::default(),
            paths: vec![Vec::new()],
            path_ids,
            slot_base,
            var: vec![NONE; slots as usize],
            param: m.funcs.iter().map(|f| vec![NONE; f.params.len()]).collect(),
            ret: vec![NONE; m.funcs.len()],
            lit: vec![NONE; m.globals.len()],
            nodes: Vec::new(),
            big: Vec::new(),
            edges: Vec::new(),
            copy_seen: HashSet::default(),
            complex: Vec::new(),
            worklist: Vec::new(),
            set_buf: Vec::new(),
            path_buf: Vec::new(),
            stats: PointsToStats::default(),
        }
    }

    fn intern_path(&mut self, path: &[i64]) -> u32 {
        if let Some(&id) = self.path_ids.get(path) {
            return id;
        }
        let id = self.paths.len() as u32;
        self.paths.push(path.to_vec());
        self.path_ids.insert(path.to_vec(), id);
        id
    }

    fn intern_cell(&mut self, base: ObjBase, path: u32, summary: bool, shareable: bool) -> u32 {
        let next = self.cells.len() as u32;
        let id = *self.cell_ids.entry((base, path, summary)).or_insert(next);
        if id == next {
            assert!(next < BIG, "cell ids leave the set tag bit free");
            self.cells.push(Cell {
                base,
                path: self.paths[path as usize].clone(),
                summary,
            });
            self.shareable.push(shareable);
            self.content.push(NONE);
        }
        id
    }

    /// `cell` viewed through a GEP that appends the interned `path`.
    fn gep_cell(&mut self, cell: u32, path: u32) -> u32 {
        let c = &self.cells[cell as usize];
        if c.summary || path == 0 {
            return cell;
        }
        let mut full = std::mem::take(&mut self.path_buf);
        full.clear();
        full.extend_from_slice(&c.path);
        full.extend_from_slice(&self.paths[path as usize]);
        let summary = full.len() > MAX_PATH;
        full.truncate(MAX_PATH);
        let (base, shareable) = (c.base, self.shareable[cell as usize]);
        let full_id = self.intern_path(&full);
        self.path_buf = full;
        self.intern_cell(base, full_id, summary, shareable)
    }

    /// The points-to set of `n`, ascending.
    fn pts(&self, n: u32) -> &[u32] {
        let pts = &self.nodes[n as usize].pts;
        match *pts {
            NONE => &[],
            p if p & BIG != 0 => &self.big[(p & !BIG) as usize].cells,
            _ => std::slice::from_ref(pts),
        }
    }

    /// Adds cell `c` to `pts(n)` and enqueues `n` if the set grew.
    fn insert(&mut self, n: u32, c: u32) {
        let node = &mut self.nodes[n as usize];
        match node.pts {
            NONE => node.pts = c,
            p if p & BIG == 0 => {
                if p == c {
                    return;
                }
                // A node is queued exactly while it has unprocessed cells,
                // so the lone cell is pending iff the node is queued.
                let pending = if node.queued { vec![p, c] } else { vec![c] };
                node.pts = BIG | self.big.len() as u32;
                self.big.push(BigSet {
                    cells: vec![p.min(c), p.max(c)],
                    pending,
                });
            }
            p => {
                let set = &mut self.big[(p & !BIG) as usize];
                match set.cells.binary_search(&c) {
                    Ok(_) => return,
                    Err(at) => {
                        set.cells.insert(at, c);
                        set.pending.push(c);
                    }
                }
            }
        }
        let node = &mut self.nodes[n as usize];
        if !node.queued {
            node.queued = true;
            self.worklist.push(n);
        }
    }

    /// Adds the subset edge `dst ⊇ src` and propagates the current set.
    fn add_copy(&mut self, src: u32, dst: u32) {
        if src == dst || !self.copy_seen.insert(u64::from(src) << 32 | u64::from(dst)) {
            return;
        }
        let e = self.edges.len() as u32;
        self.edges.push((dst, NONE));
        let node = &mut self.nodes[src as usize];
        match node.copy_tail {
            NONE => node.copy_head = e,
            tail => self.edges[tail as usize].1 = e,
        }
        node.copy_tail = e;
        let mut set = std::mem::take(&mut self.set_buf);
        set.clear();
        set.extend_from_slice(self.pts(src));
        for &c in &set {
            self.insert(dst, c);
        }
        self.set_buf = set;
    }

    /// The literal node of global `g`, which points to `g`'s cell.
    fn lit(&mut self, g: GlobalId) -> u32 {
        let n = self.lit[g.0 as usize];
        if n != NONE {
            return n;
        }
        let c = self.intern_cell(ObjBase::Global(g), 0, false, true);
        let n = lazy_node(&mut self.nodes, &mut self.lit[g.0 as usize]);
        self.insert(n, c);
        n
    }

    /// The node of instruction `i` of `f`, numbered next if it is new.
    fn var(&mut self, f: FuncId, i: InstId) -> u32 {
        let slot = (self.slot_base[f.0 as usize] + i.0) as usize;
        lazy_node(&mut self.nodes, &mut self.var[slot])
    }

    /// The node of parameter `j` of `f`, numbered next if it is new.
    fn param(&mut self, f: FuncId, j: u32) -> u32 {
        let slots = &mut self.param[f.0 as usize];
        if slots.len() <= j as usize {
            slots.resize(j as usize + 1, NONE);
        }
        lazy_node(&mut self.nodes, &mut slots[j as usize])
    }

    /// The return node of `f`, numbered next if it is new.
    fn ret(&mut self, f: FuncId) -> u32 {
        lazy_node(&mut self.nodes, &mut self.ret[f.0 as usize])
    }

    /// The node `v` resolves to in function `f`, or `None` for
    /// non-pointers.
    fn node(&mut self, f: FuncId, v: Value) -> Option<u32> {
        match v {
            Value::Inst(i) => Some(self.var(f, i)),
            Value::Param(j) => Some(self.param(f, j)),
            Value::Global(g) => Some(self.lit(g)),
            Value::Const(_) | Value::Null | Value::Func(_) => None,
        }
    }

    /// An object at `base`, pointed to by instruction `i` of `f`.
    fn add_obj(&mut self, f: FuncId, i: InstId, base: ObjBase, shareable: bool) {
        let c = self.intern_cell(base, 0, false, shareable);
        let n = self.var(f, i);
        self.insert(n, c);
        self.stats.constraints += 1;
    }

    /// The base constraint `dst ⊇ src`.
    fn add_base_copy(&mut self, src: u32, dst: u32) {
        self.add_copy(src, dst);
        self.stats.constraints += 1;
    }

    /// A `load`, `store` or `gep` constraint on pointer node `p`.
    fn add_complex(&mut self, p: u32, e: Complex) {
        self.complex.push((p, e));
        self.stats.constraints += 1;
    }

    /// Generates the base constraints of function `f`. Each constraint
    /// names its nodes as it goes — pointer before value, argument before
    /// callee parameter, callee return before call result — which fixes
    /// the node and cell numbering, and with it the solver statistics.
    fn gen_func(&mut self, f: FuncId, func: &Function) {
        let mut escape: Option<EscapeInfo> = None;
        for (_, inst) in func.insts() {
            assert!(
                inst.id.0 < func.next_inst,
                "points-to needs a verified module: {} is not below next_inst",
                inst.id
            );
            let id = inst.id;
            match &inst.kind {
                InstKind::Alloca { .. } => {
                    let escape = escape.get_or_insert_with(|| EscapeInfo::new(&func.inst_index()));
                    let shareable = !escape.is_private_slot(id);
                    self.add_obj(f, id, ObjBase::Stack(f, id), shareable);
                }
                InstKind::Load { ptr, .. } => {
                    if let Some(p) = self.node(f, *ptr) {
                        let dst = self.var(f, id);
                        self.add_complex(p, Complex::Load { dst });
                    }
                }
                InstKind::Store { ptr, val, .. } => {
                    // With only one pointer side the store still names
                    // that node, but adds no constraint.
                    let p = self.node(f, *ptr);
                    if let (Some(p), Some(src)) = (p, self.node(f, *val)) {
                        self.add_complex(p, Complex::Store { src });
                    }
                }
                // The result is the old contents; on success `cmpxchg` stores
                // its `new` value, `xchg` its operand verbatim, and the
                // arithmetic `rmw` ops over-approximate by the operand.
                InstKind::Cmpxchg { ptr, new: val, .. } | InstKind::Rmw { ptr, val, .. } => {
                    if let Some(p) = self.node(f, *ptr) {
                        let dst = self.var(f, id);
                        self.add_complex(p, Complex::Load { dst });
                        if let Some(src) = self.node(f, *val) {
                            self.add_complex(p, Complex::Store { src });
                        }
                    }
                }
                InstKind::Gep { base, indices, .. } => {
                    // The leading index scales whole objects (LLVM semantics)
                    // and is dropped, which also makes pointer arithmetic
                    // `p + n` alias `p` — sound for a may-analysis.
                    if let Some(base) = self.node(f, *base) {
                        let dst = self.var(f, id);
                        let mut path = std::mem::take(&mut self.path_buf);
                        path.clear();
                        let steps = indices.iter().skip(1).map(|i| i.as_const());
                        path.extend(steps.map(|c| c.unwrap_or(ANY_INDEX)));
                        let path_id = self.intern_path(&path);
                        self.path_buf = path;
                        self.add_complex(base, Complex::Gep { dst, path: path_id });
                    }
                }
                InstKind::Cast { value, .. } => {
                    // Type-agnostic copy: pointers survive laundering through
                    // integers (`(long)p` … `(T*)v`).
                    if let Some(src) = self.node(f, *value) {
                        let dst = self.var(f, id);
                        self.add_base_copy(src, dst);
                    }
                }
                InstKind::Bin { op, lhs, rhs, .. } => {
                    // Pointer ± integer arithmetic on laundered pointers:
                    // propagate through add/sub only. The result is named
                    // before its operands.
                    if matches!(op, atomig_mir::BinOp::Add | atomig_mir::BinOp::Sub) {
                        let dst = self.var(f, id);
                        for v in [*lhs, *rhs] {
                            if let Some(src) = self.node(f, v) {
                                self.add_base_copy(src, dst);
                            }
                        }
                    }
                }
                InstKind::Cmp { .. } | InstKind::Fence { .. } => {}
                InstKind::Call { callee, args, .. } => match callee {
                    Callee::Func(t) => {
                        for (j, a) in args.iter().enumerate() {
                            if let Some(src) = self.node(f, *a) {
                                let dst = self.param(*t, j as u32);
                                self.add_base_copy(src, dst);
                            }
                        }
                        let src = self.ret(*t);
                        let dst = self.var(f, id);
                        self.add_base_copy(src, dst);
                    }
                    Callee::Builtin(Builtin::Malloc) => {
                        self.add_obj(f, id, ObjBase::Heap(f, id), true);
                    }
                    Callee::Builtin(Builtin::Spawn) => {
                        if let (Some(Value::Func(t)), Some(a)) = (args.first(), args.get(1)) {
                            if let Some(src) = self.node(f, *a) {
                                let dst = self.param(*t, 0);
                                self.add_base_copy(src, dst);
                            }
                        }
                    }
                    Callee::Builtin(_) => {}
                },
            }
        }
        for b in func.block_ids() {
            if let Terminator::Ret(Some(v)) = &func.block(b).term {
                if let Some(src) = self.node(f, *v) {
                    let dst = self.ret(f);
                    self.add_base_copy(src, dst);
                }
            }
        }
    }

    /// Files the complex constraints under their pointer nodes: node `n`'s
    /// are `list[start[n]..start[n + 1]]`, geps first, then loads, then
    /// stores, each in generation order.
    fn group_complex(&mut self) -> (Vec<u32>, Vec<Complex>) {
        let complex = std::mem::take(&mut self.complex);
        let mut start = vec![0u32; self.nodes.len() + 1];
        for &(p, _) in &complex {
            start[p as usize + 1] += 1;
        }
        for n in 0..self.nodes.len() {
            start[n + 1] += start[n];
        }
        let mut next = start.clone();
        let mut list = vec![Complex::Load { dst: NONE }; complex.len()];
        for rank in 0..3 {
            for &(p, e) in complex.iter().filter(|(_, e)| e.rank() == rank) {
                list[next[p as usize] as usize] = e;
                next[p as usize] += 1;
            }
        }
        (start, list)
    }

    fn solve(&mut self) {
        let (start, complex) = self.group_complex();
        let mut delta = Vec::new();
        while let Some(n) = self.worklist.pop() {
            let node = &mut self.nodes[n as usize];
            node.queued = false;
            node.pops += 1;
            self.stats.iterations += 1;
            delta.clear();
            match node.pts {
                NONE => {}
                p if p & BIG == 0 => delta.push(p),
                p => {
                    std::mem::swap(&mut delta, &mut self.big[(p & !BIG) as usize].pending);
                    delta.sort_unstable();
                }
            }
            if delta.is_empty() {
                continue;
            }
            // Simple edges: push the delta to all copy successors.
            let mut e = self.nodes[n as usize].copy_head;
            while e != NONE {
                let (dst, next) = self.edges[e as usize];
                for &c in &delta {
                    self.insert(dst, c);
                }
                e = next;
            }
            // Complex edges: each new pointee materializes copy edges
            // from/to its contents node, or a derived field cell. Nodes
            // numbered while solving are contents nodes, which own none.
            let own = match start.get(n as usize..n as usize + 2) {
                Some(&[lo, hi]) => &complex[lo as usize..hi as usize],
                _ => &[],
            };
            for &c in &delta {
                for &e in own {
                    match e {
                        Complex::Gep { dst, path } => {
                            let fc = self.gep_cell(c, path);
                            self.insert(dst, fc);
                        }
                        Complex::Load { dst } => {
                            let k = lazy_node(&mut self.nodes, &mut self.content[c as usize]);
                            self.add_copy(k, dst);
                        }
                        Complex::Store { src } => {
                            let k = lazy_node(&mut self.nodes, &mut self.content[c as usize]);
                            self.add_copy(src, k);
                        }
                    }
                }
            }
        }
        self.stats.passes = self.nodes.iter().map(|n| n.pops).max().unwrap_or(0) as usize;
    }

    /// The cells of every memory access, as a CSR over the `Var` slots:
    /// slot `k`'s cells are `cells[start[k]..start[k + 1]]`, empty for
    /// slots that are not accesses.
    fn resolve_accesses(&mut self, m: &Module) -> (Vec<u32>, Vec<CellId>) {
        let mut start = Vec::with_capacity(self.var.len() + 1);
        let mut cells = Vec::new();
        let mut node_of_id = Vec::new();
        for fid in m.func_ids() {
            let func = m.func(fid);
            let base = self.slot_base[fid.0 as usize] as usize;
            node_of_id.clear();
            node_of_id.resize(func.next_inst as usize, NONE);
            for (_, inst) in func.insts() {
                if !inst.kind.is_memory_access() {
                    continue;
                }
                node_of_id[inst.id.0 as usize] = match inst.kind.address() {
                    Some(Value::Global(g)) => self.lit(g),
                    Some(Value::Inst(id)) => self.var[base + id.0 as usize],
                    Some(Value::Param(j)) => self.param[fid.0 as usize]
                        .get(j as usize)
                        .copied()
                        .unwrap_or(NONE),
                    _ => NONE,
                };
            }
            for &n in &node_of_id {
                start.push(cells.len() as u32);
                if n != NONE {
                    cells.extend(self.pts(n).iter().map(|&c| CellId(c)));
                }
            }
        }
        start.push(cells.len() as u32);
        (start, cells)
    }
}

/// The solved analysis: per-access cell sets plus overlap queries.
#[derive(Debug)]
pub struct PointsTo {
    cells: Vec<Cell>,
    /// Whether each cell may be visible to more than one thread (globals,
    /// heap objects, and *escaping* stack slots).
    shareable: Vec<bool>,
    /// First slot of each function — its instruction ids are dense below
    /// `next_inst` — then the slot count.
    slot_base: Vec<u32>,
    /// Cells of the access in slot `k`: `access_cells[access_start[k]..
    /// access_start[k + 1]]`.
    access_start: Vec<u32>,
    access_cells: Vec<CellId>,
    /// Solver statistics.
    pub stats: PointsToStats,
}

impl PointsTo {
    /// Generates and solves the constraint system for `m`. `m` must be
    /// verified: every instruction id below its function's `next_inst`.
    pub fn analyze(m: &Module) -> PointsTo {
        let t0 = Instant::now();
        let mut s = Solver::new(m);
        for fid in m.func_ids() {
            s.gen_func(fid, m.func(fid));
        }
        s.solve();
        let (access_start, access_cells) = s.resolve_accesses(m);
        let mut stats = s.stats;
        stats.nodes = s.nodes.len();
        stats.cells = s.cells.len();
        stats.solve_time = t0.elapsed();
        PointsTo {
            cells: s.cells,
            shareable: s.shareable,
            slot_base: s.slot_base,
            access_start,
            access_cells,
            stats,
        }
    }

    /// The cells the address operand of access `(f, i)` may point to.
    /// Empty when the pointer is statically unresolvable (e.g. a library
    /// entry point's parameter no caller binds), and for any id that is
    /// not a memory access.
    pub fn cells_of_access(&self, f: FuncId, i: InstId) -> &[CellId] {
        let f = f.0 as usize;
        let Some(&[base, end]) = self.slot_base.get(f..f + 2) else {
            return &[];
        };
        let slot = base as usize + i.0 as usize;
        if slot >= end as usize {
            return &[];
        }
        &self.access_cells[self.access_start[slot] as usize..self.access_start[slot + 1] as usize]
    }

    /// The interned cell behind an id.
    pub fn cell(&self, c: CellId) -> &Cell {
        &self.cells[c.0 as usize]
    }

    /// Number of distinct cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Whether a cell may be visible to more than one thread.
    pub fn is_shareable(&self, c: CellId) -> bool {
        self.shareable[c.0 as usize]
    }

    /// May the two cells overlap in memory? Same allocation site, and the
    /// common prefix of the field paths is element-wise compatible
    /// (`ANY_INDEX` matches anything). A shorter path denotes the
    /// enclosing object and conservatively overlaps its fields, as do
    /// summary cells.
    pub fn cells_overlap(&self, a: CellId, b: CellId) -> bool {
        let (ca, cb) = (self.cell(a), self.cell(b));
        if ca.base != cb.base {
            return false;
        }
        let n = ca.path.len().min(cb.path.len());
        for i in 0..n {
            let (x, y) = (ca.path[i], cb.path[i]);
            if x != y && x != ANY_INDEX && y != ANY_INDEX {
                return false;
            }
        }
        true
    }

    /// Whether any pair of cells from the two sets may overlap.
    pub fn sets_overlap(&self, a: &[CellId], b: &[CellId]) -> bool {
        a.iter()
            .any(|&x| b.iter().any(|&y| self.cells_overlap(x, y)))
    }

    /// Whether the accesses `(f1, i1)` and `(f2, i2)` may touch the same
    /// memory.
    pub fn accesses_alias(&self, f1: FuncId, i1: InstId, f2: FuncId, i2: InstId) -> bool {
        self.sets_overlap(self.cells_of_access(f1, i1), self.cells_of_access(f2, i2))
    }

    /// A human-readable description of a cell against the module that was
    /// analyzed (global / function names instead of raw ids).
    pub fn describe_cell(&self, m: &Module, c: CellId) -> String {
        let cell = self.cell(c);
        let mut s = match cell.base {
            ObjBase::Global(g) => m.globals[g.0 as usize].name.clone(),
            ObjBase::Stack(f, id) => format!("stack@{}:%t{}", m.func(f).name, id.0),
            ObjBase::Heap(f, id) => format!("heap@{}:%t{}", m.func(f).name, id.0),
        };
        if !cell.path.is_empty() {
            s.push_str(&format!("{:?}", cell.path));
        }
        if cell.summary {
            s.push('…');
        }
        s
    }
}

impl fmt::Display for PointsToStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} cells, {} constraints, {} iterations, {} passes, {:.1?}",
            self.nodes, self.cells, self.constraints, self.iterations, self.passes, self.solve_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_access(m: &Module, fname: &str, nth: usize) -> (FuncId, InstId) {
        let fid = m.func_by_name(fname).unwrap();
        let id = m
            .func(fid)
            .insts()
            .filter(|(_, i)| i.kind.is_memory_access())
            .nth(nth)
            .map(|(_, i)| i.id)
            .unwrap();
        (fid, id)
    }

    #[test]
    fn globals_alias_across_functions_but_not_each_other() {
        let m = atomig_mir::parse_module(
            r#"
            global @flag: i32 = 0
            global @msg: i32 = 0
            fn @r() : i32 {
            bb0:
              %f = load i32, @flag
              %v = load i32, @msg
              ret %v
            }
            fn @w() : void {
            bb0:
              store i32 1, @flag
              ret
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let (rf, flag_load) = first_access(&m, "r", 0);
        let (_, msg_load) = first_access(&m, "r", 1);
        let (wf, flag_store) = first_access(&m, "w", 0);
        assert!(pt.accesses_alias(rf, flag_load, wf, flag_store));
        assert!(!pt.accesses_alias(rf, msg_load, wf, flag_store));
    }

    #[test]
    fn struct_fields_are_distinguished_through_calls() {
        // A heap node flows into `use_node` via a direct call; its two
        // fields must not alias each other, but the same field accessed
        // in caller and callee must.
        let m = atomig_frontc::compile(
            r#"
            struct Node { long state; long key; };
            long use_node(struct Node *n) { return n->state; }
            int main() {
              struct Node *n = (struct Node*)malloc(2);
              n->key = 7;
              n->state = 1;
              long s = use_node(n);
              return (int)s;
            }
            "#,
            "t",
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        // The callee's only heap access is the `n->state` load (the other
        // loads/stores hit the -O0 parameter slot).
        let uf = m.func_by_name("use_node").unwrap();
        let callee_state_load = m
            .func(uf)
            .insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Load { .. }))
            .find(|(_, i)| {
                pt.cells_of_access(uf, i.id)
                    .iter()
                    .any(|&c| matches!(pt.cell(c).base, ObjBase::Heap(..)))
            })
            .map(|(_, i)| i.id)
            .unwrap();
        let main = m.func_by_name("main").unwrap();
        // Find main's key store and state store by span order: the key
        // store comes first in the source.
        let stores: Vec<InstId> = m
            .func(main)
            .insts()
            .filter(|(_, i)| {
                matches!(&i.kind, InstKind::Store { ptr, .. } if matches!(ptr, Value::Inst(_)))
                    && pt
                        .cells_of_access(main, i.id)
                        .iter()
                        .any(|&c| matches!(pt.cell(c).base, ObjBase::Heap(..)))
            })
            .map(|(_, i)| i.id)
            .collect();
        assert_eq!(stores.len(), 2, "key + state stores resolve to the heap");
        let key_store = stores[0];
        let state_store = stores[1];
        assert!(!pt.accesses_alias(main, key_store, main, state_store));
        assert!(pt.accesses_alias(uf, callee_state_load, main, state_store));
        assert!(!pt.accesses_alias(uf, callee_state_load, main, key_store));
    }

    #[test]
    fn pointer_survives_integer_cast_through_spawn() {
        // The lf-hash pattern: a heap pointer is laundered through a
        // `long`, crosses a spawn edge, and is cast back in the thread.
        let m = atomig_frontc::compile(
            r#"
            struct Node { long state; long key; };
            void deleter(long addr) {
              struct Node *n = (struct Node*)addr;
              n->key = 0;
            }
            int main() {
              struct Node *n = (struct Node*)malloc(2);
              n->key = 77;
              long t = spawn(deleter, (long)n);
              join(t);
              return 0;
            }
            "#,
            "t",
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let main = m.func_by_name("main").unwrap();
        let del = m.func_by_name("deleter").unwrap();
        let heap_store = |f: FuncId| {
            m.func(f)
                .insts()
                .filter(|(_, i)| matches!(i.kind, InstKind::Store { .. }))
                .find(|(_, i)| {
                    pt.cells_of_access(f, i.id)
                        .iter()
                        .any(|&c| matches!(pt.cell(c).base, ObjBase::Heap(..)))
                })
                .map(|(_, i)| i.id)
                .unwrap()
        };
        let main_key = heap_store(main);
        let del_key = heap_store(del);
        assert!(
            pt.accesses_alias(main, main_key, del, del_key),
            "the key field aliases across the spawn edge"
        );
    }

    #[test]
    fn distinct_malloc_sites_do_not_alias() {
        let m = atomig_frontc::compile(
            r#"
            int main() {
              long *a = (long*)malloc(1);
              long *b = (long*)malloc(1);
              *a = 1;
              *b = 2;
              return 0;
            }
            "#,
            "t",
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let main = m.func_by_name("main").unwrap();
        let heap_stores: Vec<InstId> = m
            .func(main)
            .insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Store { .. }))
            .filter(|(_, i)| {
                pt.cells_of_access(main, i.id)
                    .iter()
                    .any(|&c| matches!(pt.cell(c).base, ObjBase::Heap(..)))
            })
            .map(|(_, i)| i.id)
            .collect();
        assert_eq!(heap_stores.len(), 2);
        assert!(!pt.accesses_alias(main, heap_stores[0], main, heap_stores[1]));
    }

    #[test]
    fn pointer_through_memory_cell() {
        // &g is stored into a global pointer slot; a load through the
        // slot must alias direct accesses of g.
        let m = atomig_mir::parse_module(
            r#"
            global @g: i32 = 0
            global @slot: ptr i32 = 0
            fn @setup() : void {
            bb0:
              store ptr i32 @g, @slot
              ret
            }
            fn @use() : i32 {
            bb0:
              %p = load ptr i32, @slot
              %v = load i32, %p
              ret %v
            }
            fn @direct() : void {
            bb0:
              store i32 9, @g
              ret
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let (uf, indirect_load) = first_access(&m, "use", 1);
        let (df, direct_store) = first_access(&m, "direct", 0);
        let (_, slot_load) = first_access(&m, "use", 0);
        assert!(pt.accesses_alias(uf, indirect_load, df, direct_store));
        assert!(!pt.accesses_alias(uf, slot_load, df, direct_store));
    }

    #[test]
    fn returned_pointer_binds_to_caller() {
        let m = atomig_mir::parse_module(
            r#"
            global @g: i32 = 0
            fn @get() : ptr i32 {
            bb0:
              ret @g
            }
            fn @use() : i32 {
            bb0:
              %p = call ptr i32 @get()
              %v = load i32, %p
              ret %v
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let (uf, v_load) = first_access(&m, "use", 0);
        let cells = pt.cells_of_access(uf, v_load);
        assert_eq!(cells.len(), 1);
        assert_eq!(
            pt.cell(cells[0]).base,
            ObjBase::Global(atomig_mir::GlobalId(0))
        );
    }

    #[test]
    fn dynamic_index_wildcards_overlap_constant_indices() {
        let m = atomig_mir::parse_module(
            r#"
            global @table: [8 x i64] = 0
            fn @any(%i: i64) : i64 {
            bb0:
              %a = gep [8 x i64], @table, 0, %i
              %v = load i64, %a
              ret %v
            }
            fn @third() : void {
            bb0:
              %a = gep [8 x i64], @table, 0, 3
              store i64 1, %a
              ret
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let (af, any_load) = first_access(&m, "any", 0);
        let (tf, third_store) = first_access(&m, "third", 0);
        assert!(pt.accesses_alias(af, any_load, tf, third_store));
    }

    #[test]
    fn private_stack_cells_are_not_shareable() {
        let m = atomig_mir::parse_module(
            r#"
            fn @g(%p: ptr i32) : void {
            bb0:
              store i32 1, %p
              ret
            }
            fn @f() : i32 {
            bb0:
              %private = alloca i32
              %escaped = alloca i32
              store i32 0, %private
              call void @g(%escaped)
              %v = load i32, %private
              ret %v
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        let ff = m.func_by_name("f").unwrap();
        let (_, priv_store) = first_access(&m, "f", 0);
        let priv_cells = pt.cells_of_access(ff, priv_store);
        assert_eq!(priv_cells.len(), 1);
        assert!(!pt.is_shareable(priv_cells[0]));
        // The escaped slot is accessed in @g through the bound parameter.
        let (gf, g_store) = first_access(&m, "g", 0);
        let g_cells = pt.cells_of_access(gf, g_store);
        assert_eq!(g_cells.len(), 1);
        assert!(pt.is_shareable(g_cells[0]));
        assert!(matches!(pt.cell(g_cells[0]).base, ObjBase::Stack(..)));
    }

    #[test]
    fn path_truncation_terminates_and_summarizes() {
        // A gep feeding itself through a memory cell would grow paths
        // forever without the MAX_PATH cap.
        let m = atomig_mir::parse_module(
            r#"
            struct %N { i64, ptr %N }
            global @head: ptr %N = 0
            fn @walk() : void {
            bb0:
              %p = load ptr %N, @head
              br loop
            loop:
              %q = gep %N, %p, 0, 1
              %n = load ptr %N, %q
              store ptr %N %n, @head
              br loop
            }
            "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&m);
        assert!(pt.stats.cells < 100, "cell universe stays bounded");
    }

    /// Edge cases of the flat per-slot access table.
    #[test]
    fn cells_of_access_covers_every_slot_edge() {
        let m = atomig_mir::parse_module(
            r#"
            global @g: i32 = 0
            fn @lib(%p: ptr i32) : i32 {
            bb0:
              %v = load i32, %p
              ret %v
            }
            fn @quiet(%x: i64) : i64 {
            bb0:
              %y = add %x, 1
              ret %y
            }
            fn @last() : void {
            bb0:
              %a = alloca i32
              store i32 1, %a
              store i32 1, @g
              ret
            }
            "#,
        )
        .unwrap();
        atomig_mir::verify_module(&m).unwrap();
        let pt = PointsTo::analyze(&m);
        // An access whose pointer no caller binds resolves to nothing.
        let (lib, v) = first_access(&m, "lib", 0);
        assert_eq!(pt.cells_of_access(lib, v), &[]);
        // A function without accesses has only empty slots.
        let quiet = m.func_by_name("quiet").unwrap();
        for i in 0..m.func(quiet).next_inst {
            assert_eq!(pt.cells_of_access(quiet, InstId(i)), &[]);
        }
        // Ids that are not memory accesses are empty, as are ids and
        // functions past the end of the table.
        let last = m.func_by_name("last").unwrap();
        let (_, slot_store) = first_access(&m, "last", 0);
        let (_, g_store) = first_access(&m, "last", 1);
        let alloca = m.func(last).insts().next().unwrap().1.id;
        assert_eq!(pt.cells_of_access(last, alloca), &[]);
        assert_eq!(
            pt.cells_of_access(last, InstId(m.func(last).next_inst)),
            &[]
        );
        assert_eq!(
            pt.cells_of_access(FuncId(m.funcs.len() as u32), InstId(0)),
            &[]
        );
        // The last access of the last function fills the final slot.
        assert_eq!(g_store.0 + 1, m.func(last).next_inst);
        let cells = pt.cells_of_access(last, g_store);
        assert_eq!(cells.len(), 1);
        assert_eq!(
            pt.cell(cells[0]).base,
            ObjBase::Global(atomig_mir::GlobalId(0))
        );
        let slot = pt.cells_of_access(last, slot_store);
        assert_eq!(slot.len(), 1);
        assert_eq!(pt.cell(slot[0]).base, ObjBase::Stack(last, alloca));
    }
}
