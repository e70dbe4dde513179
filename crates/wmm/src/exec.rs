//! The threaded MIR executor, generic over a [`MemModel`].
//!
//! One [`Machine`] instance is one program state: threads (frames,
//! registers, stack pointers, stack memory), the memory model state, and
//! bookkeeping. The model checker clones machines to branch over
//! nondeterminism; the interpreter drives a single machine
//! deterministically. Threads sit behind [`Shared`] nodes, so a clone
//! shares them, a step copies only the thread it runs, and a fingerprint
//! re-hashes only the threads a step copied. Execution runs over a
//! [`Program`] that every machine borrows, so the hot path never
//! allocates.

use crate::compiled::{CInst, CTerm, CompiledProgram};
use crate::flatmap::FlatMap;
use crate::mem::{stack_base, stack_owner, Layout, HEAP_BASE, STACK_SIZE};
use crate::models::{Chooser, MemModel};
use crate::shared::{digest, Shared};
use atomig_mir::{BlockId, Builtin, FuncId, InstId, Module, Ordering, Value};
use std::hash::{Hash, Hasher};

/// Why a machine stopped making progress.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Failure {
    /// An `assert` builtin saw 0.
    Assert {
        /// Function containing the assertion.
        func: String,
    },
    /// A runtime error (null deref, division by zero, budget blown...).
    Trap(String),
    /// No thread can run but not all have finished.
    Deadlock,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Assert { func } => write!(f, "assertion violated in @{func}"),
            Failure::Trap(msg) => write!(f, "trap: {msg}"),
            Failure::Deadlock => write!(f, "deadlock"),
        }
    }
}

/// A module made ready to run: its memory layout and compiled code.
/// Build it once per check or run; every machine borrows it.
#[derive(Debug)]
pub struct Program<'m> {
    module: &'m Module,
    layout: Layout,
    code: CompiledProgram,
}

impl<'m> Program<'m> {
    /// Lays out and compiles `module`.
    pub fn new(module: &'m Module) -> Program<'m> {
        let layout = Layout::new(module);
        let code = CompiledProgram::compile(module, &layout);
        Program {
            module,
            layout,
            code,
        }
    }
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// Can take a step.
    Runnable,
    /// Waiting in `join(target)`.
    Join(usize),
    /// Waiting at the barrier.
    Barrier,
    /// Finished with a return value.
    Done(i64),
}

/// The most arguments a builtin takes (`spawn(f, arg)`).
const MAX_BUILTIN_ARGS: usize = 2;

/// One call frame.
///
/// Registers are a dense array indexed by register number (the `id` of a
/// value-producing [`CInst`]), and the frame's parameters follow them in
/// the same vector: one allocation per frame, and cloning a frame is a
/// memcpy. An alloca's register doubles as its record: it holds the
/// slot's non-zero stack address once the alloca has run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    func: FuncId,
    block: BlockId,
    ip: u32,
    /// The register count: `regs[..n_regs]` are registers, the rest are
    /// parameters.
    n_regs: u32,
    regs: Vec<i64>,
    /// Caller register receiving our return value.
    ret_to: Option<InstId>,
    /// Thread stack pointer at frame entry; restored on return so
    /// long-running call loops do not leak stack.
    saved_sp: u64,
}

impl Frame {
    fn new(
        code: &CompiledProgram,
        func: FuncId,
        params: impl ExactSizeIterator<Item = i64>,
        ret_to: Option<InstId>,
        saved_sp: u64,
    ) -> Frame {
        let n_regs = code.funcs[func.0 as usize].n_regs;
        let mut regs = Vec::with_capacity(n_regs as usize + params.len());
        regs.resize(n_regs as usize, 0);
        regs.extend(params);
        Frame {
            func,
            block: BlockId(0),
            ip: 0,
            n_regs,
            regs,
            ret_to,
            saved_sp,
        }
    }

    /// The registers, without the parameters after them.
    #[inline]
    fn regs(&self) -> &[i64] {
        &self.regs[..self.n_regs as usize]
    }

    #[inline]
    fn set(&mut self, id: InstId, v: i64) {
        self.regs[..self.n_regs as usize][id.0 as usize] = v;
    }

    #[inline]
    fn eval(&self, layout: &Layout, v: Value) -> i64 {
        match v {
            Value::Const(c) => c,
            Value::Null => 0,
            Value::Global(g) => layout.global_addr(g) as i64,
            Value::Param(i) => self.regs[self.n_regs as usize..]
                .get(i as usize)
                .copied()
                .unwrap_or(0),
            Value::Inst(id) => self.regs().get(id.0 as usize).copied().unwrap_or(0),
            Value::Func(f) => f.0 as i64,
        }
    }
}

/// A thread's call stack. The innermost frame sits inline, so cloning a
/// thread that runs one frame copies no frame vector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CallStack {
    /// The innermost frame; `None` only when the stack is empty.
    top: Option<Frame>,
    /// The frames below `top`, outermost first.
    callers: Vec<Frame>,
}

impl CallStack {
    fn new(entry: Frame) -> CallStack {
        CallStack {
            top: Some(entry),
            callers: Vec::new(),
        }
    }

    fn push(&mut self, frame: Frame) {
        if let Some(caller) = self.top.replace(frame) {
            self.callers.push(caller);
        }
    }

    fn pop(&mut self) -> Option<Frame> {
        let frame = self.top.take();
        self.top = self.callers.pop();
        frame
    }
}

impl Hash for CallStack {
    /// The stream a `Vec<Frame>` of the frames, outermost first, writes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.callers.len() + usize::from(self.top.is_some()));
        for frame in self.callers.iter().chain(&self.top) {
            frame.hash(state);
        }
    }
}

/// One thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Thread {
    /// Call stack.
    frames: CallStack,
    /// Scheduling state.
    pub state: ThreadState,
    /// Next free stack slot.
    sp: u64,
    /// Stack limit.
    stack_end: u64,
    /// This thread's stack memory, kept outside the memory model: a
    /// thread's own stack is not observable by others (the same
    /// assumption the visibility reduction makes), so modelling write
    /// histories for it would only bloat states. Only the owner (see
    /// [`stack_owner`]) reads or writes it; other threads reach its
    /// addresses through the memory model. Shared data must live in
    /// globals or on the heap for the interleaving reduction to be sound;
    /// all bundled workloads respect this.
    stack_mem: FlatMap<u64, i64>,
}

impl Thread {
    /// Thread `tid` about to run `func(params...)`.
    fn new(code: &CompiledProgram, tid: usize, func: FuncId, params: &[i64]) -> Thread {
        Thread {
            frames: CallStack::new(Frame::new(
                code,
                func,
                params.iter().copied(),
                None,
                stack_base(tid),
            )),
            state: ThreadState::Runnable,
            sp: stack_base(tid),
            stack_end: stack_base(tid) + STACK_SIZE,
            stack_mem: FlatMap::new(),
        }
    }

    #[inline]
    fn frame(&self) -> &Frame {
        self.frames.top.as_ref().expect("live frame")
    }

    #[inline]
    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.top.as_mut().expect("live frame")
    }
}

/// Dynamic execution counters (Table 4's rows and the cost model's input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ExecStats {
    /// Plain (non-atomic) loads executed.
    pub plain_loads: u64,
    /// Plain (non-atomic) stores executed.
    pub plain_stores: u64,
    /// Atomic loads (any ordering) executed.
    pub atomic_loads: u64,
    /// Atomic stores (any ordering) executed.
    pub atomic_stores: u64,
    /// Acquire-or-weaker atomic loads (subset of `atomic_loads`).
    pub acq_loads: u64,
    /// Release-or-weaker atomic stores (subset of `atomic_stores`).
    pub rel_stores: u64,
    /// Atomic RMW operations (including cmpxchg).
    pub rmws: u64,
    /// Accesses to the thread's own stack (registers/spills after `-O2`;
    /// priced separately by the cost model).
    pub stack_ops: u64,
    /// Explicit full (SC) fences executed (`DMB ISH`).
    pub fences: u64,
    /// One-sided fences executed (`DMB ISHST`/`ISHLD`; acquire/release).
    pub light_fences: u64,
    /// Everything else (ALU, branches, calls...).
    pub other_ops: u64,
}

impl ExecStats {
    /// Total dynamic memory accesses.
    pub fn total_accesses(&self) -> u64 {
        self.plain_loads + self.plain_stores + self.atomic_loads + self.atomic_stores + self.rmws
    }
}

/// What a visible step did (used by the checker for classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Executed up to and including one visible action.
    Progress,
    /// The thread blocked (join/barrier) before a visible action.
    Blocked,
    /// The thread finished.
    Finished,
    /// The machine failed (see [`Machine::failure`]).
    Failed,
    /// `assume(0)` pruned this path.
    Pruned,
}

/// An executable program state.
pub struct Machine<'m, M: MemModel> {
    program: &'m Program<'m>,
    /// The memory model state.
    pub mem: M,
    /// All threads ever created (tid = index), shared with the machines
    /// this one was cloned from or into until a step changes them.
    pub threads: Vec<Shared<Thread>>,
    heap_next: u64,
    barrier_waiting: u64,
    /// Set on assertion violation / trap / deadlock.
    pub failure: Option<Failure>,
    /// Set when `assume(0)` made the path infeasible.
    pub pruned: bool,
    /// Set when the thread executed a `pause` spin hint; deterministic
    /// schedulers use it to rotate away from spin-waiters.
    pub yield_requested: bool,
    /// Values printed via the `print` builtin.
    pub output: Vec<i64>,
    /// Dynamic counters.
    pub stats: ExecStats,
    /// Total visible steps taken.
    pub steps: u64,
    /// Maximum invisible instructions per visible step before trapping.
    pub invisible_budget: u64,
}

impl<M: MemModel> Clone for Machine<'_, M> {
    fn clone(&self) -> Self {
        Machine {
            program: self.program,
            mem: self.mem.clone(),
            threads: self.threads.clone(),
            heap_next: self.heap_next,
            barrier_waiting: self.barrier_waiting,
            failure: self.failure.clone(),
            pruned: self.pruned,
            yield_requested: self.yield_requested,
            output: self.output.clone(),
            stats: self.stats,
            steps: self.steps,
            invisible_budget: self.invisible_budget,
        }
    }

    /// Copies `source` into this machine's own buffers (the thread list,
    /// the memory model's maps), so a machine the checker is done with
    /// becomes the next successor without allocating them again.
    fn clone_from(&mut self, source: &Self) {
        let Machine {
            program,
            mem,
            threads,
            heap_next,
            barrier_waiting,
            failure,
            pruned,
            yield_requested,
            output,
            stats,
            steps,
            invisible_budget,
        } = self;
        *program = source.program;
        mem.clone_from(&source.mem);
        threads.clone_from(&source.threads);
        *heap_next = source.heap_next;
        *barrier_waiting = source.barrier_waiting;
        failure.clone_from(&source.failure);
        *pruned = source.pruned;
        *yield_requested = source.yield_requested;
        output.clone_from(&source.output);
        *stats = source.stats;
        *steps = source.steps;
        *invisible_budget = source.invisible_budget;
    }
}

impl<'m, M: MemModel> Machine<'m, M> {
    /// Creates a machine about to run `entry(args...)` on thread 0.
    pub fn new(program: &'m Program<'m>, entry: FuncId, args: Vec<i64>, mut mem: M) -> Self {
        for (addr, val) in program.layout.initial_values(program.module) {
            mem.init(addr, val);
        }
        mem.ensure_threads(1);
        Machine {
            program,
            mem,
            threads: vec![Shared::new(Thread::new(&program.code, 0, entry, &args))],
            heap_next: HEAP_BASE,
            barrier_waiting: 0,
            failure: None,
            pruned: false,
            yield_requested: false,
            output: Vec::new(),
            stats: ExecStats::default(),
            steps: 0,
            invisible_budget: 1_000_000,
        }
    }

    /// Creates a machine running the module's `main` function.
    ///
    /// # Panics
    ///
    /// Panics if there is no `main`.
    pub fn for_main(program: &'m Program<'m>, mem: M) -> Self {
        let main = program
            .module
            .func_by_name("main")
            .expect("module has no @main");
        Machine::new(program, main, vec![], mem)
    }

    /// The module under execution.
    pub fn module(&self) -> &'m Module {
        self.program.module
    }

    /// The memory layout.
    pub fn layout(&self) -> &'m Layout {
        &self.program.layout
    }

    /// Whether thread `tid` can take a step now: it is runnable, or it
    /// waits in `join` on a thread that has finished.
    pub fn is_runnable(&self, tid: usize) -> bool {
        match self.threads[tid].state {
            ThreadState::Runnable => true,
            ThreadState::Join(target) => matches!(
                self.threads.get(target).map(|t| &t.state),
                Some(ThreadState::Done(_))
            ),
            _ => false,
        }
    }

    /// Threads that can currently take a step (resolving join wake-ups),
    /// in ascending order.
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&tid| self.is_runnable(tid))
            .collect()
    }

    /// Whether every thread has finished.
    pub fn all_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.state, ThreadState::Done(_)))
    }

    /// The final value of global `name` (post-mortem inspection).
    pub fn global_value(&self, name: &str) -> Option<i64> {
        let g = self.program.module.global_by_name(name)?;
        Some(self.mem.peek(self.program.layout.global_addr(g)))
    }

    /// The return value of thread `tid`, if finished.
    pub fn thread_result(&self, tid: usize) -> Option<i64> {
        match self.threads.get(tid)?.state {
            ThreadState::Done(v) => Some(v),
            _ => None,
        }
    }

    /// A 128-bit fingerprint of the whole state, for visited-state pruning.
    /// It hashes each [`Shared`] node (thread, history, view) through the
    /// node's cached digest, so only the nodes changed since the last
    /// fingerprint are hashed in full.
    pub fn fingerprint(&self) -> u128 {
        let [hi, lo] = digest(|h| self.hash_state(h));
        ((hi as u128) << 64) | lo as u128
    }

    /// [`Self::fingerprint`] with every digest recomputed from the
    /// contents: it differs from the fingerprint only if a cached digest
    /// is stale.
    #[cfg(debug_assertions)]
    pub(crate) fn uncached_fingerprint(&self) -> u128 {
        crate::shared::without_cache(|| self.fingerprint())
    }

    fn hash_state<H: Hasher>(&self, h: &mut H) {
        self.threads.hash(h);
        self.mem.hash(h);
        self.heap_next.hash(h);
        self.barrier_waiting.hash(h);
        self.pruned.hash(h);
        self.failure.hash(h);
    }

    fn trap(&mut self, msg: impl Into<String>) -> InstOutcome {
        self.failure = Some(Failure::Trap(msg.into()));
        InstOutcome::Failed
    }

    /// Writes register `id`, if any, of `tid`'s innermost frame.
    fn set_reg(&mut self, tid: usize, id: Option<InstId>, v: i64) {
        if let Some(id) = id {
            Shared::make_mut(&mut self.threads[tid])
                .frame_mut()
                .set(id, v);
        }
    }

    /// Performs one pending internal memory step (e.g. a TSO buffer
    /// flush) for `tid`.
    pub fn internal_step(&mut self, tid: usize) {
        self.mem.internal_step(tid);
        self.steps += 1;
    }

    /// Number of pending internal memory steps for `tid`.
    pub fn internal_steps(&self, tid: usize) -> usize {
        self.mem.internal_steps(tid)
    }

    /// Runs `tid` until it completes exactly one visible action, blocks,
    /// finishes, fails, or is pruned.
    pub fn step_visible(&mut self, tid: usize, ch: &mut dyn Chooser) -> StepOutcome {
        // Wake a join-blocked thread whose target finished.
        if let ThreadState::Join(target) = self.threads[tid].state {
            match self.threads.get(target).map(|t| &t.state) {
                // The `join` re-executes (its `ip` was rewound) and
                // synchronizes with the target then.
                Some(ThreadState::Done(_)) => {
                    Shared::make_mut(&mut self.threads[tid]).state = ThreadState::Runnable;
                }
                _ => return StepOutcome::Blocked,
            }
        }
        if !matches!(self.threads[tid].state, ThreadState::Runnable) {
            return StepOutcome::Blocked;
        }
        let mut budget = self.invisible_budget;
        let mut local_work: u32 = 0;
        loop {
            if budget == 0 {
                self.trap("invisible-step budget exhausted (local infinite loop?)");
                return StepOutcome::Failed;
            }
            budget -= 1;
            // Purely local computation still counts as work: bill it
            // coarsely against `steps` so schedulers' step limits bound
            // local loops too.
            local_work += 1;
            if local_work == 1024 {
                local_work = 0;
                self.steps += 1;
            }
            match self.step_inst(tid, ch) {
                InstOutcome::Invisible => continue,
                InstOutcome::Visible => {
                    self.steps += 1;
                    return StepOutcome::Progress;
                }
                InstOutcome::Blocked => return StepOutcome::Blocked,
                InstOutcome::Finished => {
                    self.steps += 1;
                    return StepOutcome::Finished;
                }
                InstOutcome::Failed => return StepOutcome::Failed,
                InstOutcome::Pruned => {
                    self.pruned = true;
                    return StepOutcome::Pruned;
                }
            }
        }
    }

    fn step_inst(&mut self, tid: usize, ch: &mut dyn Chooser) -> InstOutcome {
        let program = self.program;
        let layout = &program.layout;
        let thread = Shared::make_mut(&mut self.threads[tid]);
        let frame = thread.frame_mut();
        let cblock = &program.code.funcs[frame.func.0 as usize].blocks[frame.block.0 as usize];
        let Some(inst) = cblock.insts.get(frame.ip as usize) else {
            return self.step_terminator(tid, cblock.term);
        };
        frame.ip += 1;

        match inst {
            CInst::Alloca { id, slots } => {
                // Re-running an alloca (a loop back through its block)
                // keeps the slot it got first.
                if frame.regs()[id.0 as usize] != 0 {
                    return InstOutcome::Invisible;
                }
                let addr = thread.sp;
                if addr + slots > thread.stack_end {
                    return self.trap("stack overflow");
                }
                thread.sp += slots;
                thread.frame_mut().set(*id, addr as i64);
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CInst::Load { id, ptr, ord } => {
                let addr = frame.eval(layout, *ptr) as u64;
                if addr == 0 {
                    return self.trap("null pointer load");
                }
                let own_stack = stack_owner(addr) == Some(tid);
                let val = if own_stack {
                    thread.stack_mem.get(&addr).copied().unwrap_or(0)
                } else {
                    self.mem.load(tid, addr, *ord, ch)
                };
                thread.frame_mut().set(*id, val);
                if own_stack {
                    self.stats.stack_ops += 1;
                } else if ord.is_atomic() {
                    self.stats.atomic_loads += 1;
                    if *ord != Ordering::SeqCst {
                        self.stats.acq_loads += 1;
                    }
                } else {
                    self.stats.plain_loads += 1;
                }
                visibility(!own_stack)
            }
            CInst::Store { ptr, val, ord } => {
                let addr = frame.eval(layout, *ptr) as u64;
                if addr == 0 {
                    return self.trap("null pointer store");
                }
                let v = frame.eval(layout, *val);
                let own_stack = stack_owner(addr) == Some(tid);
                if own_stack {
                    thread.stack_mem.insert(addr, v);
                    self.stats.stack_ops += 1;
                } else {
                    self.mem.store(tid, addr, v, *ord);
                    if ord.is_atomic() {
                        self.stats.atomic_stores += 1;
                        if *ord != Ordering::SeqCst {
                            self.stats.rel_stores += 1;
                        }
                    } else {
                        self.stats.plain_stores += 1;
                    }
                }
                visibility(!own_stack)
            }
            CInst::Cmpxchg {
                id,
                ptr,
                expected,
                new,
                ord,
            } => {
                let addr = frame.eval(layout, *ptr) as u64;
                if addr == 0 {
                    return self.trap("null pointer cmpxchg");
                }
                let e = frame.eval(layout, *expected);
                let n = frame.eval(layout, *new);
                let own_stack = stack_owner(addr) == Some(tid);
                let old = if own_stack {
                    let old = thread.stack_mem.get(&addr).copied().unwrap_or(0);
                    if old == e {
                        thread.stack_mem.insert(addr, n);
                    }
                    old
                } else {
                    self.mem.cmpxchg(tid, addr, e, n, *ord)
                };
                thread.frame_mut().set(*id, old);
                self.stats.rmws += 1;
                visibility(!own_stack)
            }
            CInst::Rmw {
                id,
                op,
                ptr,
                val,
                ord,
            } => {
                let addr = frame.eval(layout, *ptr) as u64;
                if addr == 0 {
                    return self.trap("null pointer rmw");
                }
                let v = frame.eval(layout, *val);
                let own_stack = stack_owner(addr) == Some(tid);
                let old = if own_stack {
                    let old = thread.stack_mem.get(&addr).copied().unwrap_or(0);
                    thread.stack_mem.insert(addr, op.apply(old, v));
                    old
                } else {
                    self.mem.rmw(tid, addr, *op, v, *ord)
                };
                thread.frame_mut().set(*id, old);
                self.stats.rmws += 1;
                visibility(!own_stack)
            }
            CInst::Fence { ord } => {
                self.mem.fence(tid, *ord);
                if *ord == Ordering::SeqCst {
                    self.stats.fences += 1;
                } else {
                    self.stats.light_fences += 1;
                }
                InstOutcome::Visible
            }
            CInst::Gep {
                id,
                base,
                const_off,
                dyn_terms,
            } => {
                let mut addr = frame.eval(layout, *base).wrapping_add(*const_off);
                for t in dyn_terms.iter() {
                    addr = addr.wrapping_add(frame.eval(layout, t.value).wrapping_mul(t.stride));
                }
                frame.set(*id, addr);
                // Address arithmetic folds into addressing modes on Arm;
                // price it with the register class.
                self.stats.stack_ops += 1;
                InstOutcome::Invisible
            }
            CInst::Bin { id, op, lhs, rhs } => {
                let l = frame.eval(layout, *lhs);
                let r = frame.eval(layout, *rhs);
                use atomig_mir::BinOp::*;
                let res = match op {
                    Add => l.wrapping_add(r),
                    Sub => l.wrapping_sub(r),
                    Mul => l.wrapping_mul(r),
                    Div => {
                        if r == 0 {
                            return self.trap("division by zero");
                        }
                        l.wrapping_div(r)
                    }
                    Rem => {
                        if r == 0 {
                            return self.trap("remainder by zero");
                        }
                        l.wrapping_rem(r)
                    }
                    And => l & r,
                    Or => l | r,
                    Xor => l ^ r,
                    Shl => l.wrapping_shl(r as u32),
                    Shr => l.wrapping_shr(r as u32),
                };
                frame.set(*id, res);
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CInst::Cmp { id, pred, lhs, rhs } => {
                let l = frame.eval(layout, *lhs);
                let r = frame.eval(layout, *rhs);
                frame.set(*id, pred.eval(l, r) as i64);
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CInst::Cast { id, value, mask } => {
                let v = frame.eval(layout, *value);
                frame.set(*id, (v as u64 & mask) as i64);
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CInst::CallFunc { id, func, args } => {
                let caller = thread.frame();
                let params = args.iter().map(|a| caller.eval(layout, *a));
                let callee = Frame::new(&program.code, *func, params, *id, thread.sp);
                thread.frames.push(callee);
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CInst::CallBuiltin { id, builtin, args } => {
                let mut vals = [0; MAX_BUILTIN_ARGS];
                for (val, a) in vals.iter_mut().zip(args.iter()) {
                    *val = frame.eval(layout, *a);
                }
                let vals = &vals[..args.len().min(MAX_BUILTIN_ARGS)];
                self.stats.other_ops += 1;
                self.step_builtin(tid, *id, *builtin, vals, ch)
            }
        }
    }

    fn step_builtin(
        &mut self,
        tid: usize,
        id: Option<InstId>,
        b: Builtin,
        args: &[i64],
        ch: &mut dyn Chooser,
    ) -> InstOutcome {
        match b {
            Builtin::Spawn => {
                let fid = FuncId(args[0] as u32);
                if fid.0 as usize >= self.program.module.funcs.len() {
                    return self.trap("spawn of unknown function");
                }
                let child = self.threads.len();
                self.mem.ensure_threads(child + 1);
                self.mem.on_spawn(tid, child);
                let thread = Thread::new(&self.program.code, child, fid, &args[1..2]);
                self.threads.push(Shared::new(thread));
                self.set_reg(tid, id, child as i64);
                // Spawning is a visible (synchronizing) event.
                InstOutcome::Visible
            }
            Builtin::Join => {
                let target = args[0] as usize;
                match self.threads.get(target).map(|t| &t.state) {
                    Some(ThreadState::Done(_)) => {
                        self.mem.on_join(tid, target);
                        InstOutcome::Visible
                    }
                    Some(_) => {
                        // Re-execute the join when we are next scheduled.
                        let thread = Shared::make_mut(&mut self.threads[tid]);
                        thread.frame_mut().ip -= 1;
                        thread.state = ThreadState::Join(target);
                        InstOutcome::Blocked
                    }
                    None => self.trap("join of unknown thread"),
                }
            }
            Builtin::Assert => {
                if args[0] == 0 {
                    let func = self.threads[tid].frame().func;
                    let fname = self.program.code.funcs[func.0 as usize].name.clone();
                    self.failure = Some(Failure::Assert { func: fname });
                    InstOutcome::Failed
                } else {
                    InstOutcome::Invisible
                }
            }
            Builtin::Assume => {
                if args[0] == 0 {
                    InstOutcome::Pruned
                } else {
                    InstOutcome::Invisible
                }
            }
            Builtin::BarrierWait => {
                let n = args[0] as u64;
                self.barrier_waiting += 1;
                if self.barrier_waiting >= n {
                    // Release everyone (including us). The barrier
                    // synchronizes all participants: emulate with an SC
                    // fence per released thread.
                    self.barrier_waiting = 0;
                    for t in 0..self.threads.len() {
                        if matches!(self.threads[t].state, ThreadState::Barrier) {
                            self.mem.fence(t, Ordering::SeqCst);
                            Shared::make_mut(&mut self.threads[t]).state = ThreadState::Runnable;
                        }
                    }
                    self.mem.fence(tid, Ordering::SeqCst);
                    InstOutcome::Visible
                } else {
                    Shared::make_mut(&mut self.threads[tid]).state = ThreadState::Barrier;
                    self.mem.fence(tid, Ordering::SeqCst);
                    InstOutcome::Blocked
                }
            }
            Builtin::Malloc => {
                let slots = (args[0].max(1)) as u64;
                let addr = self.heap_next;
                self.heap_next += slots;
                self.set_reg(tid, id, addr as i64);
                InstOutcome::Invisible
            }
            Builtin::Free => InstOutcome::Invisible,
            Builtin::Pause => {
                self.stats.other_ops += 1;
                self.yield_requested = true;
                InstOutcome::Invisible
            }
            Builtin::CompilerBarrier => InstOutcome::Invisible,
            Builtin::Nondet => {
                let v = ch.choose(2) as i64;
                self.set_reg(tid, id, v);
                InstOutcome::Invisible
            }
            Builtin::Print => {
                self.output.push(args[0]);
                InstOutcome::Invisible
            }
        }
    }

    fn step_terminator(&mut self, tid: usize, term: CTerm) -> InstOutcome {
        let program = self.program;
        let layout = &program.layout;
        let thread = Shared::make_mut(&mut self.threads[tid]);
        match term {
            CTerm::Br(b) => {
                let frame = thread.frame_mut();
                frame.block = b;
                frame.ip = 0;
                InstOutcome::Invisible
            }
            CTerm::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let frame = thread.frame_mut();
                frame.block = if frame.eval(layout, cond) != 0 {
                    then_bb
                } else {
                    else_bb
                };
                frame.ip = 0;
                self.stats.other_ops += 1;
                InstOutcome::Invisible
            }
            CTerm::Ret(v) => {
                let val = v.map(|v| thread.frame().eval(layout, v)).unwrap_or(0);
                let frame = thread.frames.pop().expect("frame");
                thread.sp = frame.saved_sp;
                if let Some(parent) = thread.frames.top.as_mut() {
                    if let Some(dst) = frame.ret_to {
                        parent.set(dst, val);
                    }
                    InstOutcome::Invisible
                } else {
                    thread.state = ThreadState::Done(val);
                    self.mem.on_exit(tid);
                    InstOutcome::Finished
                }
            }
            CTerm::Unreachable => self.trap("reached unreachable"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstOutcome {
    Invisible,
    Visible,
    Blocked,
    Finished,
    Failed,
    Pruned,
}

#[inline]
fn visibility(visible: bool) -> InstOutcome {
    if visible {
        InstOutcome::Visible
    } else {
        InstOutcome::Invisible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{FirstChoice, ScMem};
    use atomig_mir::parse_module;

    fn run_to_completion(src: &str) -> Machine<'_, ScMem> {
        // Leak the program so the machine can borrow it in tests.
        let m = Box::leak(Box::new(parse_module(src).unwrap()));
        let program = Box::leak(Box::new(Program::new(m)));
        let mut machine = Machine::for_main(program, ScMem::default());
        let mut ch = FirstChoice;
        let mut guard = 0;
        while !machine.all_done() && machine.failure.is_none() && !machine.pruned {
            let runnable = machine.runnable();
            if runnable.is_empty() {
                machine.failure = Some(Failure::Deadlock);
                break;
            }
            machine.step_visible(runnable[0], &mut ch);
            guard += 1;
            assert!(guard < 100_000, "test did not terminate");
        }
        machine
    }

    #[test]
    fn computes_factorial_recursively() {
        let m = run_to_completion(
            r#"
            global @out: i64 = 0
            fn @fact(%n: i64) : i64 {
            bb0:
              %c = cmp le %n, 1
              condbr %c, base, rec_case
            base:
              ret 1
            rec_case:
              %n1 = sub %n, 1
              %r = call i64 @fact(%n1)
              %p = mul %n, %r
              ret %p
            }
            fn @main() : void {
            bb0:
              %f = call i64 @fact(5)
              store i64 %f, @out
              ret
            }
            "#,
        );
        assert!(m.failure.is_none());
        assert_eq!(m.global_value("out"), Some(120));
    }

    #[test]
    fn spawn_join_passes_results_through_memory() {
        let m = run_to_completion(
            r#"
            global @x: i64 = 0
            fn @worker(%v: i64) : void {
            bb0:
              %d = mul %v, 2
              store i64 %d, @x
              ret
            }
            fn @main() : void {
            bb0:
              %t = call i64 @spawn(@worker, 21)
              call void @join(%t)
              %v = load i64, @x
              call void @assert(%v)
              ret
            }
            "#,
        );
        assert!(m.failure.is_none(), "failure: {:?}", m.failure);
        assert_eq!(m.global_value("x"), Some(42));
    }

    #[test]
    fn assertion_failure_reported() {
        let m = run_to_completion(
            r#"
            fn @main() : void {
            bb0:
              call void @assert(0)
              ret
            }
            "#,
        );
        assert!(matches!(m.failure, Some(Failure::Assert { .. })));
    }

    #[test]
    fn assume_prunes() {
        let m = run_to_completion(
            r#"
            fn @main() : void {
            bb0:
              call void @assume(0)
              call void @assert(0)
              ret
            }
            "#,
        );
        assert!(m.pruned);
        assert!(m.failure.is_none());
    }

    #[test]
    fn arrays_and_geps_work() {
        let m = run_to_completion(
            r#"
            global @arr: [5 x i64] = [10, 20, 30, 40, 50]
            global @sum: i64 = 0
            fn @main() : void {
            entry:
              %i = alloca i64
              %acc = alloca i64
              store i64 0, %i
              store i64 0, %acc
              br header
            header:
              %iv = load i64, %i
              %c = cmp lt %iv, 5
              condbr %c, body, done
            body:
              %e = gep [5 x i64], @arr, 0, %iv
              %v = load i64, %e
              %a = load i64, %acc
              %s = add %a, %v
              store i64 %s, %acc
              %inc = add %iv, 1
              store i64 %inc, %i
              br header
            done:
              %r = load i64, %acc
              store i64 %r, @sum
              ret
            }
            "#,
        );
        assert_eq!(m.global_value("sum"), Some(150));
    }

    #[test]
    fn malloc_returns_distinct_chunks() {
        let m = run_to_completion(
            r#"
            global @ok: i64 = 0
            fn @main() : void {
            bb0:
              %p = call i64 @malloc(4)
              %q = call i64 @malloc(4)
              %c = cmp ne %p, %q
              %ci = cast %c to i64
              store i64 %ci, @ok
              store i64 7, %p
              store i64 9, %q
              %v = load i64, %p
              call void @assert(%v)
              ret
            }
            "#,
        );
        assert!(m.failure.is_none());
        assert_eq!(m.global_value("ok"), Some(1));
    }

    #[test]
    fn null_deref_traps() {
        let m = run_to_completion(
            r#"
            fn @main() : void {
            bb0:
              %v = load i64, null
              ret
            }
            "#,
        );
        assert!(matches!(m.failure, Some(Failure::Trap(_))));
    }

    #[test]
    fn division_by_zero_traps() {
        let m = run_to_completion(
            r#"
            global @z: i64 = 0
            fn @main() : void {
            bb0:
              %z = load i64, @z
              %d = div 1, %z
              ret
            }
            "#,
        );
        assert!(matches!(m.failure, Some(Failure::Trap(_))));
    }

    #[test]
    fn stats_count_access_kinds() {
        let m = run_to_completion(
            r#"
            global @x: i64 = 0
            fn @main() : void {
            bb0:
              store i64 1, @x
              %v = load i64, @x
              store i64 2, @x seq_cst
              %w = load i64, @x seq_cst
              %o = rmw add i64 @x, 1 seq_cst
              fence seq_cst
              ret
            }
            "#,
        );
        assert_eq!(m.stats.plain_stores, 1);
        assert_eq!(m.stats.plain_loads, 1);
        assert_eq!(m.stats.atomic_stores, 1);
        assert_eq!(m.stats.atomic_loads, 1);
        assert_eq!(m.stats.rmws, 1);
        assert_eq!(m.stats.fences, 1);
    }

    #[test]
    fn barrier_releases_all_participants() {
        let m = run_to_completion(
            r#"
            global @count: i64 = 0
            fn @worker(%n: i64) : void {
            bb0:
              %o = rmw add i64 @count, 1 seq_cst
              call void @barrier_wait(3)
              %v = load i64, @count seq_cst
              %c = cmp eq %v, 3
              %ci = cast %c to i64
              call void @assert(%ci)
              ret
            }
            fn @main() : void {
            bb0:
              %t1 = call i64 @spawn(@worker, 0)
              %t2 = call i64 @spawn(@worker, 0)
              %t3 = call i64 @spawn(@worker, 0)
              call void @join(%t1)
              call void @join(%t2)
              call void @join(%t3)
              ret
            }
            "#,
        );
        assert!(m.failure.is_none(), "failure: {:?}", m.failure);
    }
}
