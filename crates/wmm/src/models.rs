//! Operational memory models: SC, x86-TSO, and a view-based WMM.
//!
//! * [`ScMem`] — Lamport sequential consistency: a flat memory, every
//!   access takes effect immediately.
//! * [`TsoMem`] — the x86-TSO operational model (Sewell et al., CACM'10):
//!   per-thread FIFO store buffers with forwarding; fences and LOCK'd
//!   operations drain the buffer; buffered stores flush nondeterministically.
//! * [`ViewMem`] — a promise-free, view-based operational model of
//!   C11-style relaxed/acquire/release/SC accesses (à la Kang et al.'s
//!   view machine): per-location write histories with timestamps,
//!   per-thread views, release stores attach views, acquire loads join
//!   them, SC accesses/fences additionally synchronize through a global SC
//!   view. This model exhibits the store-buffering, message-passing and
//!   coherence weak behaviours the paper's bugs depend on; it does not
//!   exhibit load-buffering (none of the paper's patterns need it).

use crate::flatmap::FlatMap;
use crate::shared::Shared;
use atomig_mir::{Ordering, RmwOp};
use std::hash::Hash;

/// A source of nondeterministic decisions (scheduling-independent inner
/// choices such as which write a relaxed load reads).
pub trait Chooser {
    /// Picks one of `n` alternatives (`n >= 1`); must return `< n`.
    fn choose(&mut self, n: usize) -> usize;
}

/// Always takes alternative 0 (reads the oldest eligible / deterministic).
#[derive(Debug, Clone, Default)]
pub struct FirstChoice;

impl Chooser for FirstChoice {
    fn choose(&mut self, _n: usize) -> usize {
        0
    }
}

/// Always takes the last alternative (reads the newest eligible write —
/// the SC-like choice; used by the deterministic interpreter).
#[derive(Debug, Clone, Default)]
pub struct LastChoice;

impl Chooser for LastChoice {
    fn choose(&mut self, n: usize) -> usize {
        n - 1
    }
}

/// A memory model an executor can run against.
pub trait MemModel: Clone + Hash + Eq {
    /// Writes an initial value (program load time; no thread involved).
    fn init(&mut self, addr: u64, val: i64);

    /// Makes room for `n` threads.
    fn ensure_threads(&mut self, n: usize);

    /// A load by `tid`.
    fn load(&mut self, tid: usize, addr: u64, ord: Ordering, ch: &mut dyn Chooser) -> i64;

    /// A store by `tid`.
    fn store(&mut self, tid: usize, addr: u64, val: i64, ord: Ordering);

    /// An atomic read-modify-write; returns the old value.
    fn rmw(&mut self, tid: usize, addr: u64, op: RmwOp, operand: i64, ord: Ordering) -> i64;

    /// An atomic compare-exchange; returns the old value (success iff it
    /// equals `expected`).
    fn cmpxchg(&mut self, tid: usize, addr: u64, expected: i64, new: i64, ord: Ordering) -> i64;

    /// A stand-alone fence by `tid`.
    fn fence(&mut self, tid: usize, ord: Ordering);

    /// Number of pending internal steps for `tid` (TSO buffer flushes).
    fn internal_steps(&self, _tid: usize) -> usize {
        0
    }

    /// Performs one pending internal step.
    fn internal_step(&mut self, _tid: usize) {}

    /// Parent thread spawns child: child inherits the parent's view /
    /// the parent's buffered stores become visible (pthread_create
    /// synchronizes).
    fn on_spawn(&mut self, parent: usize, child: usize);

    /// Thread exits: its effects become globally visible.
    fn on_exit(&mut self, tid: usize);

    /// `joiner` joins `target` (pthread_join synchronizes).
    fn on_join(&mut self, joiner: usize, target: usize);

    /// Canonicalizes internal state (drops unreadable history) so that
    /// state hashing converges. Optional.
    fn gc(&mut self) {}

    /// The coherent (final) value at `addr`, for post-mortem inspection.
    fn peek(&self, addr: u64) -> i64;
}

// ---------------------------------------------------------------------
// Sequential consistency
// ---------------------------------------------------------------------

/// Flat, immediately-consistent memory.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct ScMem {
    mem: FlatMap<u64, i64>,
}

impl Clone for ScMem {
    fn clone(&self) -> Self {
        ScMem {
            mem: self.mem.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let ScMem { mem } = self;
        mem.clone_from(&source.mem);
    }
}

impl MemModel for ScMem {
    fn init(&mut self, addr: u64, val: i64) {
        self.mem.insert(addr, val);
    }

    fn ensure_threads(&mut self, _n: usize) {}

    fn load(&mut self, _tid: usize, addr: u64, _ord: Ordering, _ch: &mut dyn Chooser) -> i64 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    fn store(&mut self, _tid: usize, addr: u64, val: i64, _ord: Ordering) {
        self.mem.insert(addr, val);
    }

    fn rmw(&mut self, _tid: usize, addr: u64, op: RmwOp, operand: i64, _ord: Ordering) -> i64 {
        let old = self.mem.get(&addr).copied().unwrap_or(0);
        self.mem.insert(addr, op.apply(old, operand));
        old
    }

    fn cmpxchg(&mut self, _tid: usize, addr: u64, expected: i64, new: i64, _ord: Ordering) -> i64 {
        let old = self.mem.get(&addr).copied().unwrap_or(0);
        if old == expected {
            self.mem.insert(addr, new);
        }
        old
    }

    fn fence(&mut self, _tid: usize, _ord: Ordering) {}

    fn on_spawn(&mut self, _parent: usize, _child: usize) {}
    fn on_exit(&mut self, _tid: usize) {}
    fn on_join(&mut self, _joiner: usize, _target: usize) {}

    fn peek(&self, addr: u64) -> i64 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// x86-TSO
// ---------------------------------------------------------------------

/// The x86-TSO store-buffer machine.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct TsoMem {
    mem: FlatMap<u64, i64>,
    /// Per-thread FIFO store buffers (oldest first).
    buffers: Vec<Vec<(u64, i64)>>,
}

impl Clone for TsoMem {
    fn clone(&self) -> Self {
        TsoMem {
            mem: self.mem.clone(),
            buffers: self.buffers.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let TsoMem { mem, buffers } = self;
        mem.clone_from(&source.mem);
        buffers.clone_from(&source.buffers);
    }
}

impl TsoMem {
    fn flush_all(&mut self, tid: usize) {
        if let Some(buf) = self.buffers.get_mut(tid) {
            for (a, v) in buf.drain(..) {
                self.mem.insert(a, v);
            }
        }
    }

    /// Buffered entries of `tid` (diagnostics).
    pub fn buffered(&self, tid: usize) -> usize {
        self.buffers.get(tid).map(Vec::len).unwrap_or(0)
    }
}

impl MemModel for TsoMem {
    fn init(&mut self, addr: u64, val: i64) {
        self.mem.insert(addr, val);
    }

    fn ensure_threads(&mut self, n: usize) {
        while self.buffers.len() < n {
            self.buffers.push(Vec::new());
        }
    }

    fn load(&mut self, tid: usize, addr: u64, _ord: Ordering, _ch: &mut dyn Chooser) -> i64 {
        // Store-to-load forwarding: newest buffered store wins.
        if let Some(buf) = self.buffers.get(tid) {
            if let Some((_, v)) = buf.iter().rev().find(|(a, _)| *a == addr) {
                return *v;
            }
        }
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    fn store(&mut self, tid: usize, addr: u64, val: i64, ord: Ordering) {
        self.ensure_threads(tid + 1);
        self.buffers[tid].push((addr, val));
        if ord == Ordering::SeqCst {
            // x86 compiles an SC store as MOV; MFENCE — drain the buffer.
            self.flush_all(tid);
        }
    }

    fn rmw(&mut self, tid: usize, addr: u64, op: RmwOp, operand: i64, _ord: Ordering) -> i64 {
        // LOCK-prefixed: drains the buffer and acts on memory.
        self.flush_all(tid);
        let old = self.mem.get(&addr).copied().unwrap_or(0);
        self.mem.insert(addr, op.apply(old, operand));
        old
    }

    fn cmpxchg(&mut self, tid: usize, addr: u64, expected: i64, new: i64, _ord: Ordering) -> i64 {
        self.flush_all(tid);
        let old = self.mem.get(&addr).copied().unwrap_or(0);
        if old == expected {
            self.mem.insert(addr, new);
        }
        old
    }

    fn fence(&mut self, tid: usize, _ord: Ordering) {
        self.flush_all(tid);
    }

    fn internal_steps(&self, tid: usize) -> usize {
        usize::from(self.buffered(tid) > 0)
    }

    fn internal_step(&mut self, tid: usize) {
        if let Some(buf) = self.buffers.get_mut(tid) {
            if !buf.is_empty() {
                let (a, v) = buf.remove(0);
                self.mem.insert(a, v);
            }
        }
    }

    fn on_spawn(&mut self, parent: usize, child: usize) {
        self.ensure_threads(child + 1);
        self.flush_all(parent);
    }

    fn on_exit(&mut self, tid: usize) {
        self.flush_all(tid);
    }

    fn on_join(&mut self, _joiner: usize, _target: usize) {}

    fn peek(&self, addr: u64) -> i64 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// View-based WMM
// ---------------------------------------------------------------------

type View = FlatMap<u64, u64>;

/// How the view machine interprets `SeqCst` *accesses*.
///
/// Explicit SC fences always synchronize through the global SC view (they
/// model Arm's `DMB ISH`); this knob only affects loads/stores/RMWs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScMode {
    /// C11-flavoured strong SC: SC accesses join the global SC view in
    /// both directions. Forbids store buffering among SC accesses.
    #[default]
    Strong,
    /// Arm-flavoured: SC accesses get release/acquire semantics only
    /// (`LDAR`/`STLR` as compiled from SC atomics), without the global
    /// total-order coupling. This soundly over-approximates Armv8
    /// reordering (it also admits some behaviours RCsc forbids, e.g. SB
    /// between SC accesses), which is the right direction for bug
    /// hunting: every real reordering bug is exhibited.
    RaOnly,
}

fn view_join(dst: &mut View, src: &View) {
    for (&a, &ts) in src.iter() {
        let e = dst.get_or_insert_with(a, || 0);
        if ts > *e {
            *e = ts;
        }
    }
}

/// [`view_join`] on shared views: copies `dst` only when the join changes
/// it. A key of `src` that `dst` lacks is a change even at ts 0, because
/// the join inserts it, and states hash their views' keys.
fn join_shared(dst: &mut Shared<View>, src: &Shared<View>) {
    if Shared::ptr_eq(dst, src) {
        return;
    }
    if dst.is_empty() {
        // Joining into an empty view yields `src` itself.
        *dst = Shared::clone(src);
    } else if src.iter().any(|(a, ts)| dst.get(a).is_none_or(|d| ts > d)) {
        view_join(Shared::make_mut(dst), src);
    }
}

/// One write in a location's history.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Msg {
    ts: u64,
    val: i64,
    /// The releasing thread's view, shared, when a release-or-stronger
    /// store wrote the message, and `None` otherwise. Such a view holds
    /// this write, so it is never empty: `None` stands for exactly the
    /// empty view, and equal states still hash equal.
    view: Option<Shared<View>>,
    released: bool,
}

impl Msg {
    /// The write every location starts from (`ts 0`).
    fn init(val: i64) -> Msg {
        Msg {
            ts: 0,
            val,
            view: None,
            released: true,
        }
    }
}

/// The write history at `addr`, created with a 0-valued initial write.
fn history(hist: &mut FlatMap<u64, Shared<Vec<Msg>>>, addr: u64) -> &mut Shared<Vec<Msg>> {
    hist.get_or_insert_with(addr, || Shared::new(vec![Msg::init(0)]))
}

/// The view machine for weak memory.
///
/// Histories and views are [`Shared`] between cloned machines: a clone
/// copies only reference counts, a step copies the history or view it
/// changes, and hashing reuses the digest of every one it did not.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct ViewMem {
    /// Per-location write histories, timestamps ascending (`ts 0` = init).
    hist: FlatMap<u64, Shared<Vec<Msg>>>,
    /// Per-thread views.
    views: Vec<Shared<View>>,
    /// Views of exited threads, kept for `on_join`.
    exit_views: FlatMap<usize, Shared<View>>,
    /// The global SC view.
    sc_view: Shared<View>,
    /// SC-access interpretation.
    sc_mode: ScMode,
}

impl Clone for ViewMem {
    fn clone(&self) -> Self {
        ViewMem {
            hist: self.hist.clone(),
            views: self.views.clone(),
            exit_views: self.exit_views.clone(),
            sc_view: self.sc_view.clone(),
            sc_mode: self.sc_mode,
        }
    }

    /// Copies `source` into this machine's own maps.
    fn clone_from(&mut self, source: &Self) {
        let ViewMem {
            hist,
            views,
            exit_views,
            sc_view,
            sc_mode,
        } = self;
        hist.clone_from(&source.hist);
        views.clone_from(&source.views);
        exit_views.clone_from(&source.exit_views);
        sc_view.clone_from(&source.sc_view);
        *sc_mode = source.sc_mode;
    }
}

impl ViewMem {
    /// An Arm-flavoured machine: SC accesses are release/acquire only,
    /// explicit fences are full `DMB`-style barriers.
    pub fn arm() -> ViewMem {
        ViewMem {
            sc_mode: ScMode::RaOnly,
            ..ViewMem::default()
        }
    }

    /// Whether an access with `ord` synchronizes through the SC view.
    fn couples(&self, ord: Ordering) -> bool {
        ord == Ordering::SeqCst && self.sc_mode == ScMode::Strong
    }

    /// Before a coupled SC access by `tid`: joins the SC view into the
    /// thread's view.
    fn sc_enter(&mut self, tid: usize) {
        join_shared(&mut self.views[tid], &self.sc_view);
    }

    /// After a coupled SC access (or an SC fence) by `tid`: joins the
    /// thread's view into the SC view. Since [`Self::sc_enter`] the
    /// thread's view has only grown, so it now contains the SC view and
    /// the join equals the thread's view: share it.
    fn sc_exit(&mut self, tid: usize) {
        self.sc_view = Shared::clone(&self.views[tid]);
    }

    /// The number of writes a load by `tid` could read at `addr` (used by
    /// the checker to enumerate read choices).
    pub fn eligible_count(&mut self, tid: usize, addr: u64, ord: Ordering) -> usize {
        self.ensure_threads(tid + 1);
        let mut floor = *self.views[tid].get(&addr).unwrap_or(&0);
        if self.couples(ord) {
            floor = floor.max(*self.sc_view.get(&addr).unwrap_or(&0));
        }
        history(&mut self.hist, addr)
            .iter()
            .filter(|m| m.ts >= floor)
            .count()
    }

    /// Raises `tid`'s view to a read of `msg` at `addr`: the key is set to
    /// at least `msg.ts` (inserted even at ts 0), and an acquiring read of
    /// a released message joins its view. Copies the view only if that
    /// changes it.
    fn observe(view: &mut Shared<View>, addr: u64, msg: &Msg, acquire: bool) {
        let attached = msg.view.as_ref().filter(|_| acquire && msg.released);
        let raise = view.get(&addr).is_none_or(|&cur| msg.ts > cur);
        if raise {
            Shared::make_mut(view).insert(addr, msg.ts);
        }
        if let Some(mview) = attached {
            join_shared(view, mview);
        }
    }

    fn do_load(&mut self, tid: usize, addr: u64, ord: Ordering, ch: &mut dyn Chooser) -> i64 {
        self.ensure_threads(tid + 1);
        if self.couples(ord) {
            self.sc_enter(tid);
        }
        let floor = *self.views[tid].get(&addr).unwrap_or(&0);
        let hist = history(&mut self.hist, addr);
        // Timestamps ascend, so the eligible writes are a suffix.
        let first = hist
            .iter()
            .position(|m| m.ts >= floor)
            .expect("view beyond history");
        let msg = &hist[first + ch.choose(hist.len() - first)];
        Self::observe(&mut self.views[tid], addr, msg, ord.has_acquire());
        let val = msg.val;
        if self.couples(ord) {
            self.sc_exit(tid);
        }
        val
    }

    /// Appends a write by `tid` at `ts` and raises the thread's view to
    /// it; a release-or-stronger write shares the raised view.
    fn append(&mut self, tid: usize, addr: u64, ts: u64, val: i64, ord: Ordering) {
        Shared::make_mut(&mut self.views[tid]).insert(addr, ts);
        let released = ord.has_release();
        let view = released.then(|| Shared::clone(&self.views[tid]));
        let msg = Msg {
            ts,
            val,
            view,
            released,
        };
        let h = history(&mut self.hist, addr);
        match Shared::get_mut(h) {
            Some(msgs) => msgs.push(msg),
            // One copy with the new message, not a copy and a regrow.
            None => *h = Shared::new(h.iter().cloned().chain([msg]).collect()),
        }
    }

    fn do_store(&mut self, tid: usize, addr: u64, val: i64, ord: Ordering) {
        self.ensure_threads(tid + 1);
        if self.couples(ord) {
            self.sc_enter(tid);
        }
        let ts = history(&mut self.hist, addr).last().expect("init msg").ts + 1;
        self.append(tid, addr, ts, val, ord);
        if self.couples(ord) {
            self.sc_exit(tid);
        }
    }

    /// RMW: reads the *latest* write (atomicity) and appends directly
    /// after it.
    ///
    /// Model note: a *failed* CAS also reads the latest message here,
    /// which is stronger than C11 (where a failed CAS is an ordinary load
    /// and may read stale). None of the bundled patterns depend on stale
    /// failed-CAS reads; retry loops simply retry accurately.
    fn do_rmw<F: FnOnce(i64) -> Option<i64>>(
        &mut self,
        tid: usize,
        addr: u64,
        ord: Ordering,
        f: F,
    ) -> i64 {
        self.ensure_threads(tid + 1);
        if self.couples(ord) {
            self.sc_enter(tid);
        }
        let latest = history(&mut self.hist, addr).last().expect("init msg");
        let (old_ts, old) = (latest.ts, latest.val);
        Self::observe(&mut self.views[tid], addr, latest, ord.has_acquire());
        if let Some(new) = f(old) {
            self.append(tid, addr, old_ts + 1, new, ord);
        }
        if self.couples(ord) {
            self.sc_exit(tid);
        }
        old
    }
}

impl MemModel for ViewMem {
    fn init(&mut self, addr: u64, val: i64) {
        self.hist.insert(addr, Shared::new(vec![Msg::init(val)]));
    }

    fn ensure_threads(&mut self, n: usize) {
        while self.views.len() < n {
            self.views.push(Shared::default());
        }
    }

    fn load(&mut self, tid: usize, addr: u64, ord: Ordering, ch: &mut dyn Chooser) -> i64 {
        self.do_load(tid, addr, ord, ch)
    }

    fn store(&mut self, tid: usize, addr: u64, val: i64, ord: Ordering) {
        self.do_store(tid, addr, val, ord)
    }

    fn rmw(&mut self, tid: usize, addr: u64, op: RmwOp, operand: i64, ord: Ordering) -> i64 {
        self.do_rmw(tid, addr, ord, |old| Some(op.apply(old, operand)))
    }

    fn cmpxchg(&mut self, tid: usize, addr: u64, expected: i64, new: i64, ord: Ordering) -> i64 {
        self.do_rmw(tid, addr, ord, |old| {
            if old == expected {
                Some(new)
            } else {
                None
            }
        })
    }

    fn fence(&mut self, tid: usize, ord: Ordering) {
        if ord == Ordering::SeqCst {
            self.ensure_threads(tid + 1);
            self.sc_enter(tid);
            self.sc_exit(tid);
        }
        // Plain acquire/release fences never occur in AtoMig output; they
        // are treated as no-ops here (documented model restriction).
    }

    fn on_spawn(&mut self, parent: usize, child: usize) {
        self.ensure_threads(child.max(parent) + 1);
        let pv = Shared::clone(&self.views[parent]);
        join_shared(&mut self.views[child], &pv);
    }

    fn on_exit(&mut self, tid: usize) {
        self.ensure_threads(tid + 1);
        self.exit_views.insert(tid, Shared::clone(&self.views[tid]));
    }

    fn on_join(&mut self, joiner: usize, target: usize) {
        if let Some(tv) = self.exit_views.get(&target).cloned() {
            self.ensure_threads(joiner + 1);
            join_shared(&mut self.views[joiner], &tv);
        }
    }

    fn gc(&mut self) {
        // Drop history entries no thread can read any more. Only thread
        // views matter for the floor: `sc_view` and exit views are joined
        // *into* thread views (they only ever raise floors), so they can
        // never re-enable reading an older message.
        if self.views.is_empty() {
            return;
        }
        for (addr, h) in self.hist.iter_mut() {
            if h.len() < 2 {
                continue;
            }
            // The floor is the least timestamp a thread view holds at
            // `addr`. A view that still reads the oldest message keeps
            // the whole history, so the scan stops at the first one.
            let oldest = h[0].ts;
            let mut floor = u64::MAX;
            for v in &self.views {
                floor = floor.min(*v.get(addr).unwrap_or(&0));
                if floor <= oldest {
                    break;
                }
            }
            if floor <= oldest {
                continue;
            }
            let keep_from = h.iter().position(|m| m.ts >= floor).unwrap_or(h.len() - 1);
            match Shared::get_mut(h) {
                Some(msgs) => drop(msgs.drain(..keep_from)),
                None => *h = Shared::new(h[keep_from..].to_vec()),
            }
        }
    }

    fn peek(&self, addr: u64) -> i64 {
        self.hist
            .get(&addr)
            .and_then(|h| h.last())
            .map(|m| m.val)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_testutil::Rng;

    /// The gc before it stopped early: for every location, the minimum
    /// over all thread views, then the drop. The oracle for
    /// [`ViewMem::gc`].
    fn gc_full_scan(m: &mut ViewMem) {
        if m.views.is_empty() {
            return;
        }
        for (addr, h) in m.hist.iter_mut() {
            let floor = m
                .views
                .iter()
                .map(|v| *v.get(addr).unwrap_or(&0))
                .min()
                .unwrap_or(0);
            let keep_from = h.iter().position(|m| m.ts >= floor).unwrap_or(h.len() - 1);
            if keep_from > 0 {
                Shared::make_mut(h).drain(..keep_from);
            }
        }
    }

    /// Picks read choices from a seeded generator.
    struct RandomChoice(Rng);

    impl Chooser for RandomChoice {
        fn choose(&mut self, n: usize) -> usize {
            self.0.gen_usize(n)
        }
    }

    const ORDERS: [Ordering; 6] = [
        Ordering::NotAtomic,
        Ordering::Relaxed,
        Ordering::Acquire,
        Ordering::Release,
        Ordering::AcqRel,
        Ordering::SeqCst,
    ];

    /// On seeded random runs of loads, stores, RMWs, fences, spawns and
    /// joins over three addresses and up to four threads, the early-exit
    /// gc leaves exactly the histories (and the whole state) the full
    /// scan leaves, after every operation.
    #[test]
    fn early_exit_gc_matches_the_full_scan() {
        let mut dropped = 0;
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            let mut ch = RandomChoice(Rng::new(seed ^ 0x5eed));
            let mut m = if seed % 2 == 0 {
                ViewMem::default()
            } else {
                ViewMem::arm()
            };
            m.ensure_threads(1);
            for addr in 1..=3 {
                m.init(addr, 0);
            }
            let mut live = vec![0usize];
            let mut exited: Vec<usize> = Vec::new();
            let mut spawned = 1;
            for step in 0..60 {
                let tid = live[rng.gen_usize(live.len())];
                let addr = 1 + rng.gen_usize(3) as u64;
                let ord = ORDERS[rng.gen_usize(ORDERS.len())];
                let val = rng.gen_range(0..4);
                match rng.gen_usize(8) {
                    0 | 1 => {
                        m.load(tid, addr, ord, &mut ch);
                    }
                    2 | 3 => m.store(tid, addr, val, ord),
                    4 => {
                        m.rmw(tid, addr, RmwOp::Add, val, ord);
                    }
                    5 => {
                        m.cmpxchg(tid, addr, val, val + 1, ord);
                    }
                    6 => m.fence(tid, ord),
                    _ if spawned < 4 && rng.gen_ratio(1, 2) => {
                        m.on_spawn(tid, spawned);
                        live.push(spawned);
                        spawned += 1;
                    }
                    _ if tid != 0 => {
                        m.on_exit(tid);
                        live.retain(|&t| t != tid);
                        exited.push(tid);
                    }
                    _ => {
                        if let Some(&target) = exited.last() {
                            m.on_join(tid, target);
                        }
                    }
                }
                let before: usize = m.hist.iter().map(|(_, h)| h.len()).sum();
                let mut full = m.clone();
                // Either gc may run first: the first meets shared
                // histories and copies what it keeps, the second drains
                // its own.
                if step % 2 == 0 {
                    gc_full_scan(&mut full);
                    m.gc();
                } else {
                    m.gc();
                    gc_full_scan(&mut full);
                }
                assert_eq!(m, full, "seed {seed}");
                assert_eq!(
                    crate::shared::digest(|h| m.hash(h)),
                    crate::shared::digest(|h| full.hash(h)),
                    "seed {seed}"
                );
                dropped += before - m.hist.iter().map(|(_, h)| h.len()).sum::<usize>();
            }
        }
        // The runs exercise the drop, not only the early exits.
        assert!(dropped > 100, "only {dropped} messages dropped");
    }

    #[test]
    fn sc_is_immediately_consistent() {
        let mut m = ScMem::default();
        m.store(0, 100, 5, Ordering::NotAtomic);
        assert_eq!(m.load(1, 100, Ordering::NotAtomic, &mut FirstChoice), 5);
    }

    #[test]
    fn tso_buffers_stores_until_flush() {
        let mut m = TsoMem::default();
        m.ensure_threads(2);
        m.store(0, 100, 1, Ordering::NotAtomic);
        // Thread 1 does not see it yet; thread 0 forwards from its buffer.
        assert_eq!(m.load(1, 100, Ordering::NotAtomic, &mut FirstChoice), 0);
        assert_eq!(m.load(0, 100, Ordering::NotAtomic, &mut FirstChoice), 1);
        assert_eq!(m.internal_steps(0), 1);
        m.internal_step(0);
        assert_eq!(m.load(1, 100, Ordering::NotAtomic, &mut FirstChoice), 1);
        assert_eq!(m.internal_steps(0), 0);
    }

    #[test]
    fn tso_preserves_store_order() {
        let mut m = TsoMem::default();
        m.ensure_threads(2);
        m.store(0, 1, 1, Ordering::NotAtomic); // msg
        m.store(0, 2, 1, Ordering::NotAtomic); // flag
        m.internal_step(0); // flushes msg FIRST (FIFO)
        assert_eq!(m.peek(1), 1);
        assert_eq!(m.peek(2), 0);
    }

    #[test]
    fn tso_sc_store_drains_buffer() {
        let mut m = TsoMem::default();
        m.ensure_threads(1);
        m.store(0, 1, 1, Ordering::NotAtomic);
        m.store(0, 2, 1, Ordering::SeqCst);
        assert_eq!(m.buffered(0), 0);
        assert_eq!(m.peek(1), 1);
        assert_eq!(m.peek(2), 1);
    }

    #[test]
    fn view_relaxed_mp_can_read_stale() {
        // Writer: msg=1 (rlx); flag=1 (rlx). Reader: sees flag=1 but may
        // still read msg=0 — the WMM message-passing bug.
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(1, 0); // msg
        m.init(2, 0); // flag
        m.store(0, 1, 1, Ordering::Relaxed);
        m.store(0, 2, 1, Ordering::Relaxed);
        // Reader reads flag=1 (choose the newest).
        let f = m.load(1, 2, Ordering::Relaxed, &mut LastChoice);
        assert_eq!(f, 1);
        // And may still read msg=0 (choose the oldest eligible).
        let v = m.load(1, 1, Ordering::Relaxed, &mut FirstChoice);
        assert_eq!(v, 0);
    }

    #[test]
    fn view_release_acquire_mp_is_safe() {
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(1, 0);
        m.init(2, 0);
        m.store(0, 1, 1, Ordering::Relaxed);
        m.store(0, 2, 1, Ordering::Release);
        let f = m.load(1, 2, Ordering::Acquire, &mut LastChoice);
        assert_eq!(f, 1);
        // The acquire joined the release view: msg=0 no longer eligible.
        assert_eq!(m.eligible_count(1, 1, Ordering::Relaxed), 1);
        let v = m.load(1, 1, Ordering::Relaxed, &mut FirstChoice);
        assert_eq!(v, 1);
    }

    #[test]
    fn view_sc_mp_is_safe() {
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(1, 0);
        m.init(2, 0);
        m.store(0, 1, 1, Ordering::NotAtomic);
        m.store(0, 2, 1, Ordering::SeqCst);
        let f = m.load(1, 2, Ordering::SeqCst, &mut LastChoice);
        assert_eq!(f, 1);
        assert_eq!(m.eligible_count(1, 1, Ordering::NotAtomic), 1);
    }

    #[test]
    fn view_coherence_no_going_back() {
        let mut m = ViewMem::default();
        m.ensure_threads(1);
        m.init(5, 0);
        m.store(0, 5, 1, Ordering::Relaxed);
        m.store(0, 5, 2, Ordering::Relaxed);
        // Thread 0 wrote both: it can only read the newest.
        assert_eq!(m.eligible_count(0, 5, Ordering::Relaxed), 1);
        assert_eq!(m.load(0, 5, Ordering::Relaxed, &mut FirstChoice), 2);
    }

    #[test]
    fn view_rmw_reads_latest() {
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(7, 10);
        m.store(0, 7, 20, Ordering::Relaxed);
        // Thread 1's view is behind, but RMW must still act on ts-max.
        let old = m.rmw(1, 7, RmwOp::Add, 1, Ordering::SeqCst);
        assert_eq!(old, 20);
        assert_eq!(m.peek(7), 21);
    }

    #[test]
    fn view_failed_cas_does_not_write() {
        let mut m = ViewMem::default();
        m.ensure_threads(1);
        m.init(7, 5);
        let old = m.cmpxchg(0, 7, 99, 1, Ordering::SeqCst);
        assert_eq!(old, 5);
        assert_eq!(m.peek(7), 5);
    }

    #[test]
    fn view_spawn_join_synchronize() {
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(3, 0);
        m.store(0, 3, 42, Ordering::Relaxed);
        m.on_spawn(0, 1);
        // The child must see the parent's pre-spawn write.
        assert_eq!(m.eligible_count(1, 3, Ordering::Relaxed), 1);
        m.store(1, 3, 43, Ordering::Relaxed);
        m.on_exit(1);
        m.on_join(0, 1);
        assert_eq!(m.eligible_count(0, 3, Ordering::Relaxed), 1);
        assert_eq!(m.load(0, 3, Ordering::Relaxed, &mut FirstChoice), 43);
    }

    #[test]
    fn view_gc_drops_dead_history() {
        let mut m = ViewMem::default();
        m.ensure_threads(1);
        m.init(9, 0);
        for i in 1..=10 {
            m.store(0, 9, i, Ordering::Relaxed);
        }
        assert_eq!(m.hist.get(&9).map(|h| h.len()), Some(11));
        m.gc();
        // Only thread 0 exists and its view is at ts 10.
        assert_eq!(m.hist.get(&9).map(|h| h.len()), Some(1));
        assert_eq!(m.peek(9), 10);
    }

    #[test]
    fn view_sb_relaxed_allows_both_zero() {
        // Store buffering: x=1; r1=y || y=1; r2=x — both reads may be 0.
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(1, 0);
        m.init(2, 0);
        m.store(0, 1, 1, Ordering::Relaxed);
        m.store(1, 2, 1, Ordering::Relaxed);
        let r1 = m.load(0, 2, Ordering::Relaxed, &mut FirstChoice);
        let r2 = m.load(1, 1, Ordering::Relaxed, &mut FirstChoice);
        assert_eq!((r1, r2), (0, 0));
    }

    #[test]
    fn view_sb_sc_forbids_both_zero() {
        // With SC accesses, at least one read sees the other store.
        let mut m = ViewMem::default();
        m.ensure_threads(2);
        m.init(1, 0);
        m.init(2, 0);
        m.store(0, 1, 1, Ordering::SeqCst);
        m.store(1, 2, 1, Ordering::SeqCst);
        // Whatever order: both loads are SC and join sc_view, which now
        // contains both stores.
        assert_eq!(m.eligible_count(0, 2, Ordering::SeqCst), 1);
        assert_eq!(m.eligible_count(1, 1, Ordering::SeqCst), 1);
    }
}
