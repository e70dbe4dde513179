//! Differential test of the dense per-function layers against a naive
//! reference.
//!
//! The reference keeps each function's instructions in a `BTreeMap` keyed
//! by id and restates, without caching or side tables, what the detection
//! passes ask of a function: the alias key of an access (`loc_of`), the
//! private stack slot behind an address (`EscapeInfo::private_root`), and
//! the dependency closure of a spinloop exit condition
//! (`InfluenceAnalysis::value_deps`). The dense code is compared against
//! it for every access and every loop exit condition, on the examples, on
//! the five Table 3 profiles, and on modules after inlining and after the
//! transformation, whose ids are sparse and whose fences carry fresh ids.

use atomig_analysis::{
    find_loops, inline_module, Cfg, DepSummary, DomTree, InfluenceAnalysis, InlineOptions,
};
use atomig_core::annotations::loc_of;
use atomig_core::{AtomigConfig, Pipeline};
use atomig_mir::{
    BlockId, Function, GepIndex, Inst, InstId, InstKind, MemLoc, Module, Terminator, Type,
    TypeKind, Value,
};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A function's instructions by id, with their blocks.
struct Naive<'f> {
    func: &'f Function,
    insts: BTreeMap<InstId, (BlockId, &'f Inst)>,
    escaping: BTreeSet<InstId>,
    /// Private slot -> the stores writing it.
    slot_stores: BTreeMap<InstId, Vec<InstId>>,
}

/// The closure parts the comparison pins.
#[derive(Debug, PartialEq)]
struct Deps {
    insts: BTreeSet<InstId>,
    nonlocal_reads: BTreeSet<InstId>,
    local_slots_read: BTreeSet<InstId>,
    has_opaque: bool,
}

impl<'f> Naive<'f> {
    fn new(func: &'f Function) -> Naive<'f> {
        let mut n = Naive {
            func,
            insts: func.insts().map(|(b, i)| (i.id, (b, i))).collect(),
            escaping: BTreeSet::new(),
            slot_stores: BTreeMap::new(),
        };
        // An alloca escapes when its address is stored as data, passed to
        // a call, handed to an atomic as an operand, or returned.
        let mut published: Vec<Value> = Vec::new();
        for (_, inst) in func.insts() {
            match &inst.kind {
                InstKind::Store { val, .. } | InstKind::Rmw { val, .. } => published.push(*val),
                InstKind::Call { args, .. } => published.extend(args.iter().copied()),
                InstKind::Cmpxchg(c) => published.extend([c.expected, c.new]),
                _ => {}
            }
        }
        for b in &func.blocks {
            if let Terminator::Ret(Some(v)) = b.term {
                published.push(v);
            }
        }
        n.escaping = published
            .into_iter()
            .filter_map(|v| n.root(v, 32))
            .collect();
        for (_, inst) in func.insts() {
            if let InstKind::Store { ptr, .. } = &inst.kind {
                if let Some(slot) = n.private_root(*ptr) {
                    n.slot_stores.entry(slot).or_default().push(inst.id);
                }
            }
        }
        n
    }

    fn kind(&self, id: InstId) -> Option<&'f InstKind> {
        self.insts.get(&id).map(|(_, i)| &i.kind)
    }

    /// The alloca an address is computed from, through GEPs and casts.
    fn root(&self, v: Value, depth: u32) -> Option<InstId> {
        let id = v.as_inst().filter(|_| depth > 0)?;
        match self.kind(id)? {
            InstKind::Alloca { .. } => Some(id),
            InstKind::Gep { base, .. } => self.root(*base, depth - 1),
            InstKind::Cast { value, .. } => self.root(*value, depth - 1),
            _ => None,
        }
    }

    fn private_root(&self, ptr: Value) -> Option<InstId> {
        self.root(ptr, 32).filter(|r| !self.escaping.contains(r))
    }

    /// The alias key of the memory an address points to.
    fn loc(&self, ptr: Value, depth: u32) -> MemLoc {
        if depth == 0 {
            return MemLoc::Unknown;
        }
        let id = match ptr {
            Value::Global(g) => return MemLoc::Global(g, Vec::new()),
            Value::Param(i) => {
                return match self.func.params.get(i as usize) {
                    Some((_, ty)) => ty
                        .pointee()
                        .map_or(MemLoc::Unknown, |&p| MemLoc::Pointee(p)),
                    None => MemLoc::Unknown,
                }
            }
            Value::Inst(id) => id,
            _ => return MemLoc::Unknown,
        };
        match self.kind(id) {
            Some(InstKind::Alloca { .. }) => MemLoc::Stack(id),
            Some(InstKind::Cast { value, .. }) => self.loc(*value, depth - 1),
            Some(InstKind::Load { ty, .. } | InstKind::Call { ret_ty: ty, .. }) => ty
                .pointee()
                .map_or(MemLoc::Unknown, |&p| MemLoc::Pointee(p)),
            Some(InstKind::Gep {
                base,
                base_ty,
                indices,
            }) => {
                let path: Option<Vec<i64>> = indices.iter().map(GepIndex::as_const).collect();
                let elem = |t: Type| match t.kind() {
                    TypeKind::Array(e, _) => MemLoc::ArrayElem(e),
                    _ => MemLoc::ArrayElem(t),
                };
                match (self.loc(*base, depth - 1), base_ty.kind(), path) {
                    (MemLoc::Global(g, mut prefix), _, Some(path)) => {
                        prefix.extend(path);
                        MemLoc::Global(g, prefix)
                    }
                    (MemLoc::Global(..), _, None) => elem(*base_ty),
                    (_, TypeKind::Struct(s), Some(path)) if path.len() > 1 => {
                        MemLoc::Field(s, path[1..].to_vec())
                    }
                    (_, TypeKind::Struct(s), _) => MemLoc::Field(s, Vec::new()),
                    (_, TypeKind::Array(e, _), _) => MemLoc::ArrayElem(e),
                    _ => elem(*base_ty),
                }
            }
            _ => MemLoc::Unknown,
        }
    }

    /// Everything `v` depends on, following stores into private slots
    /// when they sit inside `scope`.
    fn deps(&self, v: Value, scope: Option<&BTreeSet<BlockId>>) -> Deps {
        let mut d = Deps {
            insts: BTreeSet::new(),
            nonlocal_reads: BTreeSet::new(),
            local_slots_read: BTreeSet::new(),
            has_opaque: false,
        };
        let mut visited = BTreeSet::new();
        let mut work = vec![v];
        while let Some(v) = work.pop() {
            let Some(id) = v.as_inst() else { continue };
            if !visited.insert(id) {
                continue;
            }
            d.insts.insert(id);
            let Some(kind) = self.kind(id) else { continue };
            let read = match kind {
                InstKind::Load { ptr, .. } | InstKind::Rmw { ptr, .. } => Some(*ptr),
                InstKind::Cmpxchg(c) => Some(c.ptr),
                _ => None,
            };
            if let Some(ptr) = read {
                match self.private_root(ptr) {
                    None => {
                        d.nonlocal_reads.insert(id);
                    }
                    Some(slot) => {
                        d.local_slots_read.insert(slot);
                        for &s in self.slot_stores.get(&slot).into_iter().flatten() {
                            let in_scope = scope.is_none_or(|sc| sc.contains(&self.insts[&s].0));
                            if in_scope && d.insts.insert(s) {
                                if let Some(InstKind::Store { val, ptr, .. }) = self.kind(s) {
                                    work.extend([*val, *ptr]);
                                }
                            }
                        }
                    }
                }
            }
            match kind {
                InstKind::Call { args, .. } => {
                    d.has_opaque = true;
                    work.extend(args.iter().copied());
                }
                InstKind::Alloca { .. } => {}
                other => work.extend(other.operands()),
            }
        }
        d
    }
}

fn dense_deps(inf: &InfluenceAnalysis<'_>, v: Value, scope: Option<&BTreeSet<BlockId>>) -> Deps {
    let d = inf.value_deps(v, scope);
    Deps {
        insts: d.insts.into_iter().collect(),
        nonlocal_reads: d.nonlocal_reads.into_iter().collect(),
        local_slots_read: d.local_slots_read.into_iter().collect(),
        has_opaque: d.has_opaque,
    }
}

/// Compares every function of `m`, both with its own analysis and with
/// one analysis re-targeted from function to function; returns how many
/// accesses and exit conditions were checked.
fn check(m: &Module, what: &str) -> (usize, usize) {
    let (mut accesses, mut exits) = (0, 0);
    let mut reused: Option<InfluenceAnalysis<'_>> = None;
    for func in &m.funcs {
        let naive = Naive::new(func);
        let fresh = InfluenceAnalysis::new(func);
        let reused = match &mut reused {
            Some(inf) => {
                inf.reset(func);
                inf
            }
            None => reused.insert(InfluenceAnalysis::new(func)),
        };
        let counts = check_function(&naive, &fresh, &format!("{what}: @{}", func.name));
        check_function(&naive, reused, &format!("{what}: @{} (reset)", func.name));
        accesses += counts.0;
        exits += counts.1;
    }
    (accesses, exits)
}

/// Compares `inf`, an analysis of the function `naive` restates, with
/// the reference.
fn check_function(naive: &Naive<'_>, inf: &InfluenceAnalysis<'_>, what: &str) -> (usize, usize) {
    let func = naive.func;
    let (mut accesses, mut exits) = (0, 0);
    let at = |x: &dyn std::fmt::Display| format!("{what} {x}");
    let index = inf.index();

    // The index itself, past its end too.
    for id in 0..index.len() as u32 + 2 {
        let id = InstId(id);
        assert_eq!(index.get(id), naive.kind(id), "{}", at(&id));
        assert_eq!(
            index.block_of(id),
            naive.insts.get(&id).map(|(b, _)| *b),
            "{}",
            at(&id)
        );
    }
    let ids: Vec<InstId> = index.iter().map(|(_, i)| i.id).collect();
    let want: Vec<InstId> = naive.insts.keys().copied().collect();
    assert_eq!(ids, want, "{}", at(&"iteration order"));

    for (_, inst) in func.insts() {
        let Some(ptr) = inst.kind.address() else {
            continue;
        };
        accesses += 1;
        assert_eq!(
            loc_of(index, &inst.kind),
            naive.loc(ptr, 16),
            "{}",
            at(&format!("loc_of {}", inst.id))
        );
        assert_eq!(
            inf.escape().private_root(ptr),
            naive.private_root(ptr),
            "{}",
            at(&format!("private_root of {}", inst.id))
        );
    }

    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg);
    for natural in find_loops(func, &cfg, &dom) {
        for scope in [Some(&natural.body), None] {
            let scoped = scope.is_some();
            for exit in &natural.exits {
                exits += usize::from(scoped);
                let want = naive.deps(exit.cond, scope);
                let where_ = || at(&format!("exit in {} (scoped: {scoped})", exit.block));
                assert_eq!(
                    dense_deps(inf, exit.cond, scope),
                    want,
                    "value_deps of the {}",
                    where_()
                );
                let mut summary = DepSummary::default();
                let nonlocal = inf.summarize(exit.cond, scope, &mut summary);
                let reads: BTreeSet<InstId> = summary.nonlocal_reads.into_iter().collect();
                let slots: BTreeSet<InstId> = summary.local_slots_read.into_iter().collect();
                assert_eq!(
                    (nonlocal, reads, slots),
                    (
                        !want.nonlocal_reads.is_empty() || want.has_opaque,
                        want.nonlocal_reads,
                        want.local_slots_read
                    ),
                    "summarize of the {}",
                    where_()
                );
            }
            // Every store's non-local dependency, as spinloop rule (2)
            // asks it.
            for (_, inst) in func.insts() {
                let InstKind::Store { val, ptr, .. } = inst.kind else {
                    continue;
                };
                let has_nonlocal = |v| {
                    let d = naive.deps(v, scope);
                    !d.nonlocal_reads.is_empty() || d.has_opaque
                };
                let want =
                    naive.private_root(ptr).is_none() || has_nonlocal(val) || has_nonlocal(ptr);
                assert_eq!(
                    inf.store_has_nonlocal(inst.id, scope),
                    want,
                    "{}",
                    at(&format!(
                        "store_has_nonlocal of {} (loop at {}, scoped: {scoped})",
                        inst.id, natural.header
                    ))
                );
            }
        }
    }
    (accesses, exits)
}

/// Checks `m` as compiled, after inlining, and after a full port (which
/// inlines and then inserts fences with fresh ids). Returns the counts of
/// the compiled form.
fn check_all_forms(m: &Module, what: &str) -> (usize, usize) {
    let counts = check(m, what);
    assert!(counts.0 > 0, "{what}: no accesses checked");

    let mut inlined = m.clone();
    inline_module(&mut inlined, &InlineOptions::default());
    check(&inlined, &format!("{what} (inlined)"));

    let mut ported = m.clone();
    let report = Pipeline::new(AtomigConfig::full()).port_module(&mut ported);
    atomig_mir::verify_module(&ported).unwrap();
    check(&ported, &format!("{what} (ported, {report:?})"));
    counts
}

#[test]
fn matches_reference_on_examples() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut exits = 0;
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let m = atomig_frontc::compile(&src, &name).unwrap();
        exits += check_all_forms(&m, &name).1;
    }
    assert!(exits > 0, "the examples have spinloops");
}

#[test]
fn matches_reference_on_profiles() {
    for seed in [1, 2] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 1000)
            });
            let m = atomig_frontc::compile(&app.source, p.name).unwrap();
            check_all_forms(&m, &format!("{} seed {seed}", p.name));
        }
    }
}

/// The frontend numbers ids densely, so a hand-built module covers a gap
/// in the ids (and, once ported, fences with fresh ids after it), plus an
/// address reached through a cast.
#[test]
fn matches_reference_with_id_gaps_and_fresh_fences() {
    let mut m = atomig_mir::parse_module(
        r#"
        global @flag: i32 = 0
        global @data: [4 x i32] = 0
        fn @wait() : i32 {
        entry:
          %l = alloca i32
          %e = gep [4 x i32], @data, 0, 2
          br loop
        loop:
          %f = load i32, @flag
          %c = cast %l to ptr i32
          store i32 %f, %c
          %v = load i32, %l
          %d = load i32, %e
          %z = cmp eq %v, 0
          condbr %z, loop, done
        done:
          ret %d
        }
        "#,
    )
    .unwrap();
    let func = &mut m.funcs[0];
    // Renumber the exit condition past three ids no instruction carries.
    let last = func.blocks[1].insts.len() - 1;
    func.blocks[1].insts[last].id = InstId(func.next_inst + 3);
    let cond = func.blocks[1].insts[last].id;
    func.next_inst += 4;
    func.blocks[1].term = Terminator::CondBr {
        cond: Value::Inst(cond),
        then_bb: BlockId(1),
        else_bb: BlockId(2),
    };
    atomig_mir::verify_module(&m).unwrap();
    let (accesses, exits) = check_all_forms(&m, "gaps");
    assert!(accesses >= 4 && exits == 1, "{accesses} {exits}");
}
