//! Differential test of `PointsTo` against a naive Andersen reference.
//!
//! The reference states the analysis as a list of inclusion rules and
//! re-applies every rule over `BTreeSet`s until nothing changes: no
//! worklist, no delta propagation, no interning. Cells are compared by
//! value, so the test pins what the solver computes and leaves free how
//! it numbers nodes and cells.

use atomig_analysis::{Cell, CellId, EscapeInfo, ObjBase, PointsTo};
use atomig_mir::{
    BinOp, Builtin, Callee, FuncId, GlobalId, InstId, InstKind, Module, Terminator, Value,
};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A cell by value: base, field path, summary flag.
type Key = (ObjBase, Vec<i64>, bool);

/// Truncation depth of field paths, as documented on `PointsTo`.
const MAX_PATH: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Node {
    Var(FuncId, InstId),
    Param(FuncId, u32),
    Ret(FuncId),
    Global(GlobalId),
}

enum Rule {
    /// `dst ∋ cell`.
    Addr(Node, Key),
    /// `dst ⊇ src`.
    Copy { src: Node, dst: Node },
    /// `dst ⊇ contents(c)` for every `c ∈ p`.
    Load { p: Node, dst: Node },
    /// `contents(c) ⊇ src` for every `c ∈ p`.
    Store { p: Node, src: Node },
    /// `dst ∋ c.path ++ path` for every `c ∈ base`.
    Gep {
        base: Node,
        dst: Node,
        path: Vec<i64>,
    },
}

fn key(c: &Cell) -> Key {
    (c.base, c.path.clone(), c.summary)
}

fn gep(c: &Key, path: &[i64]) -> Key {
    if c.2 || path.is_empty() {
        return c.clone();
    }
    let mut full = c.1.clone();
    full.extend_from_slice(path);
    let summary = full.len() > MAX_PATH;
    full.truncate(MAX_PATH);
    (c.0, full, summary)
}

/// The rules of `m`. A global used as a pointer operand is a node that
/// holds the global's cell.
fn rules(m: &Module) -> Vec<Rule> {
    let mut rules = Vec::new();
    for f in m.func_ids() {
        let func = m.func(f);
        let node = |v: Value, rules: &mut Vec<Rule>| match v {
            Value::Inst(id) => Some(Node::Var(f, id)),
            Value::Param(i) => Some(Node::Param(f, i)),
            Value::Global(g) => {
                rules.push(Rule::Addr(
                    Node::Global(g),
                    (ObjBase::Global(g), Vec::new(), false),
                ));
                Some(Node::Global(g))
            }
            Value::Const(_) | Value::Null | Value::Func(_) => None,
        };
        for (_, inst) in func.insts() {
            let var = Node::Var(f, inst.id);
            match &inst.kind {
                InstKind::Alloca { .. } => rules.push(Rule::Addr(
                    var,
                    (ObjBase::Stack(f, inst.id), Vec::new(), false),
                )),
                InstKind::Load { ptr, .. } => {
                    if let Some(p) = node(*ptr, &mut rules) {
                        rules.push(Rule::Load { p, dst: var });
                    }
                }
                InstKind::Store { ptr, val, .. } => {
                    if let (Some(p), Some(src)) = (node(*ptr, &mut rules), node(*val, &mut rules)) {
                        rules.push(Rule::Store { p, src });
                    }
                }
                InstKind::Cmpxchg(_) | InstKind::Rmw { .. } => {
                    let (ptr, val) = match &inst.kind {
                        InstKind::Cmpxchg(c) => (c.ptr, c.new),
                        InstKind::Rmw { ptr, val, .. } => (*ptr, *val),
                        _ => unreachable!(),
                    };
                    if let Some(p) = node(ptr, &mut rules) {
                        rules.push(Rule::Load { p, dst: var });
                        if let Some(src) = node(val, &mut rules) {
                            rules.push(Rule::Store { p, src });
                        }
                    }
                }
                InstKind::Gep { base, indices, .. } => {
                    if let Some(base) = node(*base, &mut rules) {
                        let path = indices
                            .iter()
                            .skip(1)
                            .map(|i| i.as_const().unwrap_or(atomig_analysis::pointsto::ANY_INDEX))
                            .collect();
                        rules.push(Rule::Gep {
                            base,
                            dst: var,
                            path,
                        });
                    }
                }
                InstKind::Cast { value, .. } => {
                    if let Some(src) = node(*value, &mut rules) {
                        rules.push(Rule::Copy { src, dst: var });
                    }
                }
                InstKind::Bin {
                    op: BinOp::Add | BinOp::Sub,
                    lhs,
                    rhs,
                } => {
                    for v in [*lhs, *rhs] {
                        if let Some(src) = node(v, &mut rules) {
                            rules.push(Rule::Copy { src, dst: var });
                        }
                    }
                }
                InstKind::Call { callee, args, .. } => match callee {
                    Callee::Func(t) => {
                        for (j, a) in args.iter().enumerate() {
                            if let Some(src) = node(*a, &mut rules) {
                                let dst = Node::Param(*t, j as u32);
                                rules.push(Rule::Copy { src, dst });
                            }
                        }
                        rules.push(Rule::Copy {
                            src: Node::Ret(*t),
                            dst: var,
                        });
                    }
                    Callee::Builtin(Builtin::Malloc) => rules.push(Rule::Addr(
                        var,
                        (ObjBase::Heap(f, inst.id), Vec::new(), false),
                    )),
                    Callee::Builtin(Builtin::Spawn) => {
                        if let (Some(Value::Func(t)), Some(a)) = (args.first(), args.get(1)) {
                            if let Some(src) = node(*a, &mut rules) {
                                let dst = Node::Param(*t, 0);
                                rules.push(Rule::Copy { src, dst });
                            }
                        }
                    }
                    Callee::Builtin(_) => {}
                },
                _ => {}
            }
        }
        for b in func.block_ids() {
            if let Terminator::Ret(Some(v)) = &func.block(b).term {
                if let Some(src) = node(*v, &mut rules) {
                    rules.push(Rule::Copy {
                        src,
                        dst: Node::Ret(f),
                    });
                }
            }
        }
    }
    rules
}

/// Adds `from` to `into`; whether anything was new.
fn grow(into: &mut BTreeSet<Key>, from: impl IntoIterator<Item = Key>) -> bool {
    let before = into.len();
    into.extend(from);
    into.len() != before
}

/// The least solution of the rules: points-to sets and cell contents.
fn solve(rules: &[Rule]) -> BTreeMap<Node, BTreeSet<Key>> {
    let mut pts: BTreeMap<Node, BTreeSet<Key>> = BTreeMap::new();
    let mut contents: BTreeMap<Key, BTreeSet<Key>> = BTreeMap::new();
    let get =
        |pts: &BTreeMap<Node, BTreeSet<Key>>, n: &Node| pts.get(n).cloned().unwrap_or_default();
    loop {
        let mut changed = false;
        for rule in rules {
            match rule {
                Rule::Addr(dst, c) => changed |= grow(pts.entry(*dst).or_default(), [c.clone()]),
                Rule::Copy { src, dst } => {
                    let s = get(&pts, src);
                    changed |= grow(pts.entry(*dst).or_default(), s);
                }
                Rule::Load { p, dst } => {
                    for c in get(&pts, p) {
                        let s = contents.get(&c).cloned().unwrap_or_default();
                        changed |= grow(pts.entry(*dst).or_default(), s);
                    }
                }
                Rule::Store { p, src } => {
                    let s = get(&pts, src);
                    for c in get(&pts, p) {
                        changed |= grow(contents.entry(c).or_default(), s.iter().cloned());
                    }
                }
                Rule::Gep { base, dst, path } => {
                    let cells: Vec<Key> = get(&pts, base).iter().map(|c| gep(c, path)).collect();
                    changed |= grow(pts.entry(*dst).or_default(), cells);
                }
            }
        }
        if !changed {
            return pts;
        }
    }
}

/// Checks `PointsTo` on `m` against the reference: the cell table, the
/// cells of every access, and the shareability of every cell.
fn check(m: &Module, what: &str) {
    let pt = PointsTo::analyze(m);
    let reference = solve(&rules(m));

    let table: Vec<Key> = (0..pt.cell_count() as u32)
        .map(|c| key(pt.cell(atomig_analysis::CellId(c))))
        .collect();
    let cells: BTreeSet<Key> = table.iter().cloned().collect();
    assert_eq!(cells.len(), table.len(), "{what}: a cell is interned twice");
    let want: BTreeSet<Key> = reference.values().flatten().cloned().collect();
    assert_eq!(cells, want, "{what}: cell table");

    for f in m.func_ids() {
        let func = m.func(f);
        for (_, inst) in func.insts() {
            let got = pt.cells_of_access(f, inst.id);
            if !inst.kind.is_memory_access() {
                assert!(
                    got.is_empty(),
                    "{what}: {} %{} is no access",
                    func.name,
                    inst.id
                );
                continue;
            }
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "{what}: cells of {} %{} ascend",
                func.name,
                inst.id
            );
            let got: BTreeSet<Key> = got.iter().map(|&c| key(pt.cell(c))).collect();
            let want = match inst.kind.address() {
                Some(Value::Global(g)) => [(ObjBase::Global(g), Vec::new(), false)].into(),
                Some(Value::Inst(id)) => reference
                    .get(&Node::Var(f, id))
                    .cloned()
                    .unwrap_or_default(),
                Some(Value::Param(i)) => reference
                    .get(&Node::Param(f, i))
                    .cloned()
                    .unwrap_or_default(),
                _ => BTreeSet::new(),
            };
            assert_eq!(got, want, "{what}: cells of {} %{}", func.name, inst.id);
        }
    }

    let mut escapes: BTreeMap<FuncId, EscapeInfo> = BTreeMap::new();
    for (c, k) in table.iter().enumerate() {
        let want = match k.0 {
            ObjBase::Global(_) | ObjBase::Heap(..) => true,
            ObjBase::Stack(f, id) => !escapes
                .entry(f)
                .or_insert_with(|| EscapeInfo::new(&m.func(f).inst_index()))
                .is_private_slot(id),
        };
        let got = pt.is_shareable(atomig_analysis::CellId(c as u32));
        assert_eq!(got, want, "{what}: shareability of {k:?}");
    }
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
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let m = atomig_frontc::compile(&src, &name).unwrap();
        check(&m, &name);
    }
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
            check(&m, &format!("{} seed {seed}", p.name));
        }
    }
}

/// Multi-cell sets, nested field paths, pointers stored in memory and
/// threads, which the examples and profiles barely reach.
#[test]
fn matches_reference_on_pointer_mixes() {
    let m = atomig_frontc::compile(
        r#"
        struct Inner { long x; long y; };
        struct Node { long key; struct Node *next; struct Inner in; };
        struct Node *head;
        struct Node g;
        struct Node *pick(struct Node *a, struct Node *b, long c) {
          if (c) { return a; }
          return b;
        }
        void worker(long addr) {
          struct Node *n = (struct Node*)addr;
          n->next->in.y = 1;
          head = n->next;
        }
        int main() {
          struct Node *a = (struct Node*)malloc(3);
          struct Node *b = (struct Node*)malloc(3);
          a->next = b;
          b->next = &g;
          g.next = a;
          head = pick(a, b, 1);
          struct Node *p = head;
          while (p->key == 0) { p = p->next; }
          p->in.x = 2;
          long t = spawn(worker, (long)p);
          join(t);
          return (int)head->in.y;
        }
        "#,
        "mixes",
    )
    .unwrap();
    check(&m, "mixes");
    let pt = PointsTo::analyze(&m);
    assert!(
        m.func_ids().any(|f| m
            .func(f)
            .insts()
            .any(|(_, i)| pt.cells_of_access(f, i.id).len() > 1)),
        "some access may touch several cells"
    );

    // A GEP fed back through memory grows its path until truncation.
    let m = atomig_mir::parse_module(
        r#"
        struct %N { i64, ptr %N }
        global @head: ptr %N = 0
        fn @walk() : void {
        bb0:
          %o = alloca %N
          store ptr %N %o, @head
          %p = load ptr %N, @head
          br loop
        loop:
          %q = gep %N, %p, 0, 1
          %n = load ptr %N, %q
          %r = gep %N, %q, 0, 1
          store ptr %N %r, @head
          br loop
        }
        "#,
    )
    .unwrap();
    check(&m, "truncation");
    let pt = PointsTo::analyze(&m);
    assert!((0..pt.cell_count() as u32).any(|c| pt.cell(atomig_analysis::CellId(c)).summary));
}

/// Copies that name the same edge more than once: one value passed to
/// the same parameter from several call sites, one value stored through
/// two aliasing pointers, and copy cycles through parameters, returns
/// and memory.
const DUPLICATE_COPIES: &str = r#"
global @x: i64 = 0
global @y: i64 = 0
global @slot: ptr i64 = 0
fn @sink(%p: ptr i64) : void {
bb0:
  store i64 1, %p
  ret
}
fn @pass(%p: ptr i64) : ptr i64 {
bb0:
  call void @sink(%p)
  call void @sink(%p)
  ret %p
}
fn @ping(%p: ptr i64) : ptr i64 {
bb0:
  %r = call ptr i64 @pong(%p)
  ret %r
}
fn @pong(%p: ptr i64) : ptr i64 {
bb0:
  %r = call ptr i64 @ping(%p)
  ret %p
}
fn @main() : void {
bb0:
  %h = call ptr i64 @malloc(1)
  call void @sink(%h)
  call void @sink(%h)
  call void @sink(@x)
  call void @sink(@x)
  %r = call ptr i64 @pass(@y)
  %s = call ptr i64 @pass(%h)
  %c = call ptr i64 @ping(%r)
  %d = call ptr i64 @pong(%s)
  %q = cast @slot to ptr ptr i64
  store ptr i64 %h, @slot
  store ptr i64 %h, %q
  store ptr i64 %c, @slot
  store ptr i64 %c, %q
  %l = load ptr i64, %q
  %t = add %l, 0
  store ptr i64 %t, @slot
  store i64 2, %l
  ret
}
"#;

/// Repeated copy edges (five here, none on the profiles) keep the
/// answers, the cell numbering and every statistic.
#[test]
fn repeated_copies_keep_answers_and_statistics() {
    let m = atomig_mir::parse_module(DUPLICATE_COPIES).unwrap();
    atomig_mir::verify_module(&m).unwrap();
    check(&m, "duplicate copies");
    let pt = PointsTo::analyze(&m);
    let s = pt.stats;
    let got = (s.nodes, s.cells, s.constraints, s.iterations, s.passes);
    assert_eq!(
        got,
        (28, 4, 36, 24, 2),
        "nodes, cells, constraints, pops, passes"
    );
    let table: Vec<String> = (0..pt.cell_count() as u32)
        .map(|c| pt.describe_cell(&m, CellId(c)))
        .collect();
    assert_eq!(table, ["heap@main:%t0", "x", "y", "slot"]);
}

/// A parameter that gains a cell between two copies to the same
/// destination: `@f` passes `%p` on, calls itself with `@x`, and passes
/// `%p` on again. The answers must match the reference. The pop count is
/// left free: whether the second copy delivers `@x` at once or at `%p`'s
/// pop depends on whether the solver skips a repeated edge.
#[test]
fn repeated_copy_from_a_growing_source_keeps_answers() {
    let m = atomig_mir::parse_module(
        r#"
        global @x: i64 = 0
        global @y: i64 = 0
        fn @sink(%p: ptr i64) : void {
        bb0:
          store i64 1, %p
          ret
        }
        fn @f(%p: ptr i64) : void {
        bb0:
          call void @sink(%p)
          call void @f(@x)
          call void @sink(%p)
          ret
        }
        fn @main() : void {
        bb0:
          call void @f(@y)
          ret
        }
        "#,
    )
    .unwrap();
    check(&m, "growing source");
    let s = PointsTo::analyze(&m).stats;
    assert_eq!((s.nodes, s.cells, s.constraints), (10, 2, 8));
}
