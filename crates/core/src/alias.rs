//! Alias exploration: module-wide sticky-buddy maps (§3.4).
//!
//! "For each detected atomic access, we statically look for other instances
//! of accesses to these identified memory locations and mark them as their
//! *sticky buddies*." The key is type-based — global identity, or the
//! `getelementptr` struct type + constant offsets — so buddy lookup is a
//! constant-time map access, which is what lets AtoMig scale where precise
//! inter-procedural alias analysis exhausts memory (§3.5).

use crate::annotations::loc_of;
use crate::config::AliasMode;
use crate::trace::AliasClass;
use atomig_analysis::PointsTo;
use atomig_mir::{FuncId, InstId, MemLoc, Module};
use std::collections::HashMap;

/// A module-wide grouping of memory accesses into alias classes: the
/// accesses of one class may alias each other, so a seed's class holds
/// its sticky buddies.
///
/// Built once during initialization (the paper: "we only have to populate
/// this map once"); queries are `O(1)` map lookups. Two backends fill it
/// (selected by [`AliasMode`]), and the planner asks both the same two
/// questions, [`class_of`](AliasMap::class_of) an access and the
/// [`members`](AliasMap::members) of a class:
///
/// * [`AliasMap::build`] — the paper's type-based keys: a class is an
///   [`AliasClass::Key`], the accesses whose locations are equal.
/// * [`AliasMap::build_points_to`] — an [`AliasClass::Class`] holds
///   accesses whose points-to cells overlap.
///
/// The default map is an empty type-based one: it still names every
/// access's class, which is all the Figure 6 writer fences need when
/// alias exploration is off.
#[derive(Debug, Clone, Default)]
pub struct AliasMap {
    backend: AliasMode,
    /// Accesses of each kept key (type-based backend only).
    keys: HashMap<MemLoc, Vec<(FuncId, InstId)>>,
    /// Overlap classes of shareable accesses (points-to backend only).
    classes: Vec<Vec<(FuncId, InstId)>>,
    /// Class index of each classified access (points-to backend only).
    access_class: HashMap<(FuncId, InstId), usize>,
    /// Number of memory accesses scanned (diagnostics).
    pub accesses_scanned: usize,
}

/// Union-find over dense `u32` ids.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        let mut c = x;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

impl AliasMap {
    /// Scans all memory accesses of `m` and builds the map.
    ///
    /// When `pointee_buddies` is false (the default, matching the paper),
    /// only precise keys — globals and GEP type+offset signatures —
    /// participate; coarse `Pointee` buckets are skipped.
    pub fn build(m: &Module, pointee_buddies: bool) -> AliasMap {
        let mut keys: HashMap<MemLoc, Vec<(FuncId, InstId)>> = HashMap::new();
        let mut accesses_scanned = 0;
        for fid in m.func_ids() {
            let func = m.func(fid);
            let index = func.inst_index();
            for (_, inst) in func.insts() {
                if !inst.kind.is_memory_access() {
                    continue;
                }
                accesses_scanned += 1;
                let loc = loc_of(&index, &inst.kind);
                let eligible =
                    loc.is_buddy_key() || (pointee_buddies && matches!(loc, MemLoc::Pointee(_)));
                if eligible {
                    keys.entry(loc).or_default().push((fid, inst.id));
                }
            }
        }
        AliasMap {
            keys,
            accesses_scanned,
            ..AliasMap::default()
        }
    }

    /// Builds overlap classes from a solved [`PointsTo`] analysis.
    ///
    /// Every memory access whose address resolves to at least one
    /// *shareable* cell (a global, a heap object, or an escaping stack
    /// slot) is placed in an equivalence class with every access it may
    /// alias: the access's own cells are unioned together, and cells of
    /// the same allocation site whose field paths may overlap are unioned
    /// pairwise. The classes are the points-to analogue of the type-based
    /// buddy lists — strictly finer on aliased handles (distinct globals
    /// of the same struct type land in distinct classes) and on distinct
    /// allocation sites.
    pub fn build_points_to(m: &Module, pt: &PointsTo) -> AliasMap {
        let mut accesses_scanned = 0;
        // Collect classified accesses and the cells they use.
        let mut entries: Vec<((FuncId, InstId), Vec<atomig_analysis::CellId>)> = Vec::new();
        let mut used_cells: Vec<atomig_analysis::CellId> = Vec::new();
        for fid in m.func_ids() {
            let func = m.func(fid);
            for (_, inst) in func.insts() {
                if !inst.kind.is_memory_access() {
                    continue;
                }
                accesses_scanned += 1;
                let cells: Vec<_> = pt
                    .cells_of_access(fid, inst.id)
                    .iter()
                    .copied()
                    .filter(|&c| pt.is_shareable(c))
                    .collect();
                if !cells.is_empty() {
                    used_cells.extend(cells.iter().copied());
                    entries.push(((fid, inst.id), cells));
                }
            }
        }
        used_cells.sort_unstable();
        used_cells.dedup();

        // Union overlapping cells (grouped by base: only same-base cells
        // can overlap, so the quadratic pass stays per-site small).
        let mut uf = UnionFind::new(pt.cell_count());
        let mut by_base: HashMap<atomig_analysis::ObjBase, Vec<atomig_analysis::CellId>> =
            HashMap::new();
        for &c in &used_cells {
            by_base.entry(pt.cell(c).base).or_default().push(c);
        }
        for group in by_base.values() {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    if pt.cells_overlap(a, b) {
                        uf.union(a.0, b.0);
                    }
                }
            }
        }
        // An access with several candidate cells bridges all of them.
        for (_, cells) in &entries {
            for w in cells.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
        }

        // Group accesses by class root.
        let mut class_of_root: HashMap<u32, usize> = HashMap::new();
        let mut classes: Vec<Vec<(FuncId, InstId)>> = Vec::new();
        let mut access_class = HashMap::new();
        for (acc, cells) in &entries {
            let root = uf.find(cells[0].0);
            let idx = *class_of_root.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[idx].push(*acc);
            access_class.insert(*acc, idx);
        }
        for class in &mut classes {
            class.sort_unstable_by_key(|&(f, i)| (f.0, i.0));
        }
        AliasMap {
            backend: AliasMode::PointsTo,
            classes,
            access_class,
            accesses_scanned,
            ..AliasMap::default()
        }
    }

    /// The backend that built the map.
    pub fn backend(&self) -> AliasMode {
        self.backend
    }

    /// The alias class of `access`, whose address resolves to `loc`. For
    /// the type-based backend that is `loc` itself, of any kind, kept by
    /// [`build`](AliasMap::build) or not. For points-to it is the access's
    /// overlap class, `None` when its address never resolves to a
    /// shareable cell.
    pub fn class_of(&self, access: (FuncId, InstId), loc: MemLoc) -> Option<AliasClass> {
        match self.backend {
            AliasMode::TypeBased => Some(AliasClass::Key(loc)),
            AliasMode::PointsTo => self
                .access_class
                .get(&access)
                .map(|&c| AliasClass::Class(c)),
        }
    }

    /// The accesses of `class` — type-based in module order, points-to
    /// sorted by `(function, instruction)`. Empty for a key the map does
    /// not keep (a stack slot, or a pointee bucket without
    /// `pointee_buddies`).
    pub fn members(&self, class: &AliasClass) -> &[(FuncId, InstId)] {
        let members = match class {
            AliasClass::Key(loc) => self.keys.get(loc),
            AliasClass::Class(c) => self.classes.get(*c),
        };
        members.map_or(&[], Vec::as_slice)
    }

    /// All overlap classes, indexed by [`AliasClass::Class`] (points-to
    /// backend).
    pub fn classes(&self) -> &[Vec<(FuncId, InstId)>] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{parse_module, GlobalId, StructId, Type};

    /// The type-based class keyed by `loc`.
    fn key(am: &AliasMap, loc: MemLoc) -> &[(FuncId, InstId)] {
        am.members(&AliasClass::Key(loc))
    }

    /// The points-to class of access `i` of `f`.
    fn class_of_access(am: &AliasMap, f: FuncId, i: InstId) -> &[(FuncId, InstId)] {
        am.class_of((f, i), MemLoc::Unknown)
            .map_or(&[], |c| am.members(&c))
    }

    const SRC: &str = r#"
    struct %Node { i64, i64 }
    global @flag: i32 = 0
    fn @a(%n: ptr %Node) : void {
    bb0:
      %f = load i32, @flag
      %sa = gep %Node, %n, 0, 0
      %sv = load i64, %sa
      ret
    }
    fn @b(%n: ptr %Node) : void {
    bb0:
      store i32 1, @flag
      %sa = gep %Node, %n, 0, 0
      store i64 2, %sa
      %ka = gep %Node, %n, 0, 1
      store i64 3, %ka
      ret
    }
    "#;

    #[test]
    fn global_buddies_span_functions() {
        let m = parse_module(SRC).unwrap();
        let am = AliasMap::build(&m, false);
        let buddies = key(&am, MemLoc::Global(GlobalId(0), vec![]));
        assert_eq!(buddies.len(), 2);
        let funcs: Vec<u32> = buddies.iter().map(|(f, _)| f.0).collect();
        assert!(funcs.contains(&0) && funcs.contains(&1));
    }

    #[test]
    fn field_buddies_keyed_by_type_and_offset() {
        let m = parse_module(SRC).unwrap();
        let am = AliasMap::build(&m, false);
        let state = key(&am, MemLoc::Field(StructId(0), vec![0]));
        assert_eq!(state.len(), 2); // load in @a, store in @b
        let next = key(&am, MemLoc::Field(StructId(0), vec![1]));
        assert_eq!(next.len(), 1); // only the store in @b
    }

    #[test]
    fn scan_counts_all_accesses() {
        let m = parse_module(SRC).unwrap();
        let am = AliasMap::build(&m, false);
        assert_eq!(am.accesses_scanned, 5);
        // Every access lands in one of the three keys.
        let keys = [
            MemLoc::Global(GlobalId(0), vec![]),
            MemLoc::Field(StructId(0), vec![0]),
            MemLoc::Field(StructId(0), vec![1]),
        ];
        let members: usize = keys.into_iter().map(|k| key(&am, k).len()).sum();
        assert_eq!(members, 5);
    }

    #[test]
    fn stack_accesses_excluded() {
        let m = parse_module(
            r#"
            fn @f() : i32 {
            bb0:
              %x = alloca i32
              store i32 1, %x
              %v = load i32, %x
              ret %v
            }
            "#,
        )
        .unwrap();
        let am = AliasMap::build(&m, false);
        assert_eq!(am.accesses_scanned, 2);
        // Each access still has a class — its stack slot — but the map
        // keeps no members for it.
        let f = &m.funcs[0];
        let index = f.inst_index();
        for (_, inst) in f.insts().filter(|(_, i)| i.kind.is_memory_access()) {
            let loc = loc_of(&index, &inst.kind);
            assert!(loc.is_stack());
            let class = am.class_of((FuncId(0), inst.id), loc.clone());
            assert_eq!(class, Some(AliasClass::Key(loc)));
            assert!(am.members(&class.unwrap()).is_empty());
        }
    }

    #[test]
    fn pointee_buckets_opt_in() {
        let m = parse_module(
            r#"
            fn @f(%p: ptr i32) : i32 {
            bb0:
              %v = load i32, %p
              ret %v
            }
            "#,
        )
        .unwrap();
        let off = AliasMap::build(&m, false);
        assert!(key(&off, MemLoc::Pointee(Type::I32)).is_empty());
        let on = AliasMap::build(&m, true);
        assert_eq!(key(&on, MemLoc::Pointee(Type::I32)).len(), 1);
    }

    /// Pointee buckets are keyed by pointee type alone, so raw-pointer
    /// accesses in different functions share one coarse bucket per type.
    #[test]
    fn pointee_buckets_span_functions_per_type() {
        let m = parse_module(
            r#"
            fn @reader(%p: ptr i32) : i32 {
            bb0:
              %v = load i32, %p
              ret %v
            }
            fn @writer(%p: ptr i32) : void {
            bb0:
              store i32 1, %p
              ret
            }
            fn @other(%q: ptr i64) : i64 {
            bb0:
              %v = load i64, %q
              ret %v
            }
            "#,
        )
        .unwrap();
        let am = AliasMap::build(&m, true);
        let i32_bucket = key(&am, MemLoc::Pointee(Type::I32));
        assert_eq!(i32_bucket.len(), 2, "reader + writer share the i32 bucket");
        let funcs: Vec<u32> = i32_bucket.iter().map(|(f, _)| f.0).collect();
        assert!(funcs.contains(&0) && funcs.contains(&1));
        assert_eq!(
            key(&am, MemLoc::Pointee(Type::I64)).len(),
            1,
            "i64 pointer access stays in its own bucket"
        );
    }

    /// Coarse pointee buckets coexist with precise `Field` keys: struct
    /// accesses keep their field keys while raw-pointer accesses bucket
    /// by type, and neither key's buddy list leaks into the other.
    #[test]
    fn pointee_buckets_mix_with_field_keys() {
        let m = parse_module(SRC).unwrap();
        let off = AliasMap::build(&m, false);
        let on = AliasMap::build(&m, true);
        // SRC has no raw-pointer accesses, so the same keys exist either way.
        for loc in [
            MemLoc::Global(GlobalId(0), vec![]),
            MemLoc::Field(StructId(0), vec![0]),
            MemLoc::Field(StructId(0), vec![1]),
        ] {
            assert_eq!(key(&off, loc.clone()), key(&on, loc));
        }
        assert_eq!(
            key(&on, MemLoc::Field(StructId(0), vec![0])).len(),
            2,
            "field keys unchanged by the pointee knob"
        );

        let m2 = parse_module(
            r#"
            struct %Node { i64, i64 }
            fn @f(%n: ptr %Node, %p: ptr i64) : void {
            bb0:
              %sa = gep %Node, %n, 0, 0
              store i64 2, %sa
              store i64 3, %p
              ret
            }
            "#,
        )
        .unwrap();
        let am = AliasMap::build(&m2, true);
        // The gep-resolved access keeps its precise Field key; only the
        // raw pointer falls into the coarse bucket.
        assert_eq!(key(&am, MemLoc::Field(StructId(0), vec![0])).len(), 1);
        assert_eq!(key(&am, MemLoc::Pointee(Type::I64)).len(), 1);
    }

    /// The headline precision win: two globals of the same struct type
    /// handled through pointer parameters. Type-based keys merge every
    /// `h->field0` access into one `Field` bucket; points-to keeps the
    /// two handles apart.
    #[test]
    fn points_to_classes_split_aliased_handles() {
        let src = r#"
        struct %S { i64, i64 }
        global @a: %S = 0
        global @b: %S = 0
        fn @ta(%h: ptr %S) : void {
        bb0:
          %f = gep %S, %h, 0, 0
          store i64 1, %f
          ret
        }
        fn @tb(%h: ptr %S) : void {
        bb0:
          %f = gep %S, %h, 0, 0
          store i64 2, %f
          ret
        }
        fn @main() : void {
        bb0:
          call void @ta(@a)
          call void @tb(@b)
          ret
        }
        "#;
        let m = parse_module(src).unwrap();
        // Type-based: one shared Field(S, [0]) bucket with both stores.
        let tb = AliasMap::build(&m, false);
        assert_eq!(key(&tb, MemLoc::Field(StructId(0), vec![0])).len(), 2);
        // Points-to: the two stores land in distinct classes.
        let pt = atomig_analysis::PointsTo::analyze(&m);
        let am = AliasMap::build_points_to(&m, &pt);
        assert_eq!(am.classes().len(), 2);
        let ta = m.func_by_name("ta").unwrap();
        let store_in = |f| {
            m.func(f)
                .insts()
                .find(|(_, i)| i.kind.may_write())
                .map(|(_, i)| i.id)
                .unwrap()
        };
        assert_eq!(class_of_access(&am, ta, store_in(ta)).len(), 1);
    }

    #[test]
    fn points_to_classes_are_field_sensitive_and_skip_private_stack() {
        let src = r#"
        struct %S { i64, i64 }
        global @g: %S = 0
        fn @f() : i64 {
        bb0:
          %x = alloca i64
          store i64 0, %x
          %a = gep %S, @g, 0, 0
          store i64 1, %a
          %b = gep %S, @g, 0, 1
          %v = load i64, %b
          %w = load i64, %x
          ret %w
        }
        fn @other() : i64 {
        bb0:
          %a = gep %S, @g, 0, 0
          %v = load i64, %a
          ret %v
        }
        "#;
        let m = parse_module(src).unwrap();
        let pt = atomig_analysis::PointsTo::analyze(&m);
        let am = AliasMap::build_points_to(&m, &pt);
        // g.0 (two accesses across functions) and g.1 form separate
        // classes; the private alloca is not classified at all.
        assert_eq!(am.classes().len(), 2);
        assert_eq!(am.accesses_scanned, 5);
        let f = m.func_by_name("f").unwrap();
        let other = m.func_by_name("other").unwrap();
        let f_field0_store = m
            .func(f)
            .insts()
            .filter(|(_, i)| i.kind.may_write())
            .nth(1)
            .map(|(_, i)| i.id)
            .unwrap();
        let class = class_of_access(&am, f, f_field0_store);
        assert_eq!(class.len(), 2, "g.0 store pairs with the load in @other");
        assert!(class.iter().any(|&(fid, _)| fid == other));
        let alloca_store = m
            .func(f)
            .insts()
            .find(|(_, i)| i.kind.may_write())
            .map(|(_, i)| i.id)
            .unwrap();
        assert!(class_of_access(&am, f, alloca_store).is_empty());
    }
}
