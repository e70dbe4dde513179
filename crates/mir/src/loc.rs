//! Memory-location keys for the paper's type-based alias exploration (§3.4).
//!
//! AtoMig finds "sticky buddies" of an access without a precise points-to
//! analysis: accesses to globals are keyed by the global; pointer-based
//! accesses are keyed by the *type and constant offsets* of the
//! `getelementptr` instruction computing the address. Two accesses with the
//! same key are assumed to (possibly) alias; this over-approximates but is
//! constant-time per query, which is what makes AtoMig scale (§3.5).

use crate::func::{InstId, InstIndex};
use crate::inst::{GepIndex, InstKind};
use crate::module::{GlobalId, StructId};
use crate::types::{Type, TypeKind};
use crate::value::Value;
use std::fmt;

/// A module-wide key approximating "which memory does this access touch".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemLoc {
    /// A module global accessed directly (possibly through a constant-index
    /// GEP into it; the field path is folded into the key).
    Global(GlobalId, Vec<i64>),
    /// A field of a named struct reached through a pointer: keyed by struct
    /// type and the constant index path, exactly like the paper keys
    /// `getelementptr` type+offsets.
    Field(StructId, Vec<i64>),
    /// An element of an array of `elem` type with a dynamic index.
    ArrayElem(Type),
    /// A non-escaping stack slot of the given function-local alloca.
    Stack(InstId),
    /// A plain dereference of a pointer that is not a GEP (e.g. an `i32*`
    /// parameter). Keyed by pointee type; too coarse for buddy expansion by
    /// default but still identifies the access for marking.
    Pointee(Type),
    /// Nothing statically known.
    Unknown,
}

impl MemLoc {
    /// Whether this key is precise enough to participate in sticky-buddy
    /// expansion (§3.4). `Pointee`/`Unknown` buckets are excluded by
    /// default because they would sweep in unrelated accesses of the same
    /// scalar type; `Stack` slots are thread-local and never need barriers.
    pub fn is_buddy_key(&self) -> bool {
        matches!(
            self,
            MemLoc::Global(..) | MemLoc::Field(..) | MemLoc::ArrayElem(_)
        )
    }

    /// Whether the location is provably local to one thread's stack.
    pub fn is_stack(&self) -> bool {
        matches!(self, MemLoc::Stack(_))
    }
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Global(g, path) if path.is_empty() => write!(f, "{g}"),
            MemLoc::Global(g, path) => write!(f, "{g}+{path:?}"),
            MemLoc::Field(s, path) => write!(f, "{s}@{path:?}"),
            MemLoc::ArrayElem(t) => write!(f, "[{t}]"),
            MemLoc::Stack(i) => write!(f, "stack({i})"),
            MemLoc::Pointee(t) => write!(f, "*({t})"),
            MemLoc::Unknown => write!(f, "?"),
        }
    }
}

/// Resolves the [`MemLoc`] of a pointer value inside the function that
/// `index` indexes ([`Function::inst_index`](crate::Function::inst_index);
/// callers build it once per function and reuse it).
///
/// Walks back through GEPs and casts.
pub fn resolve_loc(index: &InstIndex<'_>, ptr: Value) -> MemLoc {
    resolve_loc_depth(index, ptr, 16)
}

fn resolve_loc_depth(index: &InstIndex<'_>, ptr: Value, depth: u32) -> MemLoc {
    if depth == 0 {
        return MemLoc::Unknown;
    }
    match ptr {
        Value::Global(g) => MemLoc::Global(g, Vec::new()),
        Value::Param(i) => match index.func().params.get(i as usize) {
            Some((_, ty)) => pointee_key(*ty),
            None => MemLoc::Unknown,
        },
        Value::Inst(id) => match index.get(id) {
            Some(InstKind::Alloca { .. }) => MemLoc::Stack(id),
            Some(InstKind::Gep {
                base,
                base_ty,
                indices,
            }) => resolve_gep(index, *base, *base_ty, indices, depth - 1),
            Some(InstKind::Cast { value, .. }) => resolve_loc_depth(index, *value, depth - 1),
            // A pointer loaded from memory or returned by a call: all we
            // know is its type.
            Some(InstKind::Load { ty, .. } | InstKind::Call { ret_ty: ty, .. }) => pointee_key(*ty),
            _ => MemLoc::Unknown,
        },
        _ => MemLoc::Unknown,
    }
}

fn resolve_gep(
    index: &InstIndex<'_>,
    base: Value,
    base_ty: Type,
    indices: &[GepIndex],
    depth: u32,
) -> MemLoc {
    let const_path: Option<Vec<i64>> = indices.iter().map(GepIndex::as_const).collect();
    let base_loc = resolve_loc_depth(index, base, depth);
    match (&base_loc, base_ty.kind()) {
        // GEP into a global: fold the (constant) path into the global key.
        (MemLoc::Global(g, prefix), _) => match const_path {
            Some(path) => {
                let mut full = prefix.clone();
                full.extend(path);
                MemLoc::Global(*g, full)
            }
            None => elem_key(base_ty),
        },
        // GEP through an arbitrary pointer to a struct: type+offset key,
        // the paper's signature scheme.
        (_, TypeKind::Struct(sid)) => match const_path {
            // Leading index scales whole objects; drop it from the field key
            // (node[i].field and node->field are the same field).
            Some(path) if path.len() > 1 => MemLoc::Field(sid, path[1..].to_vec()),
            _ => MemLoc::Field(sid, Vec::new()),
        },
        // GEP into an array, or through a scalar pointer (pointer
        // arithmetic on T*, a dynamic element of a T array).
        _ => elem_key(base_ty),
    }
}

fn elem_key(base_ty: Type) -> MemLoc {
    match base_ty.kind() {
        TypeKind::Array(elem, _) => MemLoc::ArrayElem(elem),
        _ => MemLoc::ArrayElem(base_ty),
    }
}

/// The key of a pointer of type `ty` that is all we know about: its
/// pointee, or `Unknown` if `ty` is not a pointer.
fn pointee_key(ty: Type) -> MemLoc {
    ty.pointee()
        .map_or(MemLoc::Unknown, |&p| MemLoc::Pointee(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::GepIndex;

    #[test]
    fn global_direct() {
        let b = FunctionBuilder::new("f", vec![], Type::Void);
        let f = b.finish();
        let idx = f.inst_index();
        assert_eq!(
            resolve_loc(&idx, Value::Global(GlobalId(3))),
            MemLoc::Global(GlobalId(3), vec![])
        );
    }

    #[test]
    fn alloca_is_stack() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let a = b.alloca(Type::I32);
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        let loc = resolve_loc(&idx, a);
        assert!(loc.is_stack());
        assert!(!loc.is_buddy_key());
    }

    #[test]
    fn struct_field_key_ignores_leading_index() {
        let sid = StructId(0);
        let mut b = FunctionBuilder::new(
            "f",
            vec![("n".into(), Type::ptr_to(Type::struct_of(sid)))],
            Type::Void,
        );
        // n->field1  and  n[5].field1 must produce the same key
        let a1 = b.gep(
            Type::struct_of(sid),
            Value::Param(0),
            vec![GepIndex::Const(0), GepIndex::Const(1)],
        );
        let a2 = b.gep(
            Type::struct_of(sid),
            Value::Param(0),
            vec![GepIndex::Const(5), GepIndex::Const(1)],
        );
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        let l1 = resolve_loc(&idx, a1);
        let l2 = resolve_loc(&idx, a2);
        assert_eq!(l1, MemLoc::Field(sid, vec![1]));
        assert_eq!(l1, l2);
        assert!(l1.is_buddy_key());
    }

    #[test]
    fn gep_into_global_folds_path() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let a = b.gep(
            Type::array_of(Type::I32, 8),
            Value::Global(GlobalId(0)),
            vec![GepIndex::Const(0), GepIndex::Const(3)],
        );
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        assert_eq!(
            resolve_loc(&idx, a),
            MemLoc::Global(GlobalId(0), vec![0, 3])
        );
    }

    #[test]
    fn dynamic_array_index_keys_by_elem_type() {
        let mut b = FunctionBuilder::new("f", vec![("i".into(), Type::I64)], Type::Void);
        let a = b.gep(
            Type::array_of(Type::I64, 16),
            Value::Global(GlobalId(1)),
            vec![GepIndex::Const(0), GepIndex::Dyn(Value::Param(0))],
        );
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        assert_eq!(resolve_loc(&idx, a), MemLoc::ArrayElem(Type::I64));
    }

    #[test]
    fn param_pointer_is_pointee() {
        let b = FunctionBuilder::new("f", vec![("p".into(), Type::ptr_to(Type::I32))], Type::Void);
        let f = b.finish();
        let idx = f.inst_index();
        let loc = resolve_loc(&idx, Value::Param(0));
        assert_eq!(loc, MemLoc::Pointee(Type::I32));
        assert!(!loc.is_buddy_key());
    }

    #[test]
    fn loaded_pointer_is_pointee_typed() {
        let sid = StructId(2);
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let slot = b.alloca(Type::ptr_to(Type::struct_of(sid)));
        let p = b.load(Type::ptr_to(Type::struct_of(sid)), slot);
        // node->field0
        let a = b.gep(
            Type::struct_of(sid),
            p,
            vec![GepIndex::Const(0), GepIndex::Const(0)],
        );
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        assert_eq!(resolve_loc(&idx, a), MemLoc::Field(sid, vec![0]));
    }

    #[test]
    fn cast_is_transparent() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let c = b.cast(Value::Global(GlobalId(7)), Type::ptr_to(Type::I8));
        b.ret(None);
        let f = b.finish();
        let idx = f.inst_index();
        assert_eq!(resolve_loc(&idx, c), MemLoc::Global(GlobalId(7), vec![]));
    }
}
