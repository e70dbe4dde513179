//! The MIR type system.
//!
//! Deliberately small: integers of a few widths, typed pointers, named
//! structs and fixed-size arrays. Typed pointers (rather than LLVM's modern
//! opaque pointers) are kept because the paper's type-based alias
//! exploration keys on the *pointee type and offsets* of `getelementptr`
//! instructions (§3.4).
//!
//! A [`Type`] is a 4-byte `Copy` handle, so every instruction that names a
//! type carries four bytes for it. Scalars and structs are encoded in the
//! handle itself. Pointer and array types are hash-consed in one
//! process-wide interner: building the same type twice, in any order and
//! on any thread, gives the same handle, so `==` on handles is structural
//! equality. Interned types live as long as the process. [`Type::kind`]
//! decodes a handle into a [`TypeKind`] for matching. Nothing observable
//! depends on a handle's numeric value: `Hash` hashes the structure, and
//! `Display` and `Debug` print it.

use crate::fxhash::FxBuild;
use crate::module::StructId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A MIR type: a 4-byte handle, compared structurally.
///
/// The scalar types are constants that also work in patterns. Pointer,
/// struct and array types are built with [`ptr_to`](Type::ptr_to),
/// [`struct_of`](Type::struct_of) and [`array_of`](Type::array_of), and
/// taken apart with [`kind`](Type::kind).
///
/// # Examples
///
/// ```
/// use atomig_mir::{Type, TypeKind};
///
/// let p = Type::ptr_to(Type::I32);
/// assert!(p.is_ptr());
/// assert_eq!(p.pointee(), Some(&Type::I32));
/// assert_eq!(p, Type::ptr_to(Type::I32));
/// assert_eq!(p.kind(), TypeKind::Ptr(Type::I32));
/// assert_eq!(p.to_string(), "ptr i32");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Type(u32);

/// A decoded [`Type`], for matching. Its variants and their order are
/// those of the MIR type grammar; `Type`'s `Hash` and `Debug` are this
/// enum's derived ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// The absence of a value (function returns only).
    Void,
    /// A 1-bit boolean.
    I1,
    /// An 8-bit integer.
    I8,
    /// A 16-bit integer.
    I16,
    /// A 32-bit integer.
    I32,
    /// A 64-bit integer.
    I64,
    /// A pointer to a value of the contained type.
    Ptr(Type),
    /// A named struct declared in the enclosing [`Module`](crate::Module).
    Struct(StructId),
    /// A fixed-size array `[len x elem]`.
    Array(Type, u32),
}

// A handle's top two bits say how to read the other thirty: a scalar
// code, a `StructId`, or an interner index of a pointer or array node.
const TAG_SHIFT: u32 = 30;
const PAYLOAD: u32 = (1 << TAG_SHIFT) - 1;
const SCALAR: u32 = 0;
const STRUCT: u32 = 1;
const PTR: u32 = 2;
const ARRAY: u32 = 3;

impl Type {
    /// The absence of a value (function returns only).
    #[allow(non_upper_case_globals)]
    pub const Void: Type = Type(0);
    /// A 1-bit boolean.
    pub const I1: Type = Type(1);
    /// An 8-bit integer.
    pub const I8: Type = Type(2);
    /// A 16-bit integer.
    pub const I16: Type = Type(3);
    /// A 32-bit integer.
    pub const I32: Type = Type(4);
    /// A 64-bit integer.
    pub const I64: Type = Type(5);

    /// Returns a pointer type to `pointee`.
    pub fn ptr_to(pointee: Type) -> Type {
        intern(PTR, pointee, 0)
    }

    /// Returns an array type `[len x elem]`.
    pub fn array_of(elem: Type, len: u32) -> Type {
        intern(ARRAY, elem, len)
    }

    /// Returns the named struct type `sid`.
    ///
    /// # Panics
    ///
    /// If `sid` does not fit the handle's 30-bit payload.
    pub fn struct_of(sid: StructId) -> Type {
        assert!(sid.0 <= PAYLOAD, "struct id {} out of range", sid.0);
        Type(STRUCT << TAG_SHIFT | sid.0)
    }

    fn tag(self) -> u32 {
        self.0 >> TAG_SHIFT
    }

    /// The type decoded for matching.
    pub fn kind(self) -> TypeKind {
        let payload = self.0 & PAYLOAD;
        match self.tag() {
            SCALAR => [
                TypeKind::Void,
                TypeKind::I1,
                TypeKind::I8,
                TypeKind::I16,
                TypeKind::I32,
                TypeKind::I64,
            ][payload as usize],
            STRUCT => TypeKind::Struct(StructId(payload)),
            PTR => TypeKind::Ptr(node(payload).elem),
            _ => {
                let n = node(payload);
                TypeKind::Array(n.elem, n.len)
            }
        }
    }

    /// Returns `true` if this is any integer type (including `i1`).
    pub fn is_int(&self) -> bool {
        self.tag() == SCALAR && *self != Type::Void
    }

    /// Returns `true` if this is a pointer type.
    pub fn is_ptr(&self) -> bool {
        self.tag() == PTR
    }

    /// Returns `true` if the type is a first-class scalar (int or pointer),
    /// i.e. something a load/store can move in one access.
    pub fn is_scalar(&self) -> bool {
        self.is_int() || self.is_ptr()
    }

    /// The pointee of a pointer type, or `None` for non-pointers.
    pub fn pointee(&self) -> Option<&Type> {
        self.is_ptr().then(|| &node(self.0 & PAYLOAD).elem)
    }

    /// Bit width of an integer type, or `None` for non-integers.
    pub fn bit_width(&self) -> Option<u32> {
        match *self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I16 => Some(16),
            Type::I32 => Some(32),
            Type::I64 => Some(64),
            _ => None,
        }
    }

    /// Number of scalar slots this type occupies in the flat memory model
    /// used by the interpreter. Structs are resolved via `struct_sizes`,
    /// which maps [`StructId`] to a precomputed slot count.
    pub fn slot_count(&self, struct_sizes: &[u32]) -> u32 {
        match self.kind() {
            TypeKind::Void => 0,
            TypeKind::Struct(sid) => struct_sizes.get(sid.0 as usize).copied().unwrap_or(0),
            TypeKind::Array(elem, n) => elem.slot_count(struct_sizes) * n,
            _ => 1,
        }
    }

    /// An integer constant's natural truncation mask for this type, used by
    /// the interpreter to model wrap-around. Returns `u64::MAX` for
    /// pointers/other.
    pub fn value_mask(&self) -> u64 {
        match self.bit_width() {
            Some(64) | None => u64::MAX,
            Some(w) => (1u64 << w) - 1,
        }
    }
}

impl Hash for Type {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind().hash(state);
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.kind(), f)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            TypeKind::Void => f.write_str("void"),
            TypeKind::I1 => f.write_str("i1"),
            TypeKind::I8 => f.write_str("i8"),
            TypeKind::I16 => f.write_str("i16"),
            TypeKind::I32 => f.write_str("i32"),
            TypeKind::I64 => f.write_str("i64"),
            TypeKind::Ptr(p) => write!(f, "ptr {p}"),
            TypeKind::Struct(sid) => write!(f, "%s{}", sid.0),
            TypeKind::Array(e, n) => write!(f, "[{n} x {e}]"),
        }
    }
}

/// An interned pointer (`len` 0) or array type.
struct Node {
    elem: Type,
    len: u32,
}

/// The hash-consing table: nodes by index, and each node's index by its
/// tag and fields. Element handles are canonical, so equal fields mean
/// equal types.
#[derive(Default)]
struct Interner {
    nodes: Vec<&'static Node>,
    index: HashMap<(u32, u32, u32), u32, FxBuild>,
}

fn table() -> MutexGuard<'static, Interner> {
    static TABLE: OnceLock<Mutex<Interner>> = OnceLock::new();
    // The table is consistent after every statement that touches it, so a
    // panic elsewhere that poisoned the lock left nothing half done.
    TABLE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn intern(tag: u32, elem: Type, len: u32) -> Type {
    let mut guard = table();
    let Interner { nodes, index } = &mut *guard;
    let id = *index.entry((tag, elem.0, len)).or_insert_with(|| {
        let id = nodes.len() as u32;
        assert!(id <= PAYLOAD, "too many distinct pointer and array types");
        nodes.push(Box::leak(Box::new(Node { elem, len })));
        id
    });
    Type(tag << TAG_SHIFT | id)
}

fn node(id: u32) -> &'static Node {
    table().nodes[id as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_classification() {
        assert!(Type::I32.is_int());
        assert!(Type::I32.is_scalar());
        assert!(Type::ptr_to(Type::I8).is_scalar());
        assert!(!Type::Void.is_scalar());
        assert!(!Type::Void.is_int());
        assert!(!Type::struct_of(StructId(0)).is_int());
        assert!(!Type::array_of(Type::I32, 3).is_scalar());
    }

    #[test]
    fn pointee_access() {
        let t = Type::ptr_to(Type::ptr_to(Type::I64));
        assert_eq!(t.pointee().and_then(Type::pointee), Some(&Type::I64));
        assert_eq!(Type::I8.pointee(), None);
        assert_eq!(Type::array_of(Type::I8, 2).pointee(), None);
    }

    #[test]
    fn slot_counts() {
        let sizes = vec![3u32]; // one struct with 3 slots
        assert_eq!(Type::I32.slot_count(&sizes), 1);
        assert_eq!(Type::array_of(Type::I64, 4).slot_count(&sizes), 4);
        assert_eq!(Type::struct_of(StructId(0)).slot_count(&sizes), 3);
        assert_eq!(
            Type::array_of(Type::struct_of(StructId(0)), 2).slot_count(&sizes),
            6
        );
    }

    #[test]
    fn masks() {
        assert_eq!(Type::I1.value_mask(), 1);
        assert_eq!(Type::I8.value_mask(), 0xff);
        assert_eq!(Type::I64.value_mask(), u64::MAX);
        assert_eq!(Type::ptr_to(Type::I8).value_mask(), u64::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(Type::ptr_to(Type::I32).to_string(), "ptr i32");
        assert_eq!(Type::array_of(Type::I8, 16).to_string(), "[16 x i8]");
    }

    #[test]
    fn kinds_round_trip() {
        let s = Type::struct_of(StructId(PAYLOAD));
        assert_eq!(s.kind(), TypeKind::Struct(StructId(PAYLOAD)));
        let a = Type::array_of(s, 7);
        assert_eq!(a.kind(), TypeKind::Array(s, 7));
        assert_eq!(Type::ptr_to(a).kind(), TypeKind::Ptr(a));
        assert_eq!(Type::I16.kind(), TypeKind::I16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn struct_ids_past_the_payload_panic() {
        Type::struct_of(StructId(PAYLOAD + 1));
    }
}
