//! `Type` is a 4-byte handle into a process-wide interner. These tests
//! pin what must not depend on the handle's numeric value: equal types
//! get equal handles and equal hashes whatever order and thread built
//! them, `Hash` writes the structure (the stream the old boxed `enum
//! Type` wrote), `Display` and `Debug` print the structure, and every
//! type the MIR parser accepts prints back to the same text.

use atomig_mir::printer::print_module;
use atomig_mir::{parse_module, FxHasher, StructId, Type, TypeKind};
use atomig_testutil::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The boxed type enum `Type` replaced, with its derived `Hash`.
#[derive(Hash)]
enum Shape {
    Void,
    I1,
    I8,
    I16,
    I32,
    I64,
    Ptr(Box<Shape>),
    Struct(StructId),
    Array(Box<Shape>, u32),
}

impl Shape {
    fn build(&self) -> Type {
        match self {
            Shape::Void => Type::Void,
            Shape::I1 => Type::I1,
            Shape::I8 => Type::I8,
            Shape::I16 => Type::I16,
            Shape::I32 => Type::I32,
            Shape::I64 => Type::I64,
            Shape::Ptr(p) => Type::ptr_to(p.build()),
            Shape::Struct(sid) => Type::struct_of(*sid),
            Shape::Array(e, n) => Type::array_of(e.build(), *n),
        }
    }

    /// The text the printer writes, naming struct `i` `%S{i}`.
    fn text(&self) -> String {
        match self {
            Shape::Void => "void".into(),
            Shape::I1 => "i1".into(),
            Shape::I8 => "i8".into(),
            Shape::I16 => "i16".into(),
            Shape::I32 => "i32".into(),
            Shape::I64 => "i64".into(),
            Shape::Ptr(p) => format!("ptr {}", p.text()),
            Shape::Struct(sid) => format!("%S{}", sid.0),
            Shape::Array(e, n) => format!("[{n} x {}]", e.text()),
        }
    }
}

/// A random type at most `depth` constructors deep, over `structs`
/// struct ids. Array lengths include both ends of the `u32` range.
fn shape(rng: &mut Rng, depth: u32, structs: u32) -> Shape {
    let leaf = depth == 0 || rng.gen_ratio(1, 3);
    match rng.gen_usize(if leaf { 7 } else { 9 }) {
        0 => Shape::I1,
        1 => Shape::I8,
        2 => Shape::I16,
        3 => Shape::I32,
        4 => Shape::I64,
        5 => Shape::Void,
        6 => Shape::Struct(StructId(rng.gen_usize(structs as usize) as u32)),
        7 => Shape::Ptr(Box::new(shape(rng, depth - 1, structs))),
        _ => {
            let len = match rng.gen_usize(4) {
                0 => 0,
                1 => u32::MAX,
                _ => rng.gen_usize(64) as u32,
            };
            Shape::Array(Box::new(shape(rng, depth - 1, structs)), len)
        }
    }
}

fn hash_with<H: Hasher>(mut h: H, v: &impl Hash) -> u64 {
    v.hash(&mut h);
    h.finish()
}

#[test]
fn equal_types_get_equal_handles_and_hashes_in_any_order() {
    let mut rng = Rng::new(11);
    let shapes: Vec<Shape> = (0..300).map(|_| shape(&mut rng, 4, 3)).collect();
    let forward: Vec<Type> = shapes.iter().map(Shape::build).collect();
    let backward: Vec<Type> = shapes.iter().rev().map(Shape::build).collect();
    for ((s, &a), &b) in shapes.iter().zip(&forward).zip(backward.iter().rev()) {
        assert_eq!(a, b, "{}", s.text());
        assert_eq!(a.to_string().replace("%s", "%S"), s.text());
        assert_eq!(
            hash_with(FxHasher::default(), &a),
            hash_with(FxHasher::default(), s),
            "{}",
            s.text()
        );
        assert_eq!(
            hash_with(DefaultHasher::new(), &a),
            hash_with(DefaultHasher::new(), s)
        );
    }
    // Distinct structures get distinct handles.
    for (i, s) in shapes.iter().enumerate() {
        for (j, t) in shapes.iter().enumerate().skip(i + 1) {
            assert_eq!(forward[i] == forward[j], s.text() == t.text(), "{i} {j}");
        }
    }
}

#[test]
fn equal_types_get_equal_handles_on_two_threads() {
    let build = |seed: u64, reverse: bool| {
        move || {
            let mut rng = Rng::new(seed);
            let mut shapes: Vec<Shape> = (0..200).map(|_| shape(&mut rng, 5, 4)).collect();
            if reverse {
                shapes.reverse();
            }
            let mut out: Vec<(String, Type)> =
                shapes.iter().map(|s| (s.text(), s.build())).collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
    };
    let a = std::thread::spawn(build(23, false));
    let b = std::thread::spawn(build(23, true));
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert_eq!(a, b);
}

#[test]
fn nested_types_print_as_before() {
    let s = Type::struct_of(StructId(3));
    let cases = [
        (
            Type::ptr_to(Type::ptr_to(s)),
            "ptr ptr %s3",
            "Ptr(Ptr(Struct(StructId(3))))",
        ),
        (
            Type::array_of(Type::array_of(Type::ptr_to(Type::I8), 2), 4),
            "[4 x [2 x ptr i8]]",
            "Array(Array(Ptr(I8), 2), 4)",
        ),
        (Type::ptr_to(s), "ptr %s3", "Ptr(Struct(StructId(3)))"),
        (
            Type::ptr_to(Type::array_of(Type::I64, 3)),
            "ptr [3 x i64]",
            "Ptr(Array(I64, 3))",
        ),
        (s, "%s3", "Struct(StructId(3))"),
        (Type::I32, "i32", "I32"),
        (Type::Void, "void", "Void"),
    ];
    for (t, display, debug) in cases {
        assert_eq!(t.to_string(), display);
        assert_eq!(format!("{t:?}"), debug);
    }
    assert_eq!(
        format!("{:#?}", Type::ptr_to(Type::array_of(Type::I64, 3))),
        "Ptr(\n    Array(\n        I64,\n        3,\n    ),\n)"
    );
    assert_eq!(
        format!("{:#?}", Type::ptr_to(s)),
        "Ptr(\n    Struct(\n        StructId(\n            3,\n        ),\n    ),\n)"
    );
}

#[test]
fn scalar_constants_work_in_patterns() {
    let width = |t: Type| match t {
        Type::I8 => 8,
        Type::I32 => 32,
        _ => 0,
    };
    assert_eq!(width(Type::I8), 8);
    assert_eq!(width(Type::I32), 32);
    assert_eq!(width(Type::ptr_to(Type::I8)), 0);
    assert_eq!(Type::ptr_to(Type::I8).kind(), TypeKind::Ptr(Type::I8));
}

/// Function parameters take any type without sizing it, so array
/// lengths up to `u32::MAX` are safe to parse there.
#[test]
fn every_parsed_type_prints_back_to_its_text() {
    let mut rng = Rng::new(5);
    for case in 0..200 {
        let params: Vec<String> = (0..1 + rng.gen_usize(4))
            .map(|i| format!("%p{i}: {}", shape(&mut rng, 5, 3).text()))
            .collect();
        let text = format!(
            "module \"types\"\nstruct %S0 {{ i64 }}\nstruct %S1 {{ ptr %S2 }}\n\
             struct %S2 {{ i32, ptr %S1 }}\nfn @f({}) : {} {{\nbb0:\n  unreachable\n}}\n",
            params.join(", "),
            shape(&mut rng, 5, 3).text(),
        );
        let m = parse_module(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(print_module(&m), text, "case {case}");
    }
}

#[test]
fn array_lengths_past_u32_are_a_named_error() {
    let text =
        |len: u64| format!("module \"t\"\nfn @f(%p: [{len} x i8]) : void {{\nbb0:\n  ret\n}}\n");
    let e = parse_module(&text(1 << 32)).expect_err("length does not fit u32");
    assert!(
        e.to_string()
            .contains("array length 4294967296 out of range"),
        "{e}"
    );
    assert!(parse_module(&text(u32::MAX.into())).is_ok());
}
