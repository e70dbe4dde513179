//! Pins what the frontend produces against `tests/lower_pin.txt`: one
//! digest of the printed MIR for each of the five Table 3 profiles at
//! 1:1000 and 1:100 (seeds 1 and 7) and for each `examples/*.c`, and the
//! exact error text for malformed inputs, one per error site of the
//! parser and of lowering.
//!
//! A change to the AST, the parser or lowering must leave every line
//! byte-identical. On a mismatch the test writes what it got to
//! `target/tmp/lower_pin.txt`; copy that file over the golden one only
//! when a change of output is intended.

use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::path::Path;

/// 64-bit FNV-1a over the bytes, printed as 16 hex digits.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// `compile`, then the printed module's digest and size, or the error.
fn outcome(src: &str, name: &str) -> String {
    match atomig_frontc::compile(src, name) {
        Ok(m) => {
            let text = atomig_mir::printer::print_module(&m);
            format!("mir {} ({} bytes)", digest(&text), text.len())
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Malformed inputs, one per error site, as `(label, source)`.
const MALFORMED: &[(&str, &str)] = &[
    (
        "duplicate struct",
        "struct S { int a; };\nstruct S { int b; };\n",
    ),
    ("duplicate global", "int g;\nlong g;\n"),
    ("duplicate function", "void f() {}\nvoid f() {}\n"),
    ("unknown struct in a global", "struct Missing *p;\n"),
    (
        "unknown struct in a local",
        "void f() { struct Missing s; }\n",
    ),
    (
        "unknown struct in sizeof",
        "long f() { return sizeof(struct Nope); }\n",
    ),
    (
        "unknown field",
        "struct S { int a; };\nstruct S s;\nint f() { return s.b; }\n",
    ),
    ("unknown variable", "int f() { return nope; }\n"),
    ("unknown function", "void f() { missing(1); }\n"),
    (
        "user function arity",
        "int g(int a, int b) { return a; }\nint f() { return g(1); }\n",
    ),
    ("builtin arity", "int x;\nvoid f() { cmpxchg(&x, 0); }\n"),
    ("fence arity", "void f() { fence(1); }\n"),
    ("missing return value", "int f() { return; }\n"),
    ("break outside a loop", "void f() { break; }\n"),
    ("continue outside a loop", "void f() { continue; }\n"),
    (
        "unsupported asm",
        "void f() { asm(\"movl %eax, %ebx\"); }\n",
    ),
    (
        "unknown memory order",
        "int x;\nvoid f() { atomic_store_explicit(&x, 1, sloppy); }\n",
    ),
    (
        "memory order not a keyword",
        "int x;\nvoid f() { fence_explicit(1 + 2); }\n",
    ),
    ("not an lvalue", "void f() { 1 = 2; }\n"),
    (
        "not an lvalue, call",
        "int g(int a, int b) { return 0; }\nvoid f() { g(1, 2) = 2; }\n",
    ),
    (
        "not an lvalue, ternary",
        "int x;\nvoid f() { (x ? 1 : 2) = 3; }\n",
    ),
    (
        "dereference of a non-pointer",
        "int x;\nint f() { return *x; }\n",
    ),
    (
        "index into a struct",
        "struct S { int a; };\nstruct S s;\nint f() { return s[0]; }\n",
    ),
    ("index into a scalar", "int x;\nint f() { return x[0]; }\n"),
    (
        "arrow on a pointer to a scalar",
        "int *p;\nint f() { return p->a; }\n",
    ),
    (
        "arrow on a pointer to a pointer",
        "int **p;\nint f() { return p->a; }\n",
    ),
    (
        "arrow on a non-pointer",
        "int x;\nint f() { return x->a; }\n",
    ),
    ("dot on a non-struct", "int x;\nint f() { return x.a; }\n"),
    (
        "dot on an array",
        "long a[2][3];\nint f() { return a.x; }\n",
    ),
    (
        "address of a computed scalar",
        "int x;\nint f() { return (x + 1)[0]; }\n",
    ),
    (
        "load of a whole struct",
        "struct S { int a; };\nstruct S s;\nint f() { return s; }\n",
    ),
    ("store to an array", "int a[4];\nvoid f() { a = 1; }\n"),
    (
        "pointer argument expected",
        "int x;\nvoid f() { cmpxchg(x, 0, 1); }\n",
    ),
    (
        "cast to a struct",
        "struct S { int a; };\nlong f() { return (struct S)1; }\n",
    ),
    ("parse: expected punctuator", "int f() {\n  return 1\n}\n"),
    ("parse: expected identifier", "int f() {\n  int 3;\n}\n"),
    ("parse: expected a type", "int f(x) { return 0; }\n"),
    ("parse: expected integer literal", "int a[n];\n"),
    (
        "parse: do without while",
        "void f() {\n  do { } until (1);\n}\n",
    ),
    (
        "parse: asm without a string",
        "void f() {\n\n  asm(1);\n}\n",
    ),
    (
        "parse: unterminated asm",
        "void f() { asm(\"pause\" ::: \"memory\"\n",
    ),
    ("parse: expected expression", "int f() {\n  return ;;\n}\n"),
    ("parse: unexpected end of input", "int f() {\n  return 1;\n"),
    ("lex: unexpected character", "int f() {\n  return @;\n}\n"),
];

fn examples() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("example readable"))
        })
        .collect()
}

fn pinned_lines() -> String {
    let mut got = String::new();
    for scale in [1000, 100] {
        for seed in [1, 7] {
            for p in profiles::all() {
                let app = synth::generate(GenConfig {
                    seed,
                    ..GenConfig::from_profile(&p, scale)
                });
                let line = outcome(&app.source, p.name);
                got.push_str(&format!(
                    "profile {} 1:{scale} seed {seed}: {line}\n",
                    p.name
                ));
            }
        }
    }
    for (name, src) in examples() {
        got.push_str(&format!("example {name}.c: {}\n", outcome(&src, &name)));
    }
    for (label, src) in MALFORMED {
        got.push_str(&format!("malformed {label}: {}\n", outcome(src, "bad")));
    }
    got
}

#[test]
fn printed_mir_and_errors_match_the_pinned_lines() {
    let got = pinned_lines();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lower_pin.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lower_pin.txt");
        std::fs::write(&out, &got).expect("write actual lines");
        let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
        let at = (0..g.len().max(w.len()))
            .find(|&i| g.get(i) != w.get(i))
            .unwrap_or(0);
        panic!(
            "frontend output differs from {} (actual written to {}); first at line {}: want {:?}, got {:?}",
            golden.display(),
            out.display(),
            at + 1,
            w.get(at),
            g.get(at)
        );
    }
}
