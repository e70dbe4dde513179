//! Textual printing of modules (the inverse of [`crate::parser`]).
//!
//! Every writer below pushes `&'static str` keywords, names and decimal
//! numbers into one `Sink`, so no instruction, operand or type is
//! formatted into a `String` of its own. [`print_module`] runs the
//! writers twice: first into a counter that adds up the lengths (digits
//! are counted with `ilog10`, never formatted), then into a byte vector
//! allocated at exactly that length, which becomes the output `String`
//! after one UTF-8 check. The printed module is the largest allocation
//! of a port, so it is never grown by doubling, which would hold the old
//! and the new buffer at once.

use crate::func::Function;
use crate::inst::{Callee, GepIndex, InstKind, Ordering, Terminator};
use crate::module::Module;
use crate::types::{Type, TypeKind};
use crate::value::Value;

/// Where the writers put text: the output bytes, or a [`Len`] that only
/// counts them. Every write is a whole `str` or one ASCII byte, so the
/// output is always UTF-8.
trait Sink {
    fn push_str(&mut self, s: &str);
    /// Appends one ASCII byte.
    fn push(&mut self, c: u8);
    /// Appends the decimal form of `v`.
    fn push_uint(&mut self, v: u64);
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per entry.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

impl Sink for Vec<u8> {
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn push(&mut self, c: u8) {
        Vec::push(self, c);
    }

    fn push_uint(&mut self, mut v: u64) {
        if v < 10 {
            Vec::push(self, b'0' + v as u8);
            return;
        }
        // Two digits at a time, from the right.
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while v >= 100 {
            let d = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        }
        if v >= 10 {
            let d = v as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + v as u8;
        }
        self.extend_from_slice(&buf[i..]);
    }
}

/// The number of bytes the writers would push.
#[derive(Default)]
struct Len(usize);

impl Sink for Len {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn push(&mut self, _: u8) {
        self.0 += 1;
    }

    fn push_uint(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

/// Prints a whole module in the textual format accepted by
/// [`parse_module`](crate::parse_module). The result has no spare
/// capacity.
pub fn print_module(m: &Module) -> String {
    let mut len = Len::default();
    write_module(&mut len, m);
    let mut out = Vec::with_capacity(len.0);
    write_module(&mut out, m);
    debug_assert_eq!(out.len(), len.0, "length pass disagrees with the text");
    // The sink only ever receives whole `str`s and ASCII bytes, so the
    // check passes and the lossy branch is never taken.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn write_module(out: &mut impl Sink, m: &Module) {
    out.push_str("module \"");
    out.push_str(&m.name);
    out.push_str("\"\n");
    for s in &m.structs {
        out.push_str("struct %");
        out.push_str(&s.name);
        out.push_str(" { ");
        for (i, t) in s.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_type(out, m, *t);
        }
        out.push_str(" }\n");
    }
    for g in &m.globals {
        out.push_str("global @");
        out.push_str(&g.name);
        out.push_str(": ");
        write_type(out, m, g.ty);
        out.push_str(" = ");
        if g.init.iter().all(|&v| v == 0) {
            out.push(b'0');
        } else if let [v] = g.init[..] {
            write_int(out, v);
        } else {
            out.push(b'[');
            for (i, &v) in g.init.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_int(out, v);
            }
            out.push(b']');
        }
        out.push(b'\n');
    }
    for f in &m.funcs {
        write_function(out, m, f);
    }
}

/// Appends the decimal form of `v`.
fn write_int(out: &mut impl Sink, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    out.push_uint(v.unsigned_abs());
}

/// Appends `prefix` and then the decimal `n`, as in `%t7` or `bb3`.
fn write_id(out: &mut impl Sink, prefix: &str, n: u32) {
    out.push_str(prefix);
    out.push_uint(u64::from(n));
}

/// Appends `%tN = `, the definition of instruction `N`'s result.
fn write_def(out: &mut impl Sink, id: u32) {
    write_id(out, "%t", id);
    out.push_str(" = ");
}

fn write_function(out: &mut impl Sink, m: &Module, f: &Function) {
    out.push_str("fn @");
    out.push_str(&f.name);
    out.push(b'(');
    for (i, (n, t)) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push(b'%');
        out.push_str(n);
        out.push_str(": ");
        write_type(out, m, *t);
    }
    out.push_str(") : ");
    write_type(out, m, f.ret);
    out.push_str(" {\n");
    for (i, b) in f.blocks.iter().enumerate() {
        write_id(out, "bb", i as u32);
        out.push_str(":\n");
        for inst in &b.insts {
            out.push_str("  ");
            write_inst(out, m, f, &inst.kind, inst.id.0);
            if inst.span != 0 {
                write_id(out, " !", inst.span);
            }
            out.push(b'\n');
        }
        out.push_str("  ");
        write_term(out, m, f, &b.term);
        out.push(b'\n');
    }
    out.push_str("}\n");
}

/// Appends a type, naming structs.
fn write_type(out: &mut impl Sink, m: &Module, t: Type) {
    match t.kind() {
        TypeKind::Void => out.push_str("void"),
        TypeKind::I1 => out.push_str("i1"),
        TypeKind::I8 => out.push_str("i8"),
        TypeKind::I16 => out.push_str("i16"),
        TypeKind::I32 => out.push_str("i32"),
        TypeKind::I64 => out.push_str("i64"),
        TypeKind::Struct(sid) => match m.structs.get(sid.0 as usize) {
            Some(s) => {
                out.push(b'%');
                out.push_str(&s.name);
            }
            None => write_id(out, "%s", sid.0),
        },
        TypeKind::Ptr(p) => {
            out.push_str("ptr ");
            write_type(out, m, p);
        }
        TypeKind::Array(e, n) => {
            write_id(out, "[", n);
            out.push_str(" x ");
            write_type(out, m, e);
            out.push(b']');
        }
    }
}

/// Appends a value, naming params, globals and functions.
fn write_value(out: &mut impl Sink, m: &Module, f: &Function, v: Value) {
    match v {
        Value::Const(c) => write_int(out, c),
        Value::Null => out.push_str("null"),
        Value::Global(g) => match m.globals.get(g.0 as usize) {
            Some(def) => {
                out.push(b'@');
                out.push_str(&def.name);
            }
            None => write_id(out, "@g", g.0),
        },
        Value::Param(i) => match f.params.get(i as usize) {
            Some((n, _)) => {
                out.push(b'%');
                out.push_str(n);
            }
            None => write_id(out, "%arg", i),
        },
        Value::Inst(id) => write_id(out, "%t", id.0),
        Value::Func(fid) => {
            out.push(b'@');
            write_func_name(out, m, fid.0);
        }
    }
}

/// Appends a function's name, or `fN` when `N` names no function.
fn write_func_name(out: &mut impl Sink, m: &Module, fid: u32) {
    match m.funcs.get(fid as usize) {
        Some(def) => out.push_str(&def.name),
        None => write_id(out, "f", fid),
    }
}

/// Appends the comma-separated `values`.
fn write_values(out: &mut impl Sink, m: &Module, f: &Function, values: &[Value]) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_value(out, m, f, v);
    }
}

/// Appends ` <ordering>` for an atomic access, nothing for a plain one.
fn write_ord(out: &mut impl Sink, ord: Ordering) {
    if ord != Ordering::NotAtomic {
        out.push(b' ');
        out.push_str(ord.keyword());
    }
}

fn write_vol(out: &mut impl Sink, volatile: bool) {
    if volatile {
        out.push_str(" volatile");
    }
}

fn write_inst(out: &mut impl Sink, m: &Module, f: &Function, kind: &InstKind, id: u32) {
    if kind.produces_value() {
        write_def(out, id);
    }
    match kind {
        InstKind::Alloca { ty } => {
            out.push_str("alloca ");
            write_type(out, m, *ty);
        }
        InstKind::Load {
            ptr,
            ty,
            ord,
            volatile,
        } => {
            out.push_str("load ");
            write_type(out, m, *ty);
            out.push_str(", ");
            write_value(out, m, f, *ptr);
            write_ord(out, *ord);
            write_vol(out, *volatile);
        }
        InstKind::Store {
            ptr,
            val,
            ty,
            ord,
            volatile,
        } => {
            out.push_str("store ");
            write_type(out, m, *ty);
            out.push(b' ');
            write_value(out, m, f, *val);
            out.push_str(", ");
            write_value(out, m, f, *ptr);
            write_ord(out, *ord);
            write_vol(out, *volatile);
        }
        InstKind::Cmpxchg(c) => {
            out.push_str("cmpxchg ");
            write_type(out, m, c.ty);
            out.push(b' ');
            write_values(out, m, f, &[c.ptr, c.expected, c.new]);
            write_ord(out, c.ord);
        }
        InstKind::Rmw {
            op,
            ptr,
            val,
            ty,
            ord,
        } => {
            out.push_str("rmw ");
            out.push_str(op.mnemonic());
            out.push(b' ');
            write_type(out, m, *ty);
            out.push(b' ');
            write_values(out, m, f, &[*ptr, *val]);
            write_ord(out, *ord);
        }
        InstKind::Fence { ord } => {
            out.push_str("fence ");
            out.push_str(ord.keyword());
        }
        InstKind::Gep {
            base,
            base_ty,
            indices,
        } => {
            out.push_str("gep ");
            write_type(out, m, *base_ty);
            out.push_str(", ");
            write_value(out, m, f, *base);
            out.push_str(", ");
            for (k, i) in indices.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                match i {
                    GepIndex::Const(c) => write_int(out, *c),
                    GepIndex::Dyn(val) => write_value(out, m, f, *val),
                }
            }
        }
        InstKind::Bin { op, lhs, rhs } => {
            out.push_str(op.mnemonic());
            out.push(b' ');
            write_values(out, m, f, &[*lhs, *rhs]);
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            out.push_str("cmp ");
            out.push_str(pred.mnemonic());
            out.push(b' ');
            write_values(out, m, f, &[*lhs, *rhs]);
        }
        InstKind::Cast { value, to } => {
            out.push_str("cast ");
            write_value(out, m, f, *value);
            out.push_str(" to ");
            write_type(out, m, *to);
        }
        InstKind::Call {
            callee,
            args,
            ret_ty,
        } => {
            out.push_str("call ");
            write_type(out, m, *ret_ty);
            out.push_str(" @");
            match callee {
                Callee::Func(fid) => write_func_name(out, m, fid.0),
                Callee::Builtin(b) => out.push_str(b.name()),
            }
            out.push(b'(');
            write_values(out, m, f, args);
            out.push(b')');
        }
    }
}

fn write_term(out: &mut impl Sink, m: &Module, f: &Function, t: &Terminator) {
    match t {
        Terminator::Br(b) => write_id(out, "br bb", b.0),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            out.push_str("condbr ");
            write_value(out, m, f, *cond);
            write_id(out, ", bb", then_bb.0);
            write_id(out, ", bb", else_bb.0);
        }
        Terminator::Ret(None) => out.push_str("ret"),
        Terminator::Ret(Some(v)) => {
            out.push_str("ret ");
            write_value(out, m, f, *v);
        }
        Terminator::Unreachable => out.push_str("unreachable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::GlobalDef;

    #[test]
    fn prints_simple_module() {
        let mut m = Module::new("mp");
        let flag = m.add_global(GlobalDef {
            name: "flag".into(),
            ty: Type::I32,
            init: vec![0],
        });
        let mut b = FunctionBuilder::new("writer", vec![], Type::Void);
        b.store_ord(
            Type::I32,
            Value::Global(flag),
            Value::Const(1),
            Ordering::SeqCst,
            false,
        );
        b.ret(None);
        m.add_func(b.finish());
        let text = print_module(&m);
        assert!(text.contains("module \"mp\""));
        assert!(text.contains("global @flag: i32 = 0"));
        assert!(text.contains("store i32 1, @flag seq_cst"));
        assert!(text.contains("fn @writer() : void {"));
    }

    /// The length pass must count exactly what the text pass writes; a
    /// release build does not check it, so this does.
    #[test]
    fn length_pass_matches_the_text() {
        // Every value up to 1000, both sides of each power of ten, and
        // the extremes, unsigned and signed.
        let powers = (1..=19).flat_map(|k| [10u64.pow(k) - 1, 10u64.pow(k)]);
        let edges = (0..=1000)
            .chain(powers)
            .chain([u64::from(u32::MAX), u64::MAX]);
        for v in edges {
            let (mut len, mut out) = (Len::default(), Vec::new());
            len.push_uint(v);
            out.push_uint(v);
            assert_eq!(
                (len.0, out.as_slice()),
                (out.len(), v.to_string().as_bytes())
            );
        }
        for v in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            let (mut len, mut out) = (Len::default(), Vec::new());
            write_int(&mut len, v);
            write_int(&mut out, v);
            assert_eq!(
                (len.0, out.as_slice()),
                (out.len(), v.to_string().as_bytes())
            );
        }

        let mut m = Module::new("edges");
        let pair = m.add_struct(crate::module::StructDef {
            name: "pair".into(),
            fields: vec![Type::I64, Type::ptr_to(Type::ptr_to(Type::I8))],
        });
        let pair_ty = Type::struct_of(pair);
        let ints = [0, 9, 10, 99, 100, i64::from(u32::MAX), i64::MIN, i64::MAX];
        let g = m.add_global(GlobalDef {
            name: "table".into(),
            ty: Type::array_of(Type::I64, ints.len() as u32),
            init: ints.to_vec(),
        });
        let params = vec![("p".to_string(), Type::ptr_to(pair_ty))];
        let mut b = FunctionBuilder::new("f", params, Type::ptr_to(Type::ptr_to(pair_ty)));
        for (line, &c) in ints.iter().enumerate() {
            b.set_line([0, 1, 9, 10, 99, 100, u32::MAX, 12345][line]);
            b.store(Type::I64, Value::Global(g), Value::Const(c));
        }
        b.set_line(0);
        let neg = [GepIndex::Const(-1), GepIndex::Const(i64::MIN)];
        let field = b.gep(pair_ty, Value::Param(0), neg.to_vec());
        b.cmpxchg(
            Type::I64,
            field,
            Value::Const(-10),
            Value::Null,
            Ordering::SeqCst,
        );
        let slot = b.alloca(Type::ptr_to(Type::ptr_to(pair_ty)));
        let v = b.load(Type::I64, slot);
        b.ret(Some(v));
        m.add_func(b.finish());

        let text = print_module(&m);
        for needle in [
            "struct %pair { i64, ptr ptr i8 }",
            "= [0, 9, 10, 99, 100, 4294967295, -9223372036854775808, 9223372036854775807]",
            ", -1, -9223372036854775808",
            "cmpxchg i64 %t8, -10, null seq_cst",
            "alloca ptr ptr %pair",
            " !4294967295\n",
        ] {
            assert!(text.contains(needle), "{needle} missing from\n{text}");
        }
        let mut len = Len::default();
        write_module(&mut len, &m);
        assert_eq!(len.0, text.len());
        assert_eq!(text.capacity(), text.len());
    }

    #[test]
    fn prints_volatile_and_fence() {
        let mut m = Module::new("v");
        let g = m.add_global(GlobalDef {
            name: "x".into(),
            ty: Type::I64,
            init: vec![7],
        });
        let mut b = FunctionBuilder::new("r", vec![], Type::I64);
        let v = b.load_ord(Type::I64, Value::Global(g), Ordering::NotAtomic, true);
        b.fence(Ordering::SeqCst);
        b.ret(Some(v));
        m.add_func(b.finish());
        let text = print_module(&m);
        assert!(text.contains("load i64, @x volatile"));
        assert!(text.contains("fence seq_cst"));
        assert!(text.contains("global @x: i64 = 7"));
    }
}
