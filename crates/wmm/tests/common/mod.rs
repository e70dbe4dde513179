//! Seeded two-thread litmus programs shared by the checker's integration
//! tests.

use atomig_testutil::Rng;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
struct Op {
    is_store: bool,
    var: u8,    // 0 = @x, 1 = @y
    ord: u8,    // 0 plain, 1 rel/acq, 2 seq_cst
    value: i64, // stored value (1..3)
}

fn ord_str(o: u8, is_store: bool) -> &'static str {
    match (o, is_store) {
        (1, true) => " rel",
        (1, false) => " acq",
        (2, _) => " seq_cst",
        _ => "",
    }
}

/// Renders a thread body; loads accumulate into a per-thread result
/// global so the assertion can observe them.
fn render_thread(name: &str, ops: &[Op], result_global: &str) -> String {
    let mut body = String::new();
    let mut loads = 0;
    let mut acc: Vec<String> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let var = if op.var == 0 { "@x" } else { "@y" };
        if op.is_store {
            let _ = writeln!(
                body,
                "  store i32 {}, {var}{}",
                op.value,
                ord_str(op.ord, true)
            );
        } else {
            let _ = writeln!(body, "  %l{i} = load i32, {var}{}", ord_str(op.ord, false));
            acc.push(format!("%l{i}"));
            loads += 1;
        }
    }
    // result = sum of loads * 10^k (base-10 packing, values < 10).
    if loads > 0 {
        let mut expr_prev = acc[0].clone();
        for (k, l) in acc.iter().enumerate().skip(1) {
            let _ = writeln!(body, "  %m{k} = mul {expr_prev}, 10");
            let _ = writeln!(body, "  %s{k} = add %m{k}, {l}");
            expr_prev = format!("%s{k}");
        }
        let _ = writeln!(body, "  store i32 {expr_prev}, {result_global}");
    }
    format!("fn @{name}(%a: i64) : void {{\nbb0:\n{body}  ret\n}}\n")
}

fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    let len = 1 + rng.gen_usize(3);
    (0..len)
        .map(|_| Op {
            is_store: rng.gen_ratio(1, 2),
            var: rng.gen_usize(2) as u8,
            ord: rng.gen_usize(3) as u8,
            value: rng.gen_range(1..4),
        })
        .collect()
}

/// The next generated program: two threads of one to three random
/// accesses to `@x`/`@y`, and a `main` that spawns and joins both and
/// asserts that their packed observations stay under a random limit.
/// The limit is arbitrary, so some programs violate it even under SC.
pub fn two_thread_program(rng: &mut Rng) -> String {
    let t1 = gen_ops(rng);
    let t2 = gen_ops(rng);
    let limit = rng.gen_range(0..40);
    let mut src = String::from(
        "global @x: i32 = 0\nglobal @y: i32 = 0\nglobal @r1: i32 = 0\nglobal @r2: i32 = 0\n",
    );
    src.push_str(&render_thread("w1", &t1, "@r1"));
    src.push_str(&render_thread("w2", &t2, "@r2"));
    src.push_str(&format!(
        r#"
fn @main() : void {{
bb0:
  %a = call i64 @spawn(@w1, 0)
  %b = call i64 @spawn(@w2, 0)
  call void @join(%a)
  call void @join(%b)
  %v1 = load i32, @r1
  %v2 = load i32, @r2
  %s = add %v1, %v2
  %c = cmp le %s, {limit}
  %ci = cast %c to i64
  call void @assert(%ci)
  ret
}}
"#
    ));
    src
}
