//! MiniC frontend and MIR printer throughput, layer by layer (the
//! "initial compilation" column of the Table 3 build-time story, and the
//! emit step of the AtoMig build). Self-timed:
//! `cargo bench -p atomig-bench --bench frontend`.
//!
//! Each iteration runs lex → parse → lower → verify → print on the same
//! generated program and times every layer on its own; a line per layer
//! reports the mean time per iteration and the layer's throughput.

#![forbid(unsafe_code)]

use atomig_workloads::synth::{generate, GenConfig};
use std::time::{Duration, Instant};

/// Runs `f` and adds its wall time to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *total += t0.elapsed();
    out
}

fn main() {
    let app = generate(GenConfig {
        mp_waiters: 8,
        tas_locks: 4,
        seqlocks: 2,
        atomics: 8,
        volatiles: 4,
        asm_fences: 2,
        decoys: 8,
        plain_funcs: 120,
        seed: 3,
    });
    let source_mb = app.source.len() as f64 / 1e6;

    let iters = 20;
    let mut layers = [Duration::ZERO; 5];
    let (mut tokens, mut insts, mut printed) = (0, 0, 0);
    for _ in 0..iters {
        let [lex, parse, lower, verify, print] = &mut layers;
        let toks = timed(lex, || atomig_frontc::lex(&app.source)).expect("lexes");
        tokens = toks.len();
        let program = timed(parse, || atomig_frontc::parse(&toks)).expect("parses");
        drop(toks);
        let module = timed(lower, || atomig_frontc::lower(&program, "synth")).expect("lowers");
        drop(program);
        timed(verify, || atomig_mir::verify_module(&module)).expect("verifies");
        insts = module.inst_count();
        let text = timed(print, || atomig_mir::printer::print_module(&module));
        printed = text.len();
    }

    let per = |d: Duration| d.as_secs_f64() / f64::from(iters);
    let [lex, parse, lower, verify, print] = layers.map(per);
    let line = |name: &str, secs: f64, rate: f64, unit: &str| {
        println!(
            "frontend/{name:<8} {:>10.3} ms/iter   {rate:>8.1} {unit}",
            secs * 1e3
        );
    };
    line("lex", lex, source_mb / lex, "MB/s of source");
    line("parse", parse, tokens as f64 / parse / 1e6, "M tokens/s");
    line("lower", lower, insts as f64 / lower / 1e6, "M insts/s");
    line("verify", verify, insts as f64 / verify / 1e6, "M insts/s");
    line(
        "print",
        print,
        printed as f64 / print / 1e6,
        "MB/s of MIR text",
    );
    let all = lex + parse + lower + verify + print;
    line("total", all, source_mb / all, "MB/s of source");
}
