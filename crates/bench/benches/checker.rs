//! Model-checker throughput on the litmus suite and the Table 2 clients
//! (the machinery behind §4.1). Self-timed: `cargo bench -p atomig-bench`.

#![forbid(unsafe_code)]

use atomig_core::Stage;
use atomig_wmm::{litmus, Checker, ModelKind};
use atomig_workloads::{ck, compile_stage};
use std::time::Instant;

fn bench<F: FnMut()>(name: &str, iters: u32, mut f: F) {
    f(); // warm-up
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed() / iters;
    println!("{name:<40} {per:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    for lit in litmus::all() {
        let m = lit.module();
        bench(&format!("checker/arm/{}", lit.name), 20, || {
            let _ = Checker::new(ModelKind::Arm).check(&m, "main");
        });
    }
    let (ring, _) = compile_stage(&ck::ring_mc(), "ck_ring", Stage::Full);
    bench("table2/ck_ring/full", 10, || {
        let _ = Checker::new(ModelKind::Arm).check(&ring, "main");
    });
    let (seq, _) = compile_stage(&ck::sequence_mc(), "ck_sequence", Stage::Full);
    bench("table2/ck_sequence/full", 10, || {
        let _ = Checker::new(ModelKind::Arm).check(&seq, "main");
    });
}
