//! Deterministic-interpreter throughput (the machinery behind Tables 4–6).
//! Self-timed: `cargo bench -p atomig-bench`.

#![forbid(unsafe_code)]

use atomig_workloads::{apps, compile_baseline, phoenix};
use std::time::Instant;

fn main() {
    for name in ["memcached", "sqlite"] {
        let module = compile_baseline(&apps::app_perf(name, 40), name);
        let probe = atomig_wmm::run_default(&module);
        assert!(probe.ok());
        let iters = 10;
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = atomig_wmm::run_default(&module);
        }
        let per = t0.elapsed().as_secs_f64() / iters as f64;
        println!(
            "interp/app/{name:<16} {:>10.3} ms/iter   {:>10.0} steps/s",
            per * 1e3,
            probe.steps as f64 / per
        );
    }
    for name in ["histogram", "matrix_multiply"] {
        let module = compile_baseline(&phoenix::kernel(name, 2), name);
        let iters = 10;
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = atomig_wmm::run_default(&module);
        }
        let per = t0.elapsed().as_secs_f64() / iters as f64;
        println!("interp/phoenix/{name:<16} {:>10.3} ms/iter", per * 1e3);
    }
}
