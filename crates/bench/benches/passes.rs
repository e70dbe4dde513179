//! Pass throughput over synthetic modules of increasing size — the
//! scalability curve behind Table 3 (the paper's "within minutes" /
//! "2–3x build time" claim). Self-timed: `cargo bench -p atomig-bench`.

#![forbid(unsafe_code)]

use atomig_core::{AtomigConfig, Pipeline};
use atomig_workloads::synth::{generate, GenConfig};
use std::time::Instant;

fn config_of_size(k: u32) -> GenConfig {
    GenConfig {
        mp_waiters: 2 * k,
        tas_locks: k,
        seqlocks: k / 2 + 1,
        atomics: k,
        volatiles: k / 2 + 1,
        asm_fences: k / 4 + 1,
        decoys: k,
        plain_funcs: 20 * k,
        seed: 7,
    }
}

fn main() {
    for k in [1u32, 4, 16] {
        let app = generate(config_of_size(k));
        let module = atomig_frontc::compile(&app.source, "synth").expect("compiles");
        let iters = 10;
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut cfg = AtomigConfig::full();
            cfg.inline = false;
            let mut cloned = module.clone();
            let _ = Pipeline::new(cfg).port_module(&mut cloned);
        }
        let per = t0.elapsed().as_secs_f64() / iters as f64;
        println!(
            "pipeline/full_port sloc={:<8} {:>10.3} ms/iter   {:>10.0} insts/s",
            app.sloc,
            per * 1e3,
            module.inst_count() as f64 / per
        );
    }

    let app = generate(config_of_size(8));
    let module = atomig_frontc::compile(&app.source, "synth").expect("compiles");
    let iters = 50;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = atomig_core::AliasMap::build(&module, false);
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    println!("alias_map_build              {:>10.3} ms/iter", per * 1e3);
}
