//! Regenerates Table 4: dynamically executed barriers on Memcached.
//!
//! Runs the memtier-style workload on the Memcached kernel, original and
//! AtoMig-ported, and reports the dynamic access counts. Stack (register)
//! traffic is included in the non-atomic rows, as a hardware counter
//! would.

use atomig_bench::{render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_workloads::{apps, compile_atomig, compile_baseline};

fn main() {
    let mut rec = BenchRecorder::new("table4");
    let src = apps::memcached_like(400);

    let ro = atomig_wmm::run_default(&compile_baseline(&src, "memcached"));
    let (ported, port_report) = compile_atomig(&src, "memcached");
    let rp = atomig_wmm::run_default(&ported);
    assert!(ro.ok() && rp.ok(), "{:?} / {:?}", ro.failure, rp.failure);

    let row = |name: &str, orig: u64, atomig: u64| {
        vec![name.to_string(), orig.to_string(), atomig.to_string()]
    };
    let rows = vec![
        row(
            "non-atomic loads",
            ro.stats.plain_loads + ro.stats.stack_ops / 2,
            rp.stats.plain_loads + rp.stats.stack_ops / 2,
        ),
        row(
            "non-atomic stores",
            ro.stats.plain_stores + ro.stats.stack_ops / 2,
            rp.stats.plain_stores + rp.stats.stack_ops / 2,
        ),
        row("atomic loads", ro.stats.atomic_loads, rp.stats.atomic_loads),
        row(
            "atomic stores",
            ro.stats.atomic_stores,
            rp.stats.atomic_stores,
        ),
        row("rmw/cas", ro.stats.rmws, rp.stats.rmws),
        row("explicit fences", ro.stats.fences, rp.stats.fences),
    ];

    print!(
        "{}",
        render_table(
            "Table 4: dynamically executed barriers, Memcached kernel (memtier-style workload)",
            &["Memcached", "Original", "AtoMig"],
            &rows,
        )
    );
    println!(
        "(paper shape: ported run turns a single-digit % of accesses atomic; \
         paper: 19.9M/377M loads, 5.5M/127M stores)"
    );
    rec.phases("port_phases", &port_report.metrics);
    rec.census("census_before", &port_report.before);
    rec.census("census_after", &port_report.after);
    for (label, r) in [("original", &ro), ("atomig", &rp)] {
        rec.put(
            &format!("{label}_dynamic"),
            Value::obj(vec![
                ("plain_loads", r.stats.plain_loads.into()),
                ("plain_stores", r.stats.plain_stores.into()),
                ("atomic_loads", r.stats.atomic_loads.into()),
                ("atomic_stores", r.stats.atomic_stores.into()),
                ("rmws", r.stats.rmws.into()),
                ("fences", r.stats.fences.into()),
            ]),
        );
    }
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}
