//! Regenerates Table 5: performance impact of Naïve vs AtoMig porting,
//! normalized to each benchmark's original.
//!
//! Baselines follow the paper: the five large applications and lf-hash
//! normalize against their plain (inlined) builds; the ck benchmarks
//! normalize against *expert Arm ports* (explicit fences) — which is why
//! AtoMig's implicit-barrier output lands **below 1.0** there; CLHT has
//! no WMM-correct version, so its baseline is the (incorrect) plain
//! recompile.

#![forbid(unsafe_code)]

use atomig_bench::{factor, render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_wmm::CostModel;
use atomig_workloads::{
    apps, ck, clht, compile_atomig, compile_baseline, compile_naive, lf_hash, run_cost,
};

/// One benchmark row: the baseline source (and how to build it), the TSO
/// source both ports start from, and the paper's reference factors.
struct RowSpec {
    label: &'static str,
    key: &'static str,
    baseline_src: String,
    /// ck rows: the baseline is an expert Arm port compiled verbatim
    /// (inlined, no transformation) rather than `compile_baseline`.
    expert_baseline: bool,
    tso_src: String,
    paper: String,
}

impl RowSpec {
    fn plain(
        label: &'static str,
        key: &'static str,
        src: String,
        p_naive: f64,
        p_atomig: f64,
    ) -> RowSpec {
        RowSpec {
            label,
            key,
            baseline_src: src.clone(),
            expert_baseline: false,
            tso_src: src,
            paper: format!("{p_naive:.2} / {p_atomig:.2}"),
        }
    }

    fn expert(
        name: &'static str,
        expert_src: String,
        tso_src: String,
        p_naive: f64,
        p_atomig: f64,
    ) -> RowSpec {
        RowSpec {
            label: name,
            key: name,
            baseline_src: expert_src,
            expert_baseline: true,
            tso_src,
            paper: format!("{p_naive:.2} / {p_atomig:.2}"),
        }
    }
}

fn row_of(spec: &RowSpec) -> Vec<String> {
    let base_module = if spec.expert_baseline {
        let mut m =
            atomig_frontc::compile(&spec.baseline_src, spec.key).expect("expert source compiles");
        atomig_analysis::inline_module(&mut m, &Default::default());
        m
    } else {
        compile_baseline(&spec.baseline_src, spec.key)
    };
    let (_, base) = run_cost(&base_module, spec.key);
    let (_, naive) = run_cost(&compile_naive(&spec.tso_src, spec.key).0, spec.key);
    let (_, atomig) = run_cost(&compile_atomig(&spec.tso_src, spec.key).0, spec.key);
    vec![
        spec.label.to_string(),
        factor(naive as f64 / base as f64),
        factor(atomig as f64 / base as f64),
        spec.paper.clone(),
    ]
}

fn main() {
    let cm = CostModel::ARMV8;
    let _ = cm;

    let specs: Vec<RowSpec> = vec![
        // --- Large applications: baseline = plain build.
        RowSpec::plain(
            "MariaDB",
            "mariadb",
            apps::app_perf("mariadb", 60),
            1.27,
            1.01,
        ),
        RowSpec::plain(
            "PostgreSQL",
            "postgresql",
            apps::app_perf("postgresql", 60),
            1.35,
            1.04,
        ),
        RowSpec::plain(
            "LevelDB",
            "leveldb",
            apps::app_perf("leveldb", 60),
            1.66,
            1.01,
        ),
        RowSpec::plain(
            "Memcached",
            "memcached",
            apps::app_perf("memcached", 60),
            1.01,
            1.00,
        ),
        RowSpec::plain("SQLite", "sqlite", apps::app_perf("sqlite", 60), 2.49, 1.03),
        // --- ck benchmarks: baseline = expert Arm port (explicit fences).
        RowSpec::expert(
            "ck_ring",
            ck::ring_expert_perf(300),
            ck::ring_perf(300),
            4.43,
            0.85,
        ),
        RowSpec::expert(
            "ck_sequence",
            ck::sequence_expert_perf(200),
            ck::sequence_perf(200),
            5.35,
            0.91,
        ),
        RowSpec::expert(
            "ck_spinlock_cas",
            ck::spinlock_cas_expert_perf(2, 200),
            ck::spinlock_cas_perf(2, 200),
            3.75,
            0.63,
        ),
        RowSpec::expert(
            "ck_spinlock_mcs",
            ck::spinlock_mcs_expert_perf(2, 100),
            ck::spinlock_mcs_perf(2, 100),
            5.29,
            0.64,
        ),
        // --- lf-hash: baseline = plain build.
        RowSpec::plain(
            "lf-hash",
            "lf-hash",
            lf_hash::lf_hash_perf(8, 60),
            3.05,
            1.01,
        ),
        // --- CLHT: baseline = unported recompile (no WMM corrections).
        RowSpec::plain("clht_lb", "clht_lb", clht::clht_lb_perf(2, 150), 1.89, 1.10),
        RowSpec::plain("clht_lf", "clht_lf", clht::clht_lf_perf(2, 150), 2.01, 1.40),
    ];

    let rows: Vec<Vec<String>> = specs.iter().map(row_of).collect();

    print!(
        "{}",
        render_table(
            "Table 5: performance impact, Naive and AtoMig vs originals (Armv8 cost model)",
            &["Benchmark", "Naive", "AtoMig", "paper (Naive/AtoMig)"],
            &rows,
        )
    );
    println!(
        "(ck baselines are expert Arm ports with explicit fences; \
         CLHT baselines have no WMM corrections, as in the paper)"
    );
    let mut rec = BenchRecorder::new("table5");
    let records: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::obj(vec![
                ("benchmark", r[0].as_str().into()),
                ("naive", r[1].parse::<f64>().unwrap_or(0.0).into()),
                ("atomig", r[2].parse::<f64>().unwrap_or(0.0).into()),
            ])
        })
        .collect();
    rec.put("slowdowns", Value::Arr(records));
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}
