//! Regenerates Table 6: Phoenix benchmark, Naïve vs Lasagne vs AtoMig,
//! normalized to each kernel's plain build, plus the geometric mean.

#![forbid(unsafe_code)]

use atomig_bench::{factor, render_table, BenchRecorder};
use atomig_core::json::Value;
use atomig_workloads::{
    compile_atomig, compile_baseline, compile_lasagne, compile_naive, phoenix, run_cost,
};

fn main() {
    let paper: [(&str, f64, f64, f64); 5] = [
        ("histogram", 2.80, 2.51, 1.00),
        ("kmeans", 1.07, 1.60, 1.03),
        ("linear_regression", 1.02, 1.90, 1.00),
        ("matrix_multiply", 1.01, 1.49, 1.01),
        ("string_match", 1.70, 1.35, 1.01),
    ];

    let mut rows = Vec::new();
    let (mut gn, mut gl, mut ga) = (1.0f64, 1.0f64, 1.0f64);
    for (name, p_naive, p_lasagne, p_atomig) in paper {
        let src = phoenix::kernel(name, 2);
        let (_, base) = run_cost(&compile_baseline(&src, name), name);
        let (_, naive) = run_cost(&compile_naive(&src, name).0, name);
        let (_, lasagne) = run_cost(&compile_lasagne(&src, name).0, name);
        let (_, atomig) = run_cost(&compile_atomig(&src, name).0, name);
        let (n, l, a) = (
            naive as f64 / base as f64,
            lasagne as f64 / base as f64,
            atomig as f64 / base as f64,
        );
        gn *= n;
        gl *= l;
        ga *= a;
        rows.push(vec![
            name.to_string(),
            factor(n),
            factor(l),
            factor(a),
            format!("{p_naive:.2} / {p_lasagne:.2} / {p_atomig:.2}"),
        ]);
    }
    let k = 1.0 / 5.0;
    rows.push(vec![
        "geometric mean".to_string(),
        factor(gn.powf(k)),
        factor(gl.powf(k)),
        factor(ga.powf(k)),
        "1.39 / 1.73 / 1.01".to_string(),
    ]);

    print!(
        "{}",
        render_table(
            "Table 6: Phoenix benchmark slowdowns (Armv8 cost model)",
            &["Benchmark", "Naive", "Lasagne", "AtoMig", "paper (N/L/A)"],
            &rows,
        )
    );
    let mut rec = BenchRecorder::new("table6");
    let records: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::obj(vec![
                ("benchmark", r[0].as_str().into()),
                ("naive", r[1].parse::<f64>().unwrap_or(0.0).into()),
                ("lasagne", r[2].parse::<f64>().unwrap_or(0.0).into()),
                ("atomig", r[3].parse::<f64>().unwrap_or(0.0).into()),
            ])
        })
        .collect();
    rec.put("slowdowns", Value::Arr(records));
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}
