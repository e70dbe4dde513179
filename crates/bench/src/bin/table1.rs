//! Regenerates Table 1: comparison of porting approaches.

#![forbid(unsafe_code)]

use atomig_bench::{render_table, BenchRecorder};
use atomig_core::approach_matrix;
use atomig_core::json::Value;

fn main() {
    let mut rec = BenchRecorder::new("table1");
    let rows: Vec<Vec<String>> = approach_matrix()
        .into_iter()
        .map(|(name, cells)| {
            let mut row = vec![name.to_string()];
            row.extend(cells.iter().map(|c| c.to_string()));
            row
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 1: Comparison of Porting Approaches (Y = yes, x = no, = partly)",
            &["Approach", "Safe", "Efficient", "Scalable", "Practical"],
            &rows,
        )
    );
    rec.put("approaches", Value::from(rows.len()));
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}
