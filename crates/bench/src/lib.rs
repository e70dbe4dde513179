//! # atomig-bench
//!
//! Harnesses that regenerate every table of the AtoMig paper:
//!
//! | Binary  | Reproduces |
//! |---------|------------|
//! | `table1` | The qualitative comparison of porting approaches |
//! | `table2` | GenMC-style verdicts per detection stage |
//! | `table3` | Pattern census, build times and barrier counts on the five (synthetic) large applications |
//! | `table4` | Dynamically executed barrier counts on the Memcached kernel |
//! | `table5` | Naïve vs AtoMig slowdowns on all twelve benchmarks |
//! | `table6` | Phoenix: Naïve vs Lasagne vs AtoMig |
//!
//! Run e.g. `cargo run -p atomig-bench --release --bin table2`. The
//! Criterion benches (`cargo bench`) measure the *machinery*: pass
//! throughput over growing modules, model-checker throughput, interpreter
//! throughput, and frontend throughput.

#![forbid(unsafe_code)]

use atomig_core::json::Value;
use atomig_core::{BarrierCensus, PipelineMetrics};
use std::fmt::Write as _;
use std::time::Instant;

/// Renders an ASCII table: a header row plus data rows.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let _ = writeln!(out, "+{line}+");
    let hdr: Vec<String> = header
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    let _ = writeln!(out, "|{}|", hdr.join("|"));
    let _ = writeln!(out, "+{line}+");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        let _ = writeln!(out, "|{}|", cells.join("|"));
    }
    let _ = writeln!(out, "+{line}+");
    out
}

/// Formats a slowdown factor like the paper (two decimals).
pub fn factor(x: f64) -> String {
    format!("{x:.2}")
}

/// Collects one table-bin run into a `BENCH_<name>.json` machine-readable
/// companion: total wall time, barrier censuses, per-phase timings, and
/// whatever bin-specific counters the harness adds.
///
/// The file lands in the current directory, or in `$ATOMIG_BENCH_DIR`
/// when set (CI puts them all in one artifact folder).
pub struct BenchRecorder {
    name: String,
    t0: Instant,
    fields: Vec<(String, Value)>,
}

impl BenchRecorder {
    /// Starts recording; the wall-time clock runs from here.
    pub fn new(name: &str) -> BenchRecorder {
        BenchRecorder {
            name: name.to_string(),
            t0: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// Adds one top-level field.
    pub fn put(&mut self, key: &str, value: Value) {
        self.fields.push((key.to_string(), value));
    }

    /// Adds the per-phase timings of a pipeline run under `key`.
    pub fn phases(&mut self, key: &str, metrics: &PipelineMetrics) {
        let arr: Vec<Value> = metrics
            .phases
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("name", p.name.as_str().into()),
                    ("nanos", p.duration.as_nanos().into()),
                    ("items", p.items.into()),
                ])
            })
            .collect();
        self.put(key, Value::Arr(arr));
        if let Some(s) = &metrics.solver {
            self.put(
                &format!("{key}_solver"),
                Value::obj(vec![
                    ("nodes", s.nodes.into()),
                    ("cells", s.cells.into()),
                    ("constraints", s.constraints.into()),
                    ("iterations", s.iterations.into()),
                    ("passes", s.passes.into()),
                    ("nanos", s.solve_time.as_nanos().into()),
                ]),
            );
        }
    }

    /// Adds a barrier census under `key`.
    pub fn census(&mut self, key: &str, c: &BarrierCensus) {
        self.put(
            key,
            Value::obj(vec![
                ("explicit", c.explicit.into()),
                ("implicit", c.implicit.into()),
                ("plain", c.plain.into()),
            ]),
        );
    }

    /// Finalizes the record (stamps `bench` and `wall_nanos`).
    pub fn finish(self) -> Value {
        let mut pairs = vec![
            ("bench".to_string(), Value::from(self.name.as_str())),
            (
                "wall_nanos".to_string(),
                Value::from(self.t0.elapsed().as_nanos()),
            ),
        ];
        pairs.extend(self.fields);
        Value::Obj(pairs.into_iter().collect())
    }

    /// Writes `BENCH_<name>.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(self) -> std::io::Result<String> {
        let dir = std::env::var("ATOMIG_BENCH_DIR").unwrap_or_else(|_| ".".into());
        std::fs::create_dir_all(&dir)?;
        let path = format!("{dir}/BENCH_{}.json", self.name);
        let record = self.finish();
        std::fs::write(&path, format!("{record}\n"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rectangular_tables() {
        let t = render_table(
            "T",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| 333 | 4  |"));
        assert!(t.starts_with("T\n"));
    }

    #[test]
    fn factor_formats_two_decimals() {
        assert_eq!(factor(1.005), "1.00");
        assert_eq!(factor(2.491), "2.49");
    }

    #[test]
    fn recorder_produces_parseable_records() {
        let mut rec = BenchRecorder::new("unit");
        rec.put("rows", Value::from(3usize));
        rec.census(
            "census",
            &BarrierCensus {
                explicit: 1,
                implicit: 2,
                plain: 3,
            },
        );
        let mut metrics = PipelineMetrics::default();
        metrics.record("phase-a", std::time::Duration::from_nanos(5), 7);
        rec.phases("phases", &metrics);
        let record = rec.finish();
        let text = record.to_string();
        let back = atomig_core::json::parse(&text).unwrap();
        assert_eq!(back.get("bench").and_then(Value::as_str), Some("unit"));
        assert_eq!(back.get("rows").and_then(Value::as_num), Some(3.0));
        assert_eq!(
            back.get("census")
                .and_then(|c| c.get("implicit"))
                .and_then(Value::as_num),
            Some(2.0)
        );
        let phases = back.get("phases").and_then(Value::as_arr).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("name").and_then(Value::as_str),
            Some("phase-a")
        );
    }
}
