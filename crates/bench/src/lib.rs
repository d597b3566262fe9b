//! # jt-bench — reproduction harness for every table and figure (§6)
//!
//! The `repro` binary regenerates each experiment of the paper's
//! evaluation section at a configurable scale:
//!
//! ```text
//! cargo run --release -p jt-bench --bin repro -- --exp table1
//! cargo run --release -p jt-bench --bin repro -- --exp all --scale 0.3
//! ```
//!
//! Criterion benches in `benches/` additionally track the per-workload
//! timings with statistical rigour (`cargo bench -p jt-bench`).
//!
//! EXPERIMENTS.md records the paper-vs-measured comparison for every
//! experiment id produced here.

use jt_core::{Relation, StorageMode, TilesConfig};
use jt_query::{ExecOptions, ResultSet};
use std::time::Instant;

pub mod datasets;
pub mod exec_workloads;
pub mod experiments;
pub mod scan_kernels;

/// The four internal competitors of the paper, in Table 1 column order.
pub const MODES: [(StorageMode, &str); 4] = [
    (StorageMode::JsonText, "JSON"),
    (StorageMode::Jsonb, "JSONB"),
    (StorageMode::Sinew, "Sinew"),
    (StorageMode::Tiles, "Tiles"),
];

/// Run `f` repeatedly and return the median wall-clock seconds.
///
/// Repetitions adapt to the runtime: fast queries get more samples.
pub fn time_median<F: FnMut() -> ResultSet>(mut f: F) -> f64 {
    // Warm-up + calibration run.
    let t0 = Instant::now();
    let _ = f();
    let first = t0.elapsed().as_secs_f64();
    let reps = if first < 0.005 {
        9
    } else if first < 0.05 {
        5
    } else {
        3
    };
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let _ = f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Load a relation with the default paper parameters and the given mode.
pub fn load_mode(docs: &[jt_json::Value], mode: StorageMode, threads: usize) -> Relation {
    load_with(docs, TilesConfig::with_mode(mode), threads)
}

/// Load `docs` under `config` on `threads` workers: printed as NDJSON,
/// then formed into tiles by the loader.
pub fn load_with(docs: &[jt_json::Value], config: TilesConfig, threads: usize) -> Relation {
    load_text(&jt_data::to_ndjson(docs), config, threads)
}

/// Load NDJSON `text` under `config` on `threads` workers — what the
/// loading experiments time, with the printing left outside.
pub fn load_text(text: &str, config: TilesConfig, threads: usize) -> Relation {
    Relation::try_load_ondemand(text.as_bytes(), config, threads)
        .expect("generated corpora load")
        .0
}

/// Default execution options used by the repro experiments.
pub fn exec_opts(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        enable_skipping: true,
        optimize_joins: true,
        ..ExecOptions::default()
    }
}

/// Pretty-print a table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.5).ends_with('s'));
    }

    #[test]
    fn time_median_returns_positive() {
        let docs: Vec<jt_json::Value> = (0..64)
            .map(|i| jt_json::parse(&format!("{{\"v\":{i}}}")).unwrap())
            .collect();
        let rel = load_mode(&docs, StorageMode::Tiles, 1);
        let t = time_median(|| {
            jt_query::Query::scan("t", &rel)
                .access("v", jt_query::AccessType::Int)
                .aggregate(vec![], vec![jt_query::Agg::sum(jt_query::col("v"))])
                .run()
        });
        assert!(t > 0.0);
    }
}
