//! `bench_plan` — machine-readable planner benchmark snapshot.
//!
//! Plans the join-heavy TPC-H subset twice — with the full rewrite
//! pipeline (statistics-driven join reordering, §4.6) and with the
//! join-reorder pass disabled (declaration order) — then times pure
//! execution of each pre-lowered plan with the executor's runtime greedy
//! ordering off, so the measured difference is exactly the logical join
//! order. The two plans are verified equivalent before timing anything
//! (floats within relative tolerance: reassociated aggregation), and the
//! per-query medians plus the planner's estimated join cardinalities
//! alongside the actuals are written as one JSON document:
//!
//! ```text
//! cargo run --release -p jt-bench --bin bench_plan -- [out.json] [--scale S] [--threads N]
//! ```
//!
//! The default output path is `BENCH_plan.json`. The document is parsed
//! back with `jt_json::parse` before it is written; the process exits
//! nonzero if its own output is not valid JSON, so CI can gate on it.

use jt_core::{Relation, TilesConfig};
use jt_query::{ExecOptions, Pass, PlannerOptions, ResultSet, Scalar};
use jt_workloads::tpch;
use std::time::Instant;

/// The TPC-H queries where join order matters: three-way joins and up.
const JOIN_HEAVY: [usize; 8] = [2, 3, 5, 7, 8, 9, 10, 21];

/// Median wall-clock seconds of `reps` runs of `f` (after one warm-up).
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Equivalence check: reordering joins must not change the answer or the
/// timing comparison is meaningless. Unlike the fixed-plan thread-scaling
/// benches, different join orders legitimately reassociate floating-point
/// aggregation, so floats compare with a relative tolerance instead of by
/// bit pattern; everything else must match exactly.
fn assert_identical(q: usize, a: &ResultSet, b: &ResultSet) {
    let float_eq = |x: f64, y: f64| {
        let scale = x.abs().max(y.abs());
        (x - y).abs() <= 1e-9 * scale.max(1.0)
    };
    let ok = a.rows() == b.rows()
        && a.chunk.width() == b.chunk.width()
        && (0..a.chunk.width()).all(|c| {
            (0..a.rows()).all(|r| match (a.chunk.get(r, c), b.chunk.get(r, c)) {
                (Scalar::Float(x), Scalar::Float(y)) => float_eq(*x, *y),
                (x, y) => x == y,
            })
        });
    if !ok {
        eprintln!("Q{q}: reordered plan diverged from declaration-order result");
        std::process::exit(1);
    }
}

fn main() {
    let mut out_path = String::from("BENCH_plan.json");
    let mut scale = 0.1f64;
    let mut threads = 4usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args[i + 1].parse().expect("numeric --scale");
                i += 2;
            }
            "--threads" => {
                threads = args[i + 1].parse().expect("numeric --threads");
                i += 2;
            }
            p => {
                out_path = p.to_owned();
                i += 1;
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = 9;

    let d = jt_data::tpch::generate(jt_data::tpch::TpchConfig { scale, seed: 7 });
    let rel = Relation::load(&d.combined(), TilesConfig::default());

    // Both plans execute with the runtime greedy pick off so the
    // declaration order written into each physical plan is what runs:
    // the reordered plan's order comes from the logical join-reorder
    // pass, the baseline's from the query text.
    let reordered_popts = PlannerOptions::default();
    let declared_popts = PlannerOptions::default().without(Pass::JoinReorder);
    let exec = || ExecOptions {
        threads,
        optimize_joins: false,
        ..ExecOptions::default()
    };

    let mut case_objs = Vec::new();
    let mut total_reordered = 0.0f64;
    let mut total_declared = 0.0f64;
    for q in JOIN_HEAVY {
        // Plan once per configuration; timing below is execution only.
        let plan_opt = jt_query::optimize(tpch::plan_query(q, &rel), &reordered_popts).lower();
        let plan_base = jt_query::optimize(tpch::plan_query(q, &rel), &declared_popts).lower();
        let opt = plan_opt.clone().run_with(exec());
        let base = plan_base.clone().run_with(exec());
        assert_identical(q, &opt, &base);

        // Estimated vs actual cardinalities from the reordered execution's
        // profile: inner joins carry the planner estimate, scans the
        // sampled estimate.
        let joins: Vec<String> = opt
            .profile
            .joins
            .iter()
            .filter(|j| j.kind == "inner")
            .map(|j| {
                format!(
                    "{{\"keys\":\"{} = {}\",\"estimated\":{:.1},\"actual\":{}}}",
                    j.left, j.right, j.estimated_out, j.rows_out
                )
            })
            .collect();
        let scans: Vec<String> = opt
            .profile
            .scans
            .iter()
            .map(|s| {
                format!(
                    "{{\"table\":\"{}\",\"estimated\":{:.1},\"actual\":{}}}",
                    s.table, s.estimated_rows, s.stats.rows_out
                )
            })
            .collect();

        let reordered = median_secs(reps, || {
            std::hint::black_box(plan_opt.clone().run_with(exec()));
        });
        let declared = median_secs(reps, || {
            std::hint::black_box(plan_base.clone().run_with(exec()));
        });
        total_reordered += reordered;
        total_declared += declared;
        let speedup = declared / reordered.max(1e-12);
        eprintln!(
            "Q{q}: declaration {declared:.6}s reordered {reordered:.6}s \
             ({speedup:.2}x, {} rows)",
            opt.rows()
        );
        case_objs.push(format!(
            concat!(
                "{{\"query\":{},\"rows_out\":{},\"declared_secs\":{:.9},",
                "\"reordered_secs\":{:.9},\"speedup\":{:.3},",
                "\"joins\":[{}],\"scans\":[{}]}}"
            ),
            q,
            opt.rows(),
            declared,
            reordered,
            speedup,
            joins.join(","),
            scans.join(",")
        ));
    }

    let overall = total_declared / total_reordered.max(1e-12);
    eprintln!(
        "total: declaration {total_declared:.6}s reordered {total_reordered:.6}s \
         ({overall:.2}x over {} queries)",
        JOIN_HEAVY.len()
    );

    let doc = format!(
        concat!(
            "{{\"schema\":\"jt-bench/plan-snapshot/v1\",\"scale\":{},\"reps\":{},",
            "\"cores\":{},\"par_threads\":{},\"total_declared_secs\":{:.9},",
            "\"total_reordered_secs\":{:.9},\"total_speedup\":{:.3},\"cases\":[{}]}}"
        ),
        scale,
        reps,
        cores,
        threads,
        total_declared,
        total_reordered,
        overall,
        case_objs.join(",")
    );

    // Self-validate before writing: the snapshot must round-trip through
    // our own JSON parser or the file is useless to downstream tooling.
    if let Err(e) = jt_json::parse(&doc) {
        eprintln!("bench_plan produced invalid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
