//! Criterion benches behind Figure 14 (optimization levels) and Figure 10
//! (tile-size sensitivity): the ablation study of the §4.8 tile skipping
//! and §4.9 date extraction, plus the DESIGN.md-called-out reordering
//! ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jt_bench::{datasets, load_with};
use jt_core::TilesConfig;
use jt_query::ExecOptions;
use jt_workloads::tpch;

fn bench_optimization_levels(c: &mut Criterion) {
    let d = datasets::build(0.1);
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let variants: [(&str, bool, bool); 4] = [
        ("noOpt", false, false),
        ("noDate", false, true),
        ("noSkip", true, false),
        ("Tiles", true, true),
    ];
    for (label, date, skip) in variants {
        let rel = load_with(
            &d.tpch_combined,
            TilesConfig {
                date_extraction: date,
                ..TilesConfig::default()
            },
            4,
        );
        let opts = ExecOptions {
            threads: 1,
            enable_skipping: skip,
            optimize_joins: true,
            ..ExecOptions::default()
        };
        // Q1 exercises date extraction; Q6 exercises skipping + dates.
        for q in [1usize, 6] {
            group.bench_with_input(BenchmarkId::new(label, format!("Q{q}")), &q, |b, &q| {
                b.iter(|| tpch::run_query(q, &rel, opts.clone()));
            });
        }
    }
    group.finish();
}

fn bench_reordering_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: reordering on/off over the adversarial
    // HackerNews mix (Figure 3 workload).
    let d = datasets::build(0.1);
    let mut group = c.benchmark_group("reordering");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (label, partition) in [("off", 1usize), ("on", 8)] {
        let rel = load_with(
            &d.hackernews,
            TilesConfig {
                tile_size: 256,
                partition_size: partition,
                ..TilesConfig::default()
            },
            4,
        );
        group.bench_with_input(BenchmarkId::new(label, "hn_scan"), &(), |b, ()| {
            b.iter(|| {
                jt_query::Query::scan("i", &rel)
                    .access("score", jt_query::AccessType::Int)
                    .access("type", jt_query::AccessType::Text)
                    .filter(jt_query::col("score").gt(jt_query::lit(50)))
                    .aggregate(
                        vec![jt_query::col("type")],
                        vec![jt_query::Agg::count_star()],
                    )
                    .run()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Plot rendering dominates wall time on small machines; reports
    // stay in target/criterion as raw data.
    config = Criterion::default().without_plots();
    targets = bench_optimization_levels, bench_reordering_ablation
}
criterion_main!(benches);
