//! Criterion benches behind Figures 11, 16, 17: bulk-loading throughput per
//! storage mode and per tile/partition configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jt_bench::{datasets, load_text};
use jt_core::{StorageMode, TilesConfig};

fn bench_load_modes(c: &mut Criterion) {
    let d = datasets::build(0.1);
    let mut group = c.benchmark_group("load_modes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(d.tpch_combined.len() as u64));
    let text = jt_data::to_ndjson(&d.tpch_combined);
    for (mode, name) in [
        (StorageMode::JsonText, "JSON"),
        (StorageMode::Jsonb, "JSONB"),
        (StorageMode::Sinew, "Sinew"),
        (StorageMode::Tiles, "Tiles"),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "tpch"), &(), |b, ()| {
            b.iter(|| load_text(&text, TilesConfig::with_mode(mode), 4));
        });
    }
    group.finish();
}

fn bench_load_tile_sizes(c: &mut Criterion) {
    let d = datasets::build(0.1);
    let mut group = c.benchmark_group("load_tile_size");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(d.tpch_shuffled.len() as u64));
    let text = jt_data::to_ndjson(&d.tpch_shuffled);
    for shift in [8u32, 10, 12] {
        for partition in [1usize, 8] {
            let id = format!("2^{shift}/p{partition}");
            group.bench_with_input(BenchmarkId::new("shuffled", id), &(), |b, ()| {
                b.iter(|| {
                    load_text(
                        &text,
                        TilesConfig {
                            tile_size: 1 << shift,
                            partition_size: partition,
                            ..TilesConfig::default()
                        },
                        4,
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Plot rendering dominates wall time on small machines; reports
    // stay in target/criterion as raw data.
    config = Criterion::default().without_plots();
    targets = bench_load_modes, bench_load_tile_sizes
}
criterion_main!(benches);
