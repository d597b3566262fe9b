//! `bench_ingest` — machine-readable ingestion benchmark snapshot.
//!
//! Measures the loader (structural-index tape, structure-hash shape dedup
//! and lazy materialization, §4.3) from NDJSON bytes to a built relation
//! on the synthetic Twitter / Yelp / HackerNews workloads, plus the mining
//! core in isolation (per-document transactions vs shape-deduplicated
//! weighted transactions over the identical input):
//!
//! ```text
//! cargo run --release -p jt-bench --bin bench_ingest -- [out.json] [--scale F] [--threads N]
//! ```
//!
//! Before timing anything, the weighted miner's itemsets must equal the
//! per-document miner's — a speedup over a *different* answer is
//! meaningless. (The loader's own reference is the eager pipeline in
//! jt-core's `cfg(test)` `eager` module, whose tests compare saved images
//! byte for byte.) The default output path is `BENCH_ingest.json`; the
//! document is parsed back with `jt_json::parse` before it is written, so
//! CI can gate on it.

use jt_core::{collect_leaves, Relation, TilesConfig};
use jt_data::to_ndjson;
use jt_mining::{fpgrowth, mine_weighted, weighted_by_id, Interner, Item, MinerConfig};
use std::collections::HashMap;
use std::time::Instant;

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

/// Per-document mining transactions: intern `(path, type)` leaf pairs in
/// first-seen order, one deduplicated transaction per document — the same
/// item universe the tile builder mines.
fn transactions(docs: &[jt_json::Value], config: &TilesConfig) -> Vec<Vec<Item>> {
    let mut ids: HashMap<String, Item> = HashMap::new();
    docs.iter()
        .map(|d| {
            let mut txn: Vec<Item> = Vec::new();
            for (path, leaf) in collect_leaves(d, config).leaves {
                let key = format!("{path:?}#{:?}", leaf.col_type());
                let next = ids.len() as Item;
                let it = *ids.entry(key).or_insert(next);
                if !txn.contains(&it) {
                    txn.push(it);
                }
            }
            txn
        })
        .collect()
}

struct Workload {
    name: &'static str,
    docs: Vec<jt_json::Value>,
}

fn workloads(scale: f64) -> Vec<Workload> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(100);
    vec![
        Workload {
            name: "twitter",
            docs: jt_data::twitter::generate(jt_data::twitter::TwitterConfig {
                docs: n(8000),
                evolving: true,
                ..jt_data::twitter::TwitterConfig::default()
            })
            .docs,
        },
        Workload {
            name: "yelp",
            docs: jt_data::yelp::generate(jt_data::yelp::YelpConfig {
                businesses: n(8000) / 18,
                ..jt_data::yelp::YelpConfig::default()
            })
            .docs,
        },
        Workload {
            name: "hackernews",
            docs: jt_data::hackernews::generate(jt_data::hackernews::HnConfig {
                items: n(8000),
                ..jt_data::hackernews::HnConfig::default()
            }),
        },
    ]
}

fn main() {
    let mut out_path = String::from("BENCH_ingest.json");
    let mut scale = 1.0f64;
    let mut threads = 2usize;
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
    let reps = 5;
    let config = TilesConfig::default();
    let mut case_objs = Vec::new();

    for w in workloads(scale) {
        let text = to_ndjson(&w.docs);
        let mb = text.len() as f64 / 1e6;

        let (_, report) =
            Relation::try_load_ondemand(text.as_bytes(), config, threads).expect("load");

        // Correctness gate first: identical itemsets from the weighted miner.
        let txns = transactions(&w.docs, &config);
        let mcfg = MinerConfig {
            min_support: ((config.threshold * txns.len() as f64).ceil() as u32).max(1),
            budget: config.budget,
        };
        // The §4.3 structure dedup, done by the loader's shape phase, not
        // by the miner: distinct transactions plus one id per document.
        let mut interner = Interner::default();
        let ids: Vec<u32> = txns.iter().map(|t| interner.intern(t.clone())).collect();
        let distinct = interner.into_distinct();
        let per_doc = fpgrowth(&txns, mcfg);
        let weighted = mine_weighted(&weighted_by_id(&distinct, &ids), mcfg);
        if per_doc != weighted {
            eprintln!(
                "{}: weighted mining diverged from per-document mining",
                w.name
            );
            std::process::exit(1);
        }

        // End-to-end ingestion: NDJSON bytes to a built relation.
        let ondemand_secs = median_secs(reps, || {
            std::hint::black_box(
                Relation::try_load_ondemand(text.as_bytes(), config, threads).expect("load"),
            );
        });

        // Mining core in isolation: the §4.3 claim is that the mining wall
        // scales with distinct shapes, not documents.
        let mine_per_doc_secs = median_secs(reps, || {
            std::hint::black_box(fpgrowth(&txns, mcfg));
        });
        let mine_weighted_secs = median_secs(reps, || {
            std::hint::black_box(mine_weighted(&weighted_by_id(&distinct, &ids), mcfg));
        });
        let mining_speedup = mine_per_doc_secs / mine_weighted_secs.max(1e-12);

        let docs = report.docs;
        let distinct = report.distinct_shapes;
        let dedup_ratio = if docs > 0 {
            (docs - distinct) as f64 / docs as f64
        } else {
            0.0
        };
        eprintln!(
            "{}: {:.2} MB, ondemand {ondemand_secs:.4}s ({:.1} MB/s); {distinct} shapes / \
             {docs} docs, mining {:.4}s → {:.4}s = {mining_speedup:.2}x",
            w.name,
            mb,
            mb / ondemand_secs,
            mine_per_doc_secs,
            mine_weighted_secs,
        );
        case_objs.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"docs\":{},\"bytes\":{},",
                "\"ondemand_secs\":{:.9},\"ondemand_mb_s\":{:.3},",
                "\"distinct_shapes\":{},\"shape_dedup_ratio\":{:.4},",
                "\"mine_per_doc_secs\":{:.9},\"mine_weighted_secs\":{:.9},",
                "\"mining_speedup\":{:.3}}}"
            ),
            w.name,
            docs,
            text.len(),
            ondemand_secs,
            mb / ondemand_secs,
            distinct,
            dedup_ratio,
            mine_per_doc_secs,
            mine_weighted_secs,
            mining_speedup,
        ));
    }

    let doc = format!(
        concat!(
            "{{\"schema\":\"jt-bench/ingest-snapshot/v1\",\"scale\":{},\"reps\":{},",
            "\"cores\":{},\"threads\":{},\"workloads\":[{}]}}"
        ),
        scale,
        reps,
        cores,
        threads,
        case_objs.join(",")
    );

    // Self-validate before writing: the snapshot must round-trip through
    // our own JSON parser or the file is useless to downstream tooling.
    if let Err(e) = jt_json::parse(&doc) {
        eprintln!("bench_ingest produced invalid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
