//! Cross-crate integration tests: the full pipeline from NDJSON text
//! through tiles to query results, exercised across storage modes.

use json_tiles::data;
use json_tiles::json;
use json_tiles::query::{col, lit, AccessType, Agg, ExecOptions, Query};
use json_tiles::tiles::{Relation, StorageMode, TilesConfig};
use json_tiles::workloads::{tpch, twitter, yelp};

/// Parse an NDJSON blob the way an ingestion pipeline would.
fn parse_ndjson(text: &str) -> Vec<json::Value> {
    text.lines()
        .map(|l| json::parse(l).expect("valid line"))
        .collect()
}

#[test]
fn ndjson_ingestion_round_trip() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.02,
        seed: 1,
    });
    let combined = d.combined();
    let ndjson = data::to_ndjson(&combined);
    let reparsed = parse_ndjson(&ndjson);
    assert_eq!(reparsed, combined, "text round trip");
    let rel = Relation::load(&reparsed, TilesConfig::default());
    assert_eq!(rel.row_count(), combined.len());
}

#[test]
fn full_tpch_pipeline_small() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.04,
        seed: 2,
    });
    let combined = d.combined();
    let tiles = Relation::load(&combined, TilesConfig::default());
    let jsonb = Relation::load(&combined, TilesConfig::with_mode(StorageMode::Jsonb));
    // A representative query subset across both modes must agree.
    for q in [1, 3, 6, 10, 18, 22] {
        let a = tpch::run_query(q, &tiles, ExecOptions::default()).to_lines();
        let b = tpch::run_query(q, &jsonb, ExecOptions::default()).to_lines();
        assert_eq!(a, b, "Q{q}");
    }
}

#[test]
fn shuffled_load_answers_like_ordered_load() {
    // Reordering changes physical placement, never query results.
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.04,
        seed: 3,
    });
    let ordered = Relation::load(&d.combined(), TilesConfig::default());
    let shuffled = Relation::load(&d.shuffled(99), TilesConfig::default());
    for q in [1, 6, 12] {
        let a = tpch::run_query(q, &ordered, ExecOptions::default()).to_lines();
        let b = tpch::run_query(q, &shuffled, ExecOptions::default()).to_lines();
        assert_eq!(a, b, "Q{q}: physical order must not affect answers");
    }
}

#[test]
fn yelp_and_twitter_suites_run_under_parallel_scans() {
    let y = data::yelp::generate(data::yelp::YelpConfig {
        businesses: 80,
        seed: 4,
    });
    let yrel = Relation::load(&y.docs, TilesConfig::default());
    let opts = ExecOptions {
        threads: 4,
        ..ExecOptions::default()
    };
    for q in 1..=yelp::QUERY_COUNT {
        let seq = yelp::run_query(q, &yrel, ExecOptions::default()).to_lines();
        let par = yelp::run_query(q, &yrel, opts.clone()).to_lines();
        assert_eq!(seq, par, "Yelp Q{q}");
    }
    let t = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 2000,
        ..Default::default()
    });
    let trel = Relation::load(&t.docs, TilesConfig::default());
    for q in 1..=twitter::QUERY_COUNT {
        let seq = twitter::run_query(q, &trel, ExecOptions::default()).to_lines();
        let par = twitter::run_query(q, &trel, opts.clone()).to_lines();
        assert_eq!(seq, par, "Twitter Q{q}");
    }
}

#[test]
fn updates_visible_to_queries_in_all_modes() {
    let docs: Vec<json::Value> = (0..300)
        .map(|i| json::parse(&format!(r#"{{"k":{i},"grp":"{}"}}"#, i % 3)).unwrap())
        .collect();
    for mode in [StorageMode::Jsonb, StorageMode::Sinew, StorageMode::Tiles] {
        let mut rel = Relation::load(&docs, TilesConfig::with_mode(mode));
        let before = Query::scan("t", &rel)
            .access("k", AccessType::Int)
            .aggregate(vec![], vec![Agg::sum(col("k"))])
            .run()
            .column(0)[0]
            .as_i64()
            .unwrap();
        rel.update(10, &json::parse(r#"{"k":100000,"grp":"x"}"#).unwrap());
        let after = Query::scan("t", &rel)
            .access("k", AccessType::Int)
            .aggregate(vec![], vec![Agg::sum(col("k"))])
            .run()
            .column(0)[0]
            .as_i64()
            .unwrap();
        assert_eq!(after, before - 10 + 100_000, "{mode:?}");
    }
}

#[test]
fn compression_round_trips_on_real_column_data() {
    // Tie jt-compress into the pipeline: compressing the tile columns and
    // decompressing yields the original bytes.
    let d = data::yelp::generate(data::yelp::YelpConfig {
        businesses: 60,
        seed: 6,
    });
    let rel = Relation::load(&d.docs, TilesConfig::default());
    let mut checked = 0;
    for tile in rel.tiles() {
        for col in tile.columns() {
            let raw = col.raw_bytes();
            let packed = json_tiles::compress::compress(&raw);
            let unpacked = json_tiles::compress::decompress(&packed, raw.len()).unwrap();
            assert_eq!(unpacked, raw);
            checked += 1;
        }
    }
    assert!(checked > 10, "exercised {checked} column chunks");
}

#[test]
fn binary_formats_agree_on_workload_documents() {
    // BSON and CBOR round-trip the actual workload docs (modulo the known
    // BSON numeric-key lossiness, which these docs don't trigger).
    let t = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 200,
        ..Default::default()
    });
    for doc in t.docs.iter().take(50) {
        assert_eq!(
            &json_tiles::formats::cbor::decode(&json_tiles::formats::cbor::encode(doc)),
            doc
        );
        assert_eq!(
            &json_tiles::formats::bson::decode(&json_tiles::formats::bson::encode(doc)),
            doc
        );
        let jb = json_tiles::jsonb::encode(doc);
        assert_eq!(
            json_tiles::jsonb::decode(&jb),
            json_tiles::jsonb::decode(&json_tiles::jsonb::encode(&json_tiles::jsonb::decode(&jb)))
        );
    }
}

#[test]
fn skipping_statistics_surface_in_results() {
    let docs: Vec<json::Value> = (0..1024)
        .map(|i| {
            if i < 512 {
                json::parse(&format!(r#"{{"a":{i}}}"#)).unwrap()
            } else {
                json::parse(&format!(r#"{{"b":{i}}}"#)).unwrap()
            }
        })
        .collect();
    let rel = Relation::load(
        &docs,
        TilesConfig {
            tile_size: 128,
            partition_size: 1,
            ..TilesConfig::default()
        },
    );
    let r = Query::scan("t", &rel)
        .access("a", AccessType::Int)
        .filter(col("a").ge(lit(0)))
        .aggregate(vec![], vec![Agg::count_star()])
        .run();
    assert_eq!(r.column(0)[0].as_i64(), Some(512));
    assert_eq!(r.scan_stats.skipped_tiles, 4, "b-only tiles skipped");
}
