//! End-to-end tests of the relation load pipeline across all four storage
//! modes, the reordering behaviour on adversarial data, statistics
//! aggregation, and the update/recompute path.

use jt_core::{AccessType, KeyPath, Relation, StorageMode, TilesConfig};
use jt_json::Value;

fn tweets(n: usize) -> Vec<Value> {
    // Mimics the paper's Figure 2: geo appears in the second half only.
    (0..n)
        .map(|i| {
            let geo = if i >= n / 2 {
                format!(r#","replies":{},"geo":{{"lat":{}.5}}"#, i % 10, i % 90)
            } else {
                String::new()
            };
            jt_json::parse(&format!(
                r#"{{"id":{i},"create":"20{:02}-01-0{}","text":"t{i}","user":{{"id":{}}}{geo}}}"#,
                6 + (i * 8 / n.max(1)),
                1 + i % 9,
                i % 50
            ))
            .unwrap()
        })
        .collect()
}

fn small_config(mode: StorageMode) -> TilesConfig {
    TilesConfig {
        mode,
        tile_size: 64,
        partition_size: 4,
        ..TilesConfig::default()
    }
}

#[test]
fn all_modes_round_trip_documents() {
    let docs = tweets(300);
    for mode in [
        StorageMode::JsonText,
        StorageMode::Jsonb,
        StorageMode::Sinew,
        StorageMode::Tiles,
    ] {
        let rel = Relation::load(&docs, small_config(mode));
        assert_eq!(rel.row_count(), 300, "{mode:?}");
        // Every row reconstructs to the original document, modulo JSONB
        // normalization (key order) for binary modes.
        for row in [0usize, 150, 299] {
            let got = rel.doc(row);
            let want = &docs[row];
            match mode {
                StorageMode::JsonText => assert_eq!(&got, want, "{mode:?} row {row}"),
                _ => {
                    // Compare via sorted normalization.
                    let norm = jt_jsonb::decode(&jt_jsonb::encode(want));
                    assert_eq!(got, norm, "{mode:?} row {row}");
                }
            }
        }
    }
}

#[test]
fn tiles_extract_locally_what_sinew_misses() {
    let docs = tweets(512);
    let tiles_rel = Relation::load(&docs, small_config(StorageMode::Tiles));
    let sinew_rel = Relation::load(&docs, small_config(StorageMode::Sinew));

    let geo = KeyPath::keys(&["geo", "lat"]);
    // geo.lat is in 50% of all docs: below Sinew's 60% table threshold.
    for tile in sinew_rel.tiles() {
        assert!(
            tile.find_column(&geo, AccessType::Float).is_none(),
            "Sinew must not extract geo.lat"
        );
    }
    // But it is ~100% frequent in the later tiles.
    let late = tiles_rel.tiles().last().unwrap();
    assert!(
        late.find_column(&geo, AccessType::Float).is_some(),
        "Tiles must extract geo.lat locally"
    );
    // And the early tiles see no geo at all — and know it (skipping, §4.8).
    let early = &tiles_rel.tiles()[0];
    assert!(early.find_column(&geo, AccessType::Float).is_none());
    assert!(!early.may_contain_path(&geo), "early tile is skippable");
}

#[test]
fn hackernews_needs_reordering() {
    let docs = jt_data::hackernews::generate(jt_data::hackernews::HnConfig {
        items: 2048,
        seed: 3,
    });
    let base = TilesConfig {
        tile_size: 128,
        partition_size: 1,
        ..TilesConfig::default()
    };
    let no_reorder = Relation::load(&docs, base);
    let with_reorder = Relation::load(
        &docs,
        TilesConfig {
            partition_size: 8,
            ..base
        },
    );
    // "url" exists only on stories (~30% per tile unordered).
    let url = KeyPath::keys(&["url"]);
    let count_extracting = |rel: &Relation| {
        rel.tiles()
            .iter()
            .filter(|t| t.find_column(&url, AccessType::Text).is_some())
            .count()
    };
    let before = count_extracting(&no_reorder);
    let after = count_extracting(&with_reorder);
    assert!(
        after > before,
        "reordering must unlock url extraction: {before} -> {after}"
    );
    assert!(after >= 2, "stories cluster into dedicated tiles: {after}");
    // Reordering preserves the multiset of documents.
    let mut got: Vec<String> = (0..with_reorder.row_count())
        .map(|i| jt_json::to_string(&with_reorder.doc(i)))
        .collect();
    let mut want: Vec<String> = docs
        .iter()
        .map(|d| jt_json::to_string(&jt_jsonb::decode(&jt_jsonb::encode(d))))
        .collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn statistics_reflect_data() {
    let docs = tweets(1024);
    let rel = Relation::load(&docs, small_config(StorageMode::Tiles));
    let stats = rel.stats();
    assert_eq!(stats.row_count(), 1024);
    // id in every doc.
    assert_eq!(stats.estimate_path_count("id"), 1024);
    // geo.lat in half.
    let geo = stats.estimate_path_count("geo.lat");
    assert!((400..=600).contains(&geo), "geo count {geo}");
    // user.id has 50 distinct values.
    let d = stats.estimate_distinct("user.id").expect("sketch exists");
    assert!((35.0..70.0).contains(&d), "user.id distinct {d}");
    // id is unique.
    let d = stats.estimate_distinct("id").expect("sketch exists");
    assert!((900.0..1200.0).contains(&d), "id distinct {d}");
}

#[test]
fn parallel_load_equals_sequential() {
    let docs = tweets(2000);
    let cfg = small_config(StorageMode::Tiles);
    let text = jt_data::to_ndjson(&docs);
    let (seq, _) = Relation::try_load_ondemand(text.as_bytes(), cfg, 1).unwrap();
    let (par, _) = Relation::try_load_ondemand(text.as_bytes(), cfg, 4).unwrap();
    assert_eq!(seq.row_count(), par.row_count());
    assert_eq!(seq.tiles().len(), par.tiles().len());
    for (a, b) in seq.tiles().iter().zip(par.tiles()) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.header.columns, b.header.columns, "same extraction");
    }
    for row in [0usize, 999, 1999] {
        assert_eq!(seq.doc(row), par.doc(row));
    }
}

#[test]
fn updates_write_in_place_and_track_outliers() {
    let docs = tweets(128);
    let mut rel = Relation::load(&docs, small_config(StorageMode::Tiles));
    // Update row 3 with a doc that keeps the schema.
    let new_doc =
        jt_json::parse(r#"{"id":999,"create":"2012-01-01","text":"updated","user":{"id":7}}"#)
            .unwrap();
    rel.update(3, &new_doc);
    let got = rel.doc(3);
    assert_eq!(got.get("id").unwrap().as_i64(), Some(999));
    assert_eq!(got.get("text").unwrap().as_str(), Some("updated"));
    // Column reads reflect the update.
    let (ti, r) = rel.locate(3);
    let tile = &rel.tiles()[ti];
    let id_col = tile
        .find_column(&KeyPath::keys(&["id"]), AccessType::Int)
        .unwrap();
    assert_eq!(tile.column(id_col).get_i64(r), Some(999));
}

#[test]
fn outlier_updates_trigger_recompute() {
    let docs = tweets(64);
    let mut rel = Relation::load(
        &docs,
        TilesConfig {
            tile_size: 64,
            partition_size: 1,
            ..TilesConfig::default()
        },
    );
    // Replace every row with a disjoint structure. A first recomputation
    // fires mid-way (mixed content: nothing reaches 60%, so the schema goes
    // empty); once the outlier structure is the clear majority a second
    // recomputation re-mines and extracts it.
    let outlier = jt_json::parse(r#"{"completely":{"different":1},"shape":true}"#).unwrap();
    for row in 0..64 {
        rel.update(row, &outlier);
    }
    for row in 0..40 {
        rel.update(row, &outlier);
    }
    // After recompute, the new majority structure must be extracted.
    let tile = &rel.tiles()[0];
    assert!(
        tile.find_column(
            &KeyPath::keys(&["completely", "different"]),
            AccessType::Int
        )
        .is_some(),
        "recomputed tile extracts the new structure"
    );
}

#[test]
fn storage_report_orders_modes() {
    let docs = tweets(1024);
    let text = Relation::load(&docs, small_config(StorageMode::JsonText)).storage_report();
    let jsonb = Relation::load(&docs, small_config(StorageMode::Jsonb)).storage_report();
    let tiles = Relation::load(&docs, small_config(StorageMode::Tiles)).storage_report();
    assert!(text.text_bytes > 0 && text.jsonb_bytes == 0);
    assert!(jsonb.jsonb_bytes > 0 && jsonb.tile_bytes == 0);
    assert!(tiles.tile_bytes > 0, "tiles add columnar data");
    assert!(
        tiles.lz4_tile_bytes < tiles.tile_bytes,
        "LZ4 compresses columns: {} vs {}",
        tiles.lz4_tile_bytes,
        tiles.tile_bytes
    );
    // Tile columns are an addition on top of JSONB, and much smaller than it
    // (Table 6: +Tiles is 3–24% of JSONB).
    assert!(tiles.tile_bytes < tiles.jsonb_bytes * 2);
}

#[test]
fn date_extraction_types_created_column() {
    let docs = tweets(256);
    let rel = Relation::load(&docs, small_config(StorageMode::Tiles));
    let tile = &rel.tiles()[0];
    let create = KeyPath::keys(&["create"]);
    let col = tile
        .find_column(&create, AccessType::Timestamp)
        .expect("create extracted as date");
    assert_eq!(tile.column(col).col_type(), jt_core::ColType::Date);
    // With date extraction off, it is a plain string column.
    let rel = Relation::load(
        &docs,
        TilesConfig {
            date_extraction: false,
            ..small_config(StorageMode::Tiles)
        },
    );
    let tile = &rel.tiles()[0];
    let col = tile
        .find_column(&create, AccessType::Text)
        .expect("create as text");
    assert_eq!(tile.column(col).col_type(), jt_core::ColType::Str);
}

#[test]
fn load_metrics_populated() {
    let docs = tweets(1024);
    let rel = Relation::load(&docs, small_config(StorageMode::Tiles));
    let m = rel.metrics();
    assert_eq!(m.rows, 1024);
    assert!(m.total > std::time::Duration::ZERO);
    assert!(m.tuples_per_sec() > 0.0);
    assert!(m.mining > std::time::Duration::ZERO, "tiles mode mines");
    assert!(m.write_jsonb > std::time::Duration::ZERO);
}

#[test]
fn incremental_insert_matches_bulk_load() {
    let docs = tweets(600);
    let cfg = small_config(StorageMode::Tiles);
    let bulk = Relation::load(&docs, cfg);
    let mut inc = Relation::new(cfg);
    for d in &docs {
        inc.insert(d.clone());
    }
    // 600 docs / (64 × 4) partition rows → two auto-flushed partitions plus
    // a pending tail.
    assert!(inc.pending_rows() > 0, "tail not yet flushed");
    let visible = inc.row_count();
    assert_eq!(visible + inc.pending_rows(), 600);
    inc.flush();
    assert_eq!(inc.pending_rows(), 0);
    assert_eq!(inc.row_count(), bulk.row_count());
    assert_eq!(inc.tiles().len(), bulk.tiles().len());
    for (a, b) in bulk.tiles().iter().zip(inc.tiles()) {
        assert_eq!(
            a.header.columns, b.header.columns,
            "same extraction per tile"
        );
    }
    for row in [0usize, 300, 599] {
        assert_eq!(bulk.doc(row), inc.doc(row), "row {row}");
    }
}

#[test]
fn incremental_insert_stats_accumulate() {
    let docs = tweets(512);
    let mut rel = Relation::new(small_config(StorageMode::Tiles));
    for d in &docs {
        rel.insert(d.clone());
    }
    rel.flush();
    assert_eq!(rel.stats().row_count(), 512);
    assert_eq!(rel.stats().estimate_path_count("id"), 512);
    assert!(rel.metrics().rows == 512);
    assert!(rel.metrics().tuples_per_sec() > 0.0);
}

#[test]
fn empty_relation_is_queryable_shell() {
    let rel = Relation::new(small_config(StorageMode::Tiles));
    assert_eq!(rel.row_count(), 0);
    assert!(rel.tiles().is_empty());
    let mut rel = rel;
    rel.flush(); // no-op
    assert_eq!(rel.row_count(), 0);
}
