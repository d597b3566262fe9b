//! Tests that replay the paper's own worked examples: the Figure 2 tweet
//! tiles, the §3.1 itemset walk-through, and the §3.5 array handling.

use jt_core::{collect_leaves, AccessType, ColType, KeyPath, Relation, TilesConfig};
use jt_json::Value;

fn figure2_docs() -> Vec<Value> {
    // Figure 2, verbatim (dates spelled out so they stay strings).
    [
        r#"{"id":1, "create": "3/06", "text": "a", "user": {"id": 1}}"#,
        r#"{"id":2, "create": "3/07", "text": "b", "user": {"id": 3}}"#,
        r#"{"id":3, "create": "6/07", "text": "c", "user": {"id": 5}}"#,
        r#"{"id":4, "create": "1/08", "text": "a", "user": {"id": 1}, "replies": 9}"#,
        r#"{"id":5, "create": "1/10", "text": "b", "user": {"id": 7}, "replies": 3, "geo": {"lat": 1.9}}"#,
        r#"{"id":6, "create": "1/11", "text": "c", "user": {"id": 1}, "replies": 2, "geo": null}"#,
        r#"{"id":7, "create": "1/12", "text": "d", "user": {"id": 3}, "replies": 0, "geo": {"lat": 2.7}}"#,
        r#"{"id":8, "create": "1/13", "text": "x", "user": {"id": 3}, "replies": 1, "geo": {"lat": 3.5}}"#,
    ]
    .iter()
    .map(|t| jt_json::parse(t).unwrap())
    .collect()
}

fn figure2_config() -> TilesConfig {
    // Tile size 4, threshold 60% — exactly the §3.1 walk-through.
    TilesConfig {
        tile_size: 4,
        partition_size: 1,
        threshold: 0.6,
        ..TilesConfig::default()
    }
}

#[test]
fn figure2_extraction_matches_paper() {
    let rel = Relation::load(&figure2_docs(), figure2_config());
    assert_eq!(rel.tiles().len(), 2);

    // Tile #1: id, create, text, user.id extracted; no replies/geo.
    let t1 = &rel.tiles()[0];
    for (path, ty) in [
        (KeyPath::keys(&["id"]), AccessType::Int),
        (KeyPath::keys(&["create"]), AccessType::Text),
        (KeyPath::keys(&["text"]), AccessType::Text),
        (KeyPath::keys(&["user", "id"]), AccessType::Int),
    ] {
        assert!(t1.find_column(&path, ty).is_some(), "tile 1 missing {path}");
    }
    assert!(t1
        .find_column(&KeyPath::keys(&["geo", "lat"]), AccessType::Float)
        .is_none());
    // `replies` appears once in tile 1 (25% < 60%): binary only, but the
    // Bloom filter knows it exists — no incorrect skipping.
    assert!(t1
        .find_column(&KeyPath::keys(&["replies"]), AccessType::Int)
        .is_none());
    assert!(t1.may_contain_path(&KeyPath::keys(&["replies"])));

    // Tile #2: the paper's final extraction {i, c, t, u_i, r, g_l}.
    let t2 = &rel.tiles()[1];
    for (path, ty) in [
        (KeyPath::keys(&["id"]), AccessType::Int),
        (KeyPath::keys(&["create"]), AccessType::Text),
        (KeyPath::keys(&["text"]), AccessType::Text),
        (KeyPath::keys(&["user", "id"]), AccessType::Int),
        (KeyPath::keys(&["replies"]), AccessType::Int),
        (KeyPath::keys(&["geo", "lat"]), AccessType::Float),
    ] {
        assert!(t2.find_column(&path, ty).is_some(), "tile 2 missing {path}");
    }
    // geo.lat is 3/4 frequent: the column is nullable; doc 6 (geo: null)
    // reads as SQL null.
    let gl = t2
        .find_column(&KeyPath::keys(&["geo", "lat"]), AccessType::Float)
        .unwrap();
    let col = t2.column(gl);
    assert_eq!(col.get_f64(0), Some(1.9));
    assert_eq!(col.get_f64(1), None, "geo: null row");
    assert_eq!(col.get_f64(2), Some(2.7));
    assert_eq!(col.get_f64(3), Some(3.5));
    assert!(t2.header.columns[gl].nullable);
}

#[test]
fn figure2_key_paths_as_in_section_3_1() {
    // "the tuple with id 5 has the key paths {i, c, t, u_i, r, g_l}".
    let config = figure2_config();
    let docs = figure2_docs();
    let leaves = collect_leaves(&docs[4], &config);
    let paths: Vec<String> = leaves.leaves.iter().map(|(p, _)| p.to_string()).collect();
    assert_eq!(
        paths,
        vec!["id", "create", "text", "user.id", "replies", "geo.lat"]
    );
    // Tuple 6 lacks g_l (its geo is JSON null — no leaf).
    let leaves = collect_leaves(&docs[5], &config);
    let paths: Vec<String> = leaves.leaves.iter().map(|(p, _)| p.to_string()).collect();
    assert!(!paths.contains(&"geo.lat".to_string()));
    assert_eq!(paths.len(), 5);
}

#[test]
fn section_3_4_type_variants_split() {
    // "the same key path contains integers as well as floats, and the
    // integers are extracted … the float values … have to be stored in the
    // binary JSON representation."
    let docs: Vec<Value> = (0..100)
        .map(|i| {
            if i % 10 == 0 {
                jt_json::parse(&format!(r#"{{"v": {i}.5}}"#)).unwrap()
            } else {
                jt_json::parse(&format!(r#"{{"v": {i}}}"#)).unwrap()
            }
        })
        .collect();
    let rel = Relation::load(
        &docs,
        TilesConfig {
            tile_size: 100,
            partition_size: 1,
            ..TilesConfig::default()
        },
    );
    let tile = &rel.tiles()[0];
    let v = KeyPath::keys(&["v"]);
    let col_idx = tile
        .find_column(&v, AccessType::Int)
        .expect("int variant extracted");
    let meta = &tile.header.columns[col_idx];
    assert_eq!(meta.col_type, ColType::Int);
    assert!(meta.other_typed, "header records the float variant (§4.4)");
    assert!(meta.nullable, "float rows are null in the int column");
    // Row 0 (float) must be readable through the binary fallback.
    assert!(tile.column(col_idx).get_i64(0).is_none());
    let doc = tile.doc_jsonb(0).expect("binary present");
    assert_eq!(v.resolve_jsonb(doc).unwrap().as_f64(), Some(0.5));
}

#[test]
fn section_3_5_leading_array_elements() {
    // "if every document contains an array with x elements but some
    // documents have x + c array elements, only the first x elements are
    // extracted."
    let docs: Vec<Value> = (0..64)
        .map(|i| {
            let extra = if i % 4 == 0 { r#","x","y""# } else { "" };
            jt_json::parse(&format!(r#"{{"tags":["a","b"{extra}]}}"#)).unwrap()
        })
        .collect();
    let config = TilesConfig {
        tile_size: 64,
        partition_size: 1,
        ..TilesConfig::default()
    };
    let rel = Relation::load(&docs, config);
    assert_eq!(rel.tiles().len(), 1);
    let tile = &rel.tiles()[0];
    let t0 = KeyPath::keys(&["tags"]).index(0);
    let t2 = KeyPath::keys(&["tags"]).index(2);
    assert!(
        tile.find_column(&t0, AccessType::Text).is_some(),
        "leading element extracted"
    );
    assert!(
        tile.find_column(&t2, AccessType::Text).is_none(),
        "25%-frequent trailing element not extracted"
    );
    // But it is accessible through the binary fallback.
    assert!(tile.may_contain_path(&t2));
    let doc = tile.doc_jsonb(0).expect("binary");
    assert_eq!(t2.resolve_jsonb(doc).unwrap().as_str(), Some("x"));
}

#[test]
fn array_cap_limits_dictionary_growth() {
    let config = TilesConfig {
        max_array_elems: 4,
        ..TilesConfig::default()
    };
    let doc = jt_json::parse(r#"{"a": [1,2,3,4,5,6,7,8,9,10]}"#).unwrap();
    let leaves = collect_leaves(&doc, &config);
    assert_eq!(leaves.leaves.len(), 4, "only leading elements collected");
}
