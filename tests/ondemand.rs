//! The two ways in: for every workload generator and every storage mode,
//! loading documents as `Value` trees (`Relation::load`, which prints them
//! and loads the printed text) must save byte for byte like loading the
//! NDJSON text they were parsed from (`try_load_ondemand`). For text the
//! printer would never emit, this is what shows that parsing and printing
//! lose nothing the tiles depend on.
//!
//! The loader's own reference — the eager tree-building pipeline — lives in
//! jt-core's `cfg(test)` `eager` module, whose tests compare the same
//! corpora against it.

use json_tiles::data::{self, from_ndjson, to_ndjson};
use json_tiles::tiles::{Relation, StorageMode, TilesConfig};

/// Save both relations into a scratch directory and compare raw bytes.
fn assert_save_identical(tag: &str, from_values: &mut Relation, from_text: &mut Relation) {
    let dir = std::env::temp_dir().join(format!("jt-ondemand-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("values.jt");
    let b = dir.join("text.jt");
    from_values.save(&a).unwrap();
    from_text.save(&b).unwrap();
    let ba = std::fs::read(&a).unwrap();
    let bb = std::fs::read(&b).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ba, bb, "{tag}: persisted images diverge");
}

/// Load the same text both ways under `config` and demand byte identity.
fn check(tag: &str, text: &str, config: TilesConfig) {
    let docs = from_ndjson(text).docs;
    let mut from_values = Relation::load(&docs, config);
    let (mut from_text, report) =
        Relation::try_load_ondemand(text.as_bytes(), config, 2).expect("ondemand load");
    assert_eq!(report.docs, docs.len(), "{tag}: doc count");
    assert_eq!(report.skipped, 0, "{tag}: no malformed lines expected");
    assert_eq!(
        from_text.row_count(),
        from_values.row_count(),
        "{tag}: row count"
    );
    assert_save_identical(tag, &mut from_values, &mut from_text);
}

/// Small tiles and partitions so every workload spans multiple tiles and
/// multiple reordering partitions.
fn small(mode: StorageMode) -> TilesConfig {
    TilesConfig {
        tile_size: 64,
        partition_size: 4,
        ..TilesConfig::with_mode(mode)
    }
}

const MODES: [(StorageMode, &str); 4] = [
    (StorageMode::Tiles, "tiles"),
    (StorageMode::Sinew, "sinew"),
    (StorageMode::Jsonb, "jsonb"),
    (StorageMode::JsonText, "json"),
];

#[test]
fn twitter_save_identical_across_modes() {
    let d = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 600,
        evolving: true,
        delete_fraction: 0.12,
        seed: 7,
    });
    let text = to_ndjson(&d.docs);
    for (mode, name) in MODES {
        check(&format!("twitter-{name}"), &text, small(mode));
    }
}

#[test]
fn yelp_save_identical_across_modes() {
    let d = data::yelp::generate(data::yelp::YelpConfig {
        businesses: 40,
        seed: 11,
    });
    let text = to_ndjson(&d.docs);
    for (mode, name) in MODES {
        check(&format!("yelp-{name}"), &text, small(mode));
    }
}

#[test]
fn hackernews_save_identical_across_modes() {
    let docs = data::hackernews::generate(data::hackernews::HnConfig {
        items: 500,
        seed: 13,
    });
    let text = to_ndjson(&docs);
    for (mode, name) in MODES {
        check(&format!("hn-{name}"), &text, small(mode));
    }
}

#[test]
fn tpch_save_identical_shuffled() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.01,
        seed: 17,
    });
    // Shuffled interleaving is the reordering stress case (§6.4): both
    // ways in must make the exact same reordering moves.
    let docs = d.shuffled(99);
    let text = to_ndjson(&docs);
    check("tpch-shuffled", &text, small(StorageMode::Tiles));
}

/// Hand-written lines in forms the printer never emits, as a client
/// sending `.append` might: odd whitespace, `\u` escapes (a surrogate pair,
/// an escaped key), number spellings, duplicate keys, permuted key order,
/// and non-ASCII text.
const CLIENT_TEXT: &str = concat!(
    "{ \"id\" : 1 ,\t\"name\" :\"plain\" , \"tags\" : [ \"a\" ,\"b\" ] }  \n",
    r#"{"name":"caf\u00e9","id":2,"tags":[]}"#,
    "\n",
    r#"{"id":3,"name":"\ud83d\ude00 grin","score":1.50}"#,
    "\n",
    r#"{"\u0069d":4,"score":1E2,"name":"\u0041BC"}"#,
    "\n",
    r#"{"id":5,"score":-0,"neg":-0.0,"small":2.5e-3,"big":1.0E+2}"#,
    "\n",
    r#"{"id":6,"id":7,"name":"dup","name":"dup2"}"#,
    "\n",
    r#"{"tags":["x"],"score":2,"name":"permuted","id":8}"#,
    "\n",
    r#"{"id":9,"name":"日本語テキスト","nested":{"k":"ü","k":[1,2.0]}}"#,
    "\n",
    r#"{"id":10,"name":"esc \" \\ \/ \b\f\n\r\t","when":"2021-07-01"}"#,
    "\n",
    "\t {\"amount\":\"1.50\",\"id\":11,\"huge\":12345678901234567890}\r\n",
    "{\"id\":\r12,\n",
    "{\"id\" :12 , \"name\": \"\\u00FC\\u00fC\"}\n",
);

#[test]
fn client_text_save_identical_across_modes() {
    // Enough copies to span several tiles and reordering partitions.
    let text = CLIENT_TEXT.repeat(30);
    assert_eq!(
        from_ndjson(&text).skipped,
        30,
        "one malformed line per copy"
    );
    for (mode, name) in MODES {
        let config = small(mode);
        let from_values = Relation::load(&from_ndjson(&text).docs, config);
        let (from_text, report) =
            Relation::try_load_ondemand(text.as_bytes(), config, 2).expect("ondemand load");
        assert_eq!((report.docs, report.skipped), (330, 30), "{name}");
        assert!(
            from_values.to_bytes() == from_text.to_bytes(),
            "client-{name}: persisted images diverge"
        );
    }
}

#[test]
fn malformed_lines_counted_like_eager() {
    let text = "{\"a\":1}\n\nnot json\n{\"a\":2}\r\n{\"a\":3,\"b\":[1,2]}\n";
    let eager = from_ndjson(text);
    let (rel, report) =
        Relation::try_load_ondemand(text.as_bytes(), TilesConfig::default(), 1).unwrap();
    assert_eq!(report.docs, eager.docs.len());
    assert_eq!(report.skipped, eager.skipped);
    assert_eq!(report.errors, eager.errors);
    assert_eq!(rel.row_count(), 3);
    assert!(report.distinct_shapes >= 2, "two structural shapes present");
}
