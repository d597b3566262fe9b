//! Layout pin: the persisted image of five corpora loaded in
//! `StorageMode::Tiles` must keep the exact bytes it had before partition
//! reordering was rewritten (ISSUE 12). The save-identity suite in
//! `ondemand.rs` compares the eager and on-demand loaders, which share
//! `reorder_partition` — a reordering change that moves both the same way
//! passes there and fails here.
//!
//! The constants were recorded on the parent commit (2cf312a). After an
//! *intended* layout change, `JT_BLESS=1 cargo test --test layout_pin --
//! --nocapture` prints the new ones.

use json_tiles::data::{self, to_ndjson};
use json_tiles::json::Value;
use json_tiles::tiles::{crc32c, Relation, TilesConfig};

/// Load `docs` on demand under `config` and return the CRC32C of the image.
fn image_crc(docs: &[Value], config: TilesConfig) -> u32 {
    let text = to_ndjson(docs);
    let (rel, report) =
        Relation::try_load_ondemand(text.as_bytes(), config, 2).expect("ondemand load");
    assert_eq!(report.docs, docs.len());
    crc32c(&rel.to_bytes())
}

fn pin(tag: &str, docs: &[Value], config: TilesConfig, expected: u32) {
    let got = image_crc(docs, config);
    if std::env::var_os("JT_BLESS").is_some() {
        println!("{tag}: {got:#010x}");
        return;
    }
    assert_eq!(
        got, expected,
        "{tag}: saved bytes changed (got {got:#010x}); reordering or extraction moved"
    );
}

/// Paper defaults (tile 1024, partition 8): every corpus below spans at
/// least two partitions, the last one short.
fn paper() -> TilesConfig {
    TilesConfig::default()
}

/// Small tiles: many partitions, tail chunks, and `n < tile_size` tails.
fn small() -> TilesConfig {
    TilesConfig {
        tile_size: 96,
        partition_size: 4,
        ..TilesConfig::default()
    }
}

#[test]
fn twitter_layout_is_pinned() {
    let d = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 10_000,
        evolving: true,
        seed: 3,
        ..data::twitter::TwitterConfig::default()
    });
    pin("twitter/paper", &d.docs, paper(), 0x2dc4_5273);
    pin("twitter/small", &d.docs[..2_500], small(), 0x8dfb_78f3);
}

#[test]
fn yelp_layout_is_pinned() {
    let d = data::yelp::generate(data::yelp::YelpConfig {
        businesses: 500,
        seed: 5,
    });
    pin("yelp/paper", &d.docs, paper(), 0x0133_20f9);
    pin("yelp/small", &d.docs[..2_500], small(), 0xf19b_3db7);
}

#[test]
fn hackernews_layout_is_pinned() {
    let docs = data::hackernews::generate(data::hackernews::HnConfig {
        items: 10_000,
        seed: 7,
    });
    pin("hackernews/paper", &docs, paper(), 0x6ff0_3644);
    pin("hackernews/small", &docs[..2_500], small(), 0x7736_52a9);
}

#[test]
fn tpch_ordered_layout_is_pinned() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 1.0,
        seed: 11,
    });
    let docs = d.combined();
    pin("tpch-ordered/paper", &docs, paper(), 0xa160_50f8);
    pin("tpch-ordered/small", &docs[..2_500], small(), 0x6854_78c5);
}

#[test]
fn tpch_shuffled_layout_is_pinned() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 1.0,
        seed: 11,
    });
    let docs = d.shuffled(13);
    pin("tpch-shuffled/paper", &docs, paper(), 0x52f9_1a1b);
    pin("tpch-shuffled/small", &docs[..2_500], small(), 0x9043_7103);
}
