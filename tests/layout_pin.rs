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
//!
//! The append pins do the same for published generations: a bulk load
//! followed by `Relation::with_appended` batches, in all four modes. The
//! insert, recompute and `Value`-load pins cover the other ways tiles are
//! formed — `insert`/`flush`, §4.7 `Tile::recompute` and
//! `Relation::load(&[Value])` — with constants recorded while those paths
//! still ran the eager tree builder.

use json_tiles::data::{self, to_ndjson};
use json_tiles::json::Value;
use json_tiles::tiles::{crc32c, Relation, StorageMode, TilesConfig};

/// Load `docs` on demand under `config` and pin the CRC32C of the image.
fn pin(tag: &str, docs: &[Value], config: TilesConfig, expected: u32) {
    let text = to_ndjson(docs);
    let (rel, report) =
        Relation::try_load_ondemand(text.as_bytes(), config, 2).expect("ondemand load");
    assert_eq!(report.docs, docs.len());
    pin_crc(tag, &rel, expected);
}

fn pin_crc(tag: &str, rel: &Relation, expected: u32) {
    let got = crc32c(&rel.to_bytes());
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

/// Small tiles for the append pins: one partition holds 64 × 4 = 256 rows,
/// so a 250-document batch is one partition and a 600-document one is not.
fn append_config(mode: StorageMode) -> TilesConfig {
    TilesConfig {
        tile_size: 64,
        partition_size: 4,
        ..TilesConfig::with_mode(mode)
    }
}

/// Documents loaded in bulk before any batch is published.
const APPEND_BASE: usize = 1_000;

/// An on-demand bulk load of the first [`APPEND_BASE`] documents, then one
/// published generation per batch size, taking the next documents in order.
fn publish_batches(docs: &[Value], batches: &[usize], mode: StorageMode) -> Relation {
    let config = append_config(mode);
    let text = to_ndjson(&docs[..APPEND_BASE]);
    let (mut rel, _) = Relation::try_load_ondemand(text.as_bytes(), config, 2).unwrap();
    let mut at = APPEND_BASE;
    for &n in batches {
        let batch = to_ndjson(&docs[at..at + n]);
        rel = rel.with_appended(batch.as_bytes()).expect("publish");
        at += n;
    }
    rel
}

/// Per storage mode: the image CRC after publishing batches of 25 and 250
/// documents, and after publishing one batch of 600.
type AppendPins = [(StorageMode, u32, u32); 4];

/// Every CRC equals the eager pipeline's publish of documents parsed from
/// the same lines, except the 600-document one in Tiles mode: the eager
/// publish reordered a batch as one partition of any size, while the
/// on-demand one splits it into partitions like a bulk load, whose tiles
/// it must equal.
fn pin_appends(tag: &str, docs: &[Value], pins: AppendPins) {
    for (mode, small, oversize) in pins {
        let rel = publish_batches(docs, &[25, 250], mode);
        pin_crc(&format!("{tag}/{mode:?}/25+250"), &rel, small);

        let rel = publish_batches(docs, &[600], mode);
        pin_crc(&format!("{tag}/{mode:?}/600"), &rel, oversize);
        // The tiles a publish forms do not depend on the carried ones, so
        // publishing onto an empty relation must give the bulk load's image.
        let batch = to_ndjson(&docs[APPEND_BASE..APPEND_BASE + 600]);
        let published = Relation::new(append_config(mode))
            .with_appended(batch.as_bytes())
            .expect("publish");
        let (bulk, _) =
            Relation::try_load_ondemand(batch.as_bytes(), append_config(mode), 2).unwrap();
        assert!(
            published.to_bytes() == bulk.to_bytes(),
            "{tag}/{mode:?}: a published batch differs from its bulk load"
        );
    }
}

#[test]
fn twitter_append_layout_is_pinned() {
    let d = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 1_600,
        evolving: true,
        seed: 3,
        ..data::twitter::TwitterConfig::default()
    });
    pin_appends(
        "twitter",
        &d.docs,
        [
            (StorageMode::Tiles, 0xda28_d08d, 0xaa98_9d84),
            (StorageMode::Sinew, 0x6937_2914, 0xf687_88e6),
            (StorageMode::Jsonb, 0x633f_15cc, 0x349a_fda2),
            (StorageMode::JsonText, 0x9dae_0148, 0xc5ec_5eda),
        ],
    );
}

#[test]
fn hackernews_append_layout_is_pinned() {
    let docs = data::hackernews::generate(data::hackernews::HnConfig {
        items: 1_600,
        seed: 7,
    });
    pin_appends(
        "hackernews",
        &docs,
        [
            (StorageMode::Tiles, 0x5ea0_1c93, 0x594e_acbd),
            (StorageMode::Sinew, 0xf619_d9e7, 0x3943_49a3),
            (StorageMode::Jsonb, 0x0d9c_bdc3, 0x9933_97db),
            (StorageMode::JsonText, 0x6635_a730, 0x03da_f4f1),
        ],
    );
}

/// The four storage modes with the small-tile config of the append pins.
const MODES: [StorageMode; 4] = [
    StorageMode::Tiles,
    StorageMode::Sinew,
    StorageMode::Jsonb,
    StorageMode::JsonText,
];

#[test]
fn insert_layout_is_pinned() {
    // 700 inserts auto-flush two full 256-row partitions; `flush` forms the
    // 188-row tail.
    let d = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 700,
        evolving: true,
        seed: 3,
        ..data::twitter::TwitterConfig::default()
    });
    let pins = [0xebc4_bb4fu32, 0x6c7a_a699, 0x7305_0d4d, 0xca04_7b1d];
    for (mode, expected) in MODES.into_iter().zip(pins) {
        let mut rel = Relation::new(append_config(mode));
        for doc in &d.docs {
            rel.insert(doc.clone());
        }
        assert_eq!(rel.pending_rows(), 700 - 512, "{mode:?}");
        rel.flush();
        assert_eq!(rel.row_count(), 700, "{mode:?}");
        pin_crc(&format!("insert/{mode:?}"), &rel, expected);
    }
}

#[test]
fn recompute_layout_is_pinned() {
    // Twitter rows of one tile are replaced by HackerNews items, which
    // overlap none of its extracted columns, until §4.7 re-forms the tile.
    let base = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 1_000,
        evolving: true,
        seed: 3,
        ..data::twitter::TwitterConfig::default()
    });
    let items = data::hackernews::generate(data::hackernews::HnConfig { items: 64, seed: 7 });
    let text = to_ndjson(&base.docs);
    for (mode, expected) in [
        (StorageMode::Tiles, 0x1e0d_803eu32),
        (StorageMode::Sinew, 0x433e_da97),
    ] {
        let (mut rel, _) =
            Relation::try_load_ondemand(text.as_bytes(), append_config(mode), 2).unwrap();
        let first = rel.tile_offset(1);
        let mut updated = 0;
        loop {
            rel.update(first + updated, &items[updated]);
            updated += 1;
            if rel.outlier_rows() == 0 {
                break;
            }
            assert!(updated < rel.tiles()[1].len(), "{mode:?}: never recomputed");
        }
        assert_eq!(updated, 33, "{mode:?}: a majority of 64 rows");
        pin_crc(&format!("recompute/{mode:?}"), &rel, expected);
    }
}

#[test]
fn value_load_layout_is_pinned() {
    let tweets = data::twitter::generate(data::twitter::TwitterConfig {
        docs: 1_000,
        evolving: true,
        seed: 3,
        ..data::twitter::TwitterConfig::default()
    })
    .docs;
    let items = data::hackernews::generate(data::hackernews::HnConfig {
        items: 1_000,
        seed: 7,
    });
    let pins = [
        (
            "twitter",
            &tweets,
            [0x4213_d20cu32, 0xb2e2_fc01, 0x5203_b524, 0xbad9_acba],
        ),
        (
            "hackernews",
            &items,
            [0xca8d_e348, 0x9c3a_01a6, 0x7a7e_cf95, 0x6b8b_df6a],
        ),
    ];
    for (tag, docs, crcs) in pins {
        for (mode, expected) in MODES.into_iter().zip(crcs) {
            let rel = Relation::load(docs, append_config(mode));
            pin_crc(&format!("load/{tag}/{mode:?}"), &rel, expected);
        }
    }
}

#[test]
fn tpch_shuffled_append_layout_is_pinned() {
    let docs = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.2,
        seed: 11,
    })
    .shuffled(13);
    pin_appends(
        "tpch-shuffled",
        &docs,
        [
            (StorageMode::Tiles, 0xc1de_3261, 0xc18b_8855),
            (StorageMode::Sinew, 0xacdf_f39d, 0x5514_08d0),
            (StorageMode::Jsonb, 0x9545_c539, 0xc4e4_b375),
            (StorageMode::JsonText, 0x569c_8b88, 0xaa48_c8e1),
        ],
    );
}
