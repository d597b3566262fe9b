//! The eager `Value` pipeline, kept only as the reference the on-demand
//! tile builder is tested against.
//!
//! Every tile in the system is formed from a tape by
//! `ondemand::build_tile_ondemand`. This module forms the same tiles the
//! way the paper's §3.1 describes them, one document tree at a time:
//!
//! 1. collect all typed leaf key paths of every tuple ([`collect_leaves`]),
//! 2. mine frequent itemsets over one dictionary-encoded transaction per
//!    document,
//! 3. extract the union of the maximal itemsets as columns, and encode the
//!    JSONB fallback from the tree.
//!
//! The tests below load each corpus both ways and demand byte-identical
//! persisted images in all four storage modes. That covers tile schemas,
//! mined itemsets, reordering decisions, dictionaries, Bloom filters,
//! sketches, and the JSONB encoding at once.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use jt_json::Value;
use jt_mining::{maximal, mine_weighted, Interner, MinerConfig};
use jt_stats::HyperLogLog;

use crate::column::ColumnChunk;
use crate::dict::PathDictionary;
use crate::header::{ColumnMeta, TileHeader};
use crate::path::KeyPath;
use crate::relation::{build_partitions, PartitionBuild, Relation};
use crate::reorder::reorder_partition;
use crate::tile::{collect_leaves, push_leaf, BuildTiming, ColType, DocLeaves, JsonbColumn, Tile};
use crate::{StorageMode, TilesConfig};

/// Builds one tile from document trees.
pub(crate) struct TileBuilder;

impl TileBuilder {
    /// Build one tile under `config`, mining its own schema unless
    /// `extraction_override` imposes one (Sinew's global schema).
    pub(crate) fn build(
        docs: &[Value],
        config: &TilesConfig,
        extraction_override: Option<&[(KeyPath, ColType)]>,
    ) -> Tile {
        let leaves: Vec<DocLeaves> = docs.iter().map(|d| collect_leaves(d, config)).collect();
        Self::build_timed(
            docs,
            &leaves,
            config,
            extraction_override,
            &mut BuildTiming::default(),
        )
    }

    /// [`TileBuilder::build`] over precomputed leaves, with phase timing.
    pub(crate) fn build_timed(
        docs: &[Value],
        leaves: &[DocLeaves],
        config: &TilesConfig,
        extraction_override: Option<&[(KeyPath, ColType)]>,
        timing: &mut BuildTiming,
    ) -> Tile {
        match config.mode {
            StorageMode::JsonText => {
                return Tile {
                    header: TileHeader::empty(config),
                    columns: Vec::new(),
                    jsonb: None,
                    text: Some(docs.iter().map(jt_json::to_string).collect()),
                    rows: docs.len(),
                    outliers: 0,
                };
            }
            StorageMode::Jsonb => {
                let t0 = Instant::now();
                let jsonb = JsonbColumn::from_docs(docs);
                timing.write_jsonb += t0.elapsed();
                return Tile {
                    header: TileHeader::empty(config),
                    columns: Vec::new(),
                    jsonb: Some(jsonb),
                    text: None,
                    rows: docs.len(),
                    outliers: 0,
                };
            }
            StorageMode::Sinew | StorageMode::Tiles => {}
        }

        // Dictionary + one transaction per document (§3.1 steps 1–2).
        let mut dict = PathDictionary::new();
        let mut transactions: Vec<Vec<jt_mining::Item>> = Vec::with_capacity(docs.len());
        for dl in leaves {
            let mut t: Vec<jt_mining::Item> = dl
                .leaves
                .iter()
                .map(|(p, l)| dict.intern(p, l.col_type()))
                .collect();
            t.sort_unstable();
            t.dedup();
            transactions.push(t);
        }

        let mine_start = Instant::now();
        let extraction: Vec<(KeyPath, ColType)> = match extraction_override {
            Some(cols) => cols.to_vec(),
            None => {
                // Weighted mining over the distinct transactions is
                // bit-identical to mining per document (jt-mining's
                // weighted-equivalence tests).
                let mut distinct = Interner::default();
                let ids: Vec<u32> = transactions
                    .iter()
                    .map(|t| distinct.intern(t.clone()))
                    .collect();
                let sets = mine_weighted(
                    &jt_mining::weighted_by_id(&distinct.into_distinct(), &ids),
                    MinerConfig {
                        min_support: config.min_support(docs.len()),
                        budget: config.budget,
                    },
                );
                let mut union: Vec<(KeyPath, ColType)> = Vec::new();
                for set in maximal(sets) {
                    for item in set.items {
                        let (p, t) = dict.resolve(item).clone();
                        if !union.contains(&(p.clone(), t)) {
                            union.push((p, t));
                        }
                    }
                }
                union.sort();
                union
            }
        };
        timing.mining += mine_start.elapsed();

        // Materialize columns (§3.1 step 3): the first leaf of the column's
        // path and type serves it.
        let extract_start = Instant::now();
        let mut columns: Vec<ColumnChunk> = extraction
            .iter()
            .map(|(_, t)| ColumnChunk::builder(*t))
            .collect();
        let mut other_typed = vec![false; extraction.len()];
        let mut sketches: Vec<HyperLogLog> =
            extraction.iter().map(|_| HyperLogLog::default()).collect();
        for dl in leaves {
            for (ci, (path, ty)) in extraction.iter().enumerate() {
                let mut found = None;
                for (p, l) in &dl.leaves {
                    if p == path {
                        if l.col_type() == *ty {
                            found = Some(l);
                            break;
                        }
                        other_typed[ci] = true;
                    }
                }
                match found {
                    Some(l) => {
                        push_leaf(&mut columns[ci], l);
                        if ci < config.hll_slots {
                            sketches[ci].insert(&l.sketch_bytes());
                        }
                    }
                    None => columns[ci].push_null(),
                }
            }
        }

        let metas: Vec<ColumnMeta> = extraction
            .iter()
            .enumerate()
            .map(|(ci, (path, ty))| ColumnMeta {
                path: path.clone(),
                col_type: *ty,
                nullable: columns[ci].null_count() > 0,
                other_typed: other_typed[ci],
            })
            .collect();

        let header = TileHeader::build(config, metas, leaves, &dict, &transactions, sketches);
        timing.extract += extract_start.elapsed();

        let t0 = Instant::now();
        let jsonb = JsonbColumn::from_docs(docs);
        timing.write_jsonb += t0.elapsed();

        Tile {
            header,
            columns,
            jsonb: Some(jsonb),
            text: None,
            rows: docs.len(),
            outliers: 0,
        }
    }
}

impl JsonbColumn {
    /// Encode document trees.
    pub(crate) fn from_docs(docs: &[Value]) -> Self {
        let mut col = JsonbColumn {
            offsets: Vec::with_capacity(docs.len() + 1),
            buffer: Vec::with_capacity(docs.len() * 64),
            moved: Vec::new(),
        };
        col.offsets.push(0);
        for d in docs {
            jt_jsonb::encode_into(d, &mut col.buffer);
            col.offsets.push(col.buffer.len() as u32);
        }
        col
    }
}

impl TileHeader {
    /// Assemble a header after extraction, one transaction per document.
    pub(crate) fn build(
        config: &TilesConfig,
        columns: Vec<ColumnMeta>,
        leaves: &[DocLeaves],
        dict: &PathDictionary,
        transactions: &[Vec<jt_mining::Item>],
        sketches: Vec<HyperLogLog>,
    ) -> Self {
        // Item frequencies (tuple counts, items already deduped per tuple).
        let mut item_count = vec![0u32; dict.len()];
        for t in transactions {
            for &it in t {
                item_count[it as usize] += 1;
            }
        }
        Self::assemble(
            config,
            columns,
            dict,
            item_count,
            leaves.iter().map(|dl| dl.seen_paths.as_slice()),
            sketches,
        )
    }
}

/// Sinew's global schema, one pass per document: typed paths whose table
/// frequency reaches `threshold`.
pub(crate) fn global_schema(leaves: &[DocLeaves], threshold: f64) -> Vec<(KeyPath, ColType)> {
    let mut counts: HashMap<(KeyPath, ColType), u32> = HashMap::new();
    for dl in leaves {
        let mut seen: Vec<(&KeyPath, ColType)> = Vec::new();
        for (p, l) in &dl.leaves {
            let t = l.col_type();
            if !seen.contains(&(p, t)) {
                seen.push((p, t));
                *counts.entry((p.clone(), t)).or_insert(0) += 1;
            }
        }
    }
    let min = (threshold * leaves.len() as f64).ceil() as u32;
    let mut schema: Vec<(KeyPath, ColType)> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min.max(1))
        .map(|(k, _)| k)
        .collect();
    schema.sort();
    schema
}

/// Build all tiles of one partition: optional reordering over one
/// transaction per document, then per-tile extraction.
pub(crate) fn build_partition(
    docs: &[Value],
    config: &TilesConfig,
    sinew_schema: Option<&[(KeyPath, ColType)]>,
) -> PartitionBuild {
    let mut timing = BuildTiming::default();
    let mut reorder_time = Duration::ZERO;
    let tile_size = config.tile_size.max(1);

    // Leaf collection is shared by reordering and extraction.
    let leaves: Vec<DocLeaves> = docs.iter().map(|d| collect_leaves(d, config)).collect();

    let order: Vec<usize> = if config.mode == StorageMode::Tiles && config.partition_size > 1 {
        let t0 = Instant::now();
        let mut dict = PathDictionary::new();
        let mut distinct = Interner::default();
        let shape_of: Vec<u32> = leaves
            .iter()
            .map(|dl| {
                let mut t: Vec<jt_mining::Item> = dl
                    .leaves
                    .iter()
                    .map(|(p, l)| dict.intern(p, l.col_type()))
                    .collect();
                t.sort_unstable();
                t.dedup();
                distinct.intern(t)
            })
            .collect();
        let order = reorder_partition(
            &distinct.into_distinct(),
            &shape_of,
            tile_size,
            config.threshold,
            config.partition_size,
            config.budget,
        );
        reorder_time = t0.elapsed();
        order
    } else {
        (0..docs.len()).collect()
    };

    let mut tiles = Vec::with_capacity(docs.len().div_ceil(tile_size));
    for chunk in order.chunks(tile_size) {
        let tile_docs: Vec<Value> = chunk.iter().map(|&i| docs[i].clone()).collect();
        let tile_leaves: Vec<DocLeaves> = chunk.iter().map(|&i| leaves[i].clone()).collect();
        tiles.push(TileBuilder::build_timed(
            &tile_docs,
            &tile_leaves,
            config,
            sinew_schema,
            &mut timing,
        ));
    }
    (tiles, timing, reorder_time)
}

/// The eager bulk load on `threads` workers: Sinew's global schema over
/// every document, then the shared partition driver over
/// [`build_partition`].
pub(crate) fn load(docs: &[Value], config: TilesConfig, threads: usize) -> Relation {
    let start = Instant::now();
    let sinew = (config.mode == StorageMode::Sinew).then(|| {
        let leaves: Vec<DocLeaves> = docs.iter().map(|d| collect_leaves(d, &config)).collect();
        global_schema(&leaves, config.threshold)
    });
    let (tiles, metrics) = build_partitions(docs.len(), &config, threads, start, |r| {
        build_partition(&docs[r], &config, sinew.as_deref())
    })
    .unwrap_or_else(|e| panic!("{e}"));
    Relation::from_tiles(config, tiles, metrics)
}

mod tests {
    use super::*;
    use jt_data::{from_ndjson, to_ndjson};

    /// Load the same text both ways under `config` and demand byte identity
    /// of the persisted images. Returns the number of documents loaded.
    fn check(tag: &str, text: &str, config: TilesConfig) -> usize {
        let docs = from_ndjson(text).docs;
        let eager = load(&docs, config, 2);
        let (ondemand, report) =
            Relation::try_load_ondemand(text.as_bytes(), config, 2).expect("ondemand load");
        assert_eq!(report.docs, docs.len(), "{tag}: doc count");
        assert!(
            eager.to_bytes() == ondemand.to_bytes(),
            "{tag}: persisted images diverge"
        );
        docs.len()
    }

    /// Small tiles and partitions so every corpus spans several tiles and
    /// several reordering partitions.
    fn small(mode: StorageMode) -> TilesConfig {
        TilesConfig {
            tile_size: 64,
            partition_size: 4,
            ..TilesConfig::with_mode(mode)
        }
    }

    const MODES: [StorageMode; 4] = [
        StorageMode::Tiles,
        StorageMode::Sinew,
        StorageMode::Jsonb,
        StorageMode::JsonText,
    ];

    fn check_modes(tag: &str, docs: &[Value]) {
        let text = to_ndjson(docs);
        for mode in MODES {
            check(&format!("{tag}-{mode:?}"), &text, small(mode));
        }
    }

    #[test]
    fn twitter_save_identical_across_modes() {
        let d = jt_data::twitter::generate(jt_data::twitter::TwitterConfig {
            docs: 600,
            evolving: true,
            delete_fraction: 0.12,
            seed: 7,
        });
        check_modes("twitter", &d.docs);
    }

    #[test]
    fn yelp_save_identical_across_modes() {
        let d = jt_data::yelp::generate(jt_data::yelp::YelpConfig {
            businesses: 40,
            seed: 11,
        });
        check_modes("yelp", &d.docs);
    }

    #[test]
    fn hackernews_save_identical_across_modes() {
        let docs = jt_data::hackernews::generate(jt_data::hackernews::HnConfig {
            items: 500,
            seed: 13,
        });
        check_modes("hn", &docs);
    }

    #[test]
    fn tpch_shuffled_save_identical_across_modes() {
        // Shuffled interleaving is the reordering stress case (§6.4): the
        // on-demand pipeline must reproduce the exact same reordering moves.
        let d = jt_data::tpch::generate(jt_data::tpch::TpchConfig {
            scale: 0.01,
            seed: 17,
        });
        check_modes("tpch-shuffled", &d.shuffled(99));
    }

    /// Hand-written lines in forms the printer never emits, as a client
    /// sending `.append` might: odd whitespace, `\u` escapes (a surrogate
    /// pair, an escaped key), number spellings, duplicate keys, permuted key
    /// order, non-ASCII text, and one malformed line.
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
        for mode in MODES {
            let loaded = check(&format!("client-{mode:?}"), &text, small(mode));
            assert_eq!(loaded, 330, "one malformed line per copy is skipped");
        }
    }

    #[test]
    fn recompute_matches_an_eager_rebuild() {
        // Half the rows of tile 0 move to a shape that overlaps none of its
        // columns, so §4.7 re-forms it from its rows.
        let docs: Vec<Value> = (0..96)
            .map(|i| jt_json::parse(&format!(r#"{{"id":{i},"name":"u{i}"}}"#)).unwrap())
            .collect();
        for mode in MODES {
            let config = TilesConfig {
                tile_size: 32,
                partition_size: 1,
                ..TilesConfig::with_mode(mode)
            };
            let mut rel = Relation::load(&docs, config);
            for r in 0..17 {
                let doc =
                    jt_json::parse(&format!(r#"{{"other":{r},"at":"2021-07-0{}"}}"#, r % 9 + 1));
                rel.update(r, &doc.unwrap());
            }
            assert_eq!(rel.outlier_rows(), 0, "{mode:?}: recomputed");
            let rows: Vec<Value> = (0..32).map(|r| rel.doc(r)).collect();
            let rebuilt = TileBuilder::build(&rows, &config, None);
            let image = |t: &Tile| {
                Relation::from_tiles(config, vec![t.clone()], Default::default()).to_bytes()
            };
            assert!(
                image(&rel.tiles()[0]) == image(&rebuilt),
                "{mode:?}: recomputed tile differs from the eager rebuild"
            );
        }
    }

    #[test]
    fn ondemand_load_matches_eager_load_at_every_thread_count() {
        let docs: Vec<Value> = (0..200)
            .map(|i| {
                let text = if i % 3 == 0 {
                    format!(
                        r#"{{"id":{i},"name":"user {i}","ts":"2021-07-0{}"}}"#,
                        i % 9 + 1
                    )
                } else {
                    format!(r#"{{"id":{i},"score":{i}.5,"tags":["a","b{i}"]}}"#)
                };
                jt_json::parse(&text).unwrap()
            })
            .collect();
        let text = to_ndjson(&docs);
        for mode in MODES {
            let config = TilesConfig {
                mode,
                tile_size: 16,
                partition_size: 4,
                ..TilesConfig::default()
            };
            let eager = load(&docs, config, 1).to_bytes();
            for threads in [1, 3] {
                let (ondemand, _) =
                    Relation::try_load_ondemand(text.as_bytes(), config, threads).unwrap();
                assert!(eager == ondemand.to_bytes(), "{mode:?} threads={threads}");
            }
        }
    }

    #[test]
    fn global_schema_weighted_matches_per_document() {
        // 7×{id,geo}, 3×{id}: weighted over the two shapes must equal the
        // per-document pass over the expanded table.
        let config = TilesConfig::default();
        let a = collect_leaves(&jt_json::parse(r#"{"id":1,"geo":1.5}"#).unwrap(), &config);
        let b = collect_leaves(&jt_json::parse(r#"{"id":2}"#).unwrap(), &config);
        let items = |dl: &DocLeaves| -> Vec<(KeyPath, ColType)> {
            dl.leaves
                .iter()
                .map(|(p, v)| (p.clone(), v.col_type()))
                .collect()
        };
        let (ia, ib) = (items(&a), items(&b));
        let mut expanded = vec![a; 7];
        expanded.extend(vec![b; 3]);
        let weighted = crate::sinew::global_schema_weighted(
            &[(ia.as_slice(), 7), (ib.as_slice(), 3)],
            10,
            0.6,
        );
        assert_eq!(weighted, global_schema(&expanded, 0.6));
        assert_eq!(weighted.len(), 2, "both paths at ≥60%: {weighted:?}");
    }
}
