//! The per-tile header (paper §4.4).
//!
//! "Each tile needs its own header describing its seen and materialized
//! data": the extracted key paths with their value types, whether a path is
//! also used with another type and whether nulls are possible, the key
//! paths that were *not* extracted (in a Bloom filter), the path-frequency
//! database that fed the itemset miner, and the per-column HyperLogLog
//! sketches that later aggregate into relation statistics (§4.6).

use crate::dict::PathDictionary;
use crate::path::KeyPath;
use crate::tile::ColType;
use crate::TilesConfig;
use jt_stats::{BloomFilter, HyperLogLog};
use std::collections::HashMap;

/// Metadata of one extracted column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// The extracted key path.
    pub path: KeyPath,
    /// The extracted primitive type (§3.4).
    pub col_type: ColType,
    /// Whether any row of the chunk is null (absent / mistyped / JSON
    /// null). When false, scans skip the binary fallback entirely.
    pub nullable: bool,
    /// Whether the same path also occurs with a different primitive type in
    /// this tile — required for correctness when serving casts (§4.4).
    pub other_typed: bool,
}

/// The header of one tile.
#[derive(Debug, Clone)]
pub struct TileHeader {
    /// Extracted column metadata, aligned with the tile's column chunks.
    pub columns: Vec<ColumnMeta>,
    /// path → indices into `columns` (one per type variant).
    pub(crate) path_index: HashMap<KeyPath, Vec<usize>>,
    /// Bloom filter over every path seen in the tile that is *not*
    /// extracted (plus interior paths). Never produces false negatives, so
    /// tile skipping (§4.8) is safe.
    pub seen_paths: BloomFilter,
    /// `(path display form, tuple count)` — the mining database, kept for
    /// statistics aggregation (§4.6).
    pub path_frequencies: Vec<(String, u32)>,
    /// Per-extracted-column value sketches, aligned with `columns` (capped
    /// at `config.hll_slots`).
    pub sketches: Vec<HyperLogLog>,
}

impl TileHeader {
    /// Header for modes without extraction (text / plain JSONB).
    pub fn empty(_config: &TilesConfig) -> Self {
        TileHeader {
            columns: Vec::new(),
            path_index: HashMap::new(),
            seen_paths: BloomFilter::new(1, 0.01),
            path_frequencies: Vec::new(),
            sketches: Vec::new(),
        }
    }

    /// Assemble a header from weighted transactions (one per distinct
    /// document shape × occurrence count). `seen_path_lists` yields the
    /// seen-path list of each distinct shape present in the tile; the Bloom
    /// filter only depends on the *set* of non-extracted paths, so
    /// per-shape lists produce the same filter as per-document lists.
    pub fn build_weighted<'a>(
        config: &TilesConfig,
        columns: Vec<ColumnMeta>,
        dict: &PathDictionary,
        weighted: &[(Vec<jt_mining::Item>, u32)],
        seen_path_lists: impl Iterator<Item = &'a [KeyPath]>,
        sketches: Vec<HyperLogLog>,
    ) -> Self {
        let mut item_count = vec![0u32; dict.len()];
        for (t, w) in weighted {
            for &it in t {
                item_count[it as usize] += *w;
            }
        }
        Self::assemble(config, columns, dict, item_count, seen_path_lists, sketches)
    }

    /// Shared tail of the on-demand builder and the eager test reference:
    /// path frequencies from per-item tuple counts, Bloom filter over the
    /// non-extracted seen paths, sketch cap.
    pub(crate) fn assemble<'a>(
        config: &TilesConfig,
        columns: Vec<ColumnMeta>,
        dict: &PathDictionary,
        item_count: Vec<u32>,
        seen_path_lists: impl Iterator<Item = &'a [KeyPath]>,
        sketches: Vec<HyperLogLog>,
    ) -> Self {
        let mut path_index: HashMap<KeyPath, Vec<usize>> = HashMap::new();
        for (i, meta) in columns.iter().enumerate() {
            path_index.entry(meta.path.clone()).or_default().push(i);
        }

        // Aggregate per path across type variants: the §4.6 frequency
        // database counts how many tuples contain the key path.
        let mut per_path: HashMap<String, u32> = HashMap::new();
        for (item, path, _ty) in dict.iter() {
            *per_path.entry(path.to_string()).or_insert(0) += item_count[item as usize];
        }
        let mut path_frequencies: Vec<(String, u32)> = per_path.into_iter().collect();
        path_frequencies.sort();

        // Bloom filter over non-extracted paths (leaves and interior).
        let mut non_extracted: Vec<Vec<u8>> = Vec::new();
        let extracted: std::collections::HashSet<&KeyPath> =
            columns.iter().map(|m| &m.path).collect();
        let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        for list in seen_path_lists {
            for p in list {
                if !extracted.contains(p) {
                    let bytes = p.canonical_bytes();
                    if seen.insert(bytes.clone()) {
                        non_extracted.push(bytes);
                    }
                }
            }
        }
        let mut bloom = BloomFilter::new(non_extracted.len().max(8), 0.01);
        for b in &non_extracted {
            bloom.insert(b);
        }

        let mut sketches = sketches;
        sketches.truncate(config.hll_slots);

        TileHeader {
            columns,
            path_index,
            seen_paths: bloom,
            path_frequencies,
            sketches,
        }
    }

    /// Reassemble a header from persisted parts, rebuilding the path index.
    pub(crate) fn from_parts(
        columns: Vec<ColumnMeta>,
        seen_paths: BloomFilter,
        path_frequencies: Vec<(String, u32)>,
        sketches: Vec<HyperLogLog>,
    ) -> TileHeader {
        let mut path_index: HashMap<KeyPath, Vec<usize>> = HashMap::new();
        for (i, meta) in columns.iter().enumerate() {
            path_index.entry(meta.path.clone()).or_default().push(i);
        }
        TileHeader {
            columns,
            path_index,
            seen_paths,
            path_frequencies,
            sketches,
        }
    }

    /// Column indices whose path equals `path` (different type variants).
    pub fn columns_for_path(&self, path: &KeyPath) -> Option<&Vec<usize>> {
        self.path_index.get(path)
    }

    /// Approximate heap bytes of the header itself (Table 6 accounting —
    /// "the small static overhead per JSON tile" of §6.7).
    pub fn byte_size(&self) -> usize {
        let cols: usize = self
            .columns
            .iter()
            .map(|m| m.path.canonical_bytes().len() + 8)
            .sum();
        let freqs: usize = self.path_frequencies.iter().map(|(s, _)| s.len() + 4).sum();
        let sketches: usize = self.sketches.iter().map(|s| s.num_registers()).sum();
        cols + freqs + sketches + self.seen_paths.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::Tile;
    use crate::{Relation, StorageMode, TilesConfig};
    use jt_json::parse;

    fn docs(n: usize) -> Vec<jt_json::Value> {
        (0..n)
            .map(|i| {
                parse(&format!(
                    r#"{{"id": {i}, "name": "u{i}", "extra{}": 1}}"#,
                    i % 7
                ))
                .unwrap()
            })
            .collect()
    }

    /// `docs` formed into a single tile under `config`.
    fn one_tile(docs: &[jt_json::Value], config: TilesConfig) -> Tile {
        let config = TilesConfig {
            tile_size: docs.len(),
            partition_size: 1,
            ..config
        };
        let rel = Relation::load(docs, config);
        assert_eq!(rel.tiles().len(), 1);
        rel.tiles()[0].clone()
    }

    #[test]
    fn header_indexes_extracted_paths() {
        let tile = one_tile(&docs(100), TilesConfig::default());
        let id_path = KeyPath::keys(&["id"]);
        assert!(
            tile.header.columns_for_path(&id_path).is_some(),
            "id extracted"
        );
        // The rare extraN keys (1/7 frequency < 60%) are not extracted but
        // must be in the Bloom filter.
        let extra = KeyPath::keys(&["extra3"]);
        assert!(tile.header.columns_for_path(&extra).is_none());
        assert!(
            tile.may_contain_path(&extra),
            "bloom holds non-extracted paths"
        );
        // A never-seen path is definitely absent.
        assert!(!tile.may_contain_path(&KeyPath::keys(&["nope_never"])));
    }

    #[test]
    fn path_frequencies_recorded() {
        let tile = one_tile(&docs(70), TilesConfig::default());
        let id = tile
            .header
            .path_frequencies
            .iter()
            .find(|(p, _)| p == "id")
            .expect("id counted");
        assert_eq!(id.1, 70);
        let extra0 = tile
            .header
            .path_frequencies
            .iter()
            .find(|(p, _)| p == "extra0")
            .expect("extra0 counted");
        assert_eq!(extra0.1, 10);
    }

    #[test]
    fn empty_mode_headers_have_no_columns() {
        let tile = one_tile(&docs(10), TilesConfig::with_mode(StorageMode::Jsonb));
        assert!(tile.header.columns.is_empty());
        assert!(tile.columns().is_empty());
        assert!(tile.doc_jsonb(0).is_some());
    }

    #[test]
    fn sketches_aligned_with_columns() {
        let tile = one_tile(&docs(64), TilesConfig::default());
        assert_eq!(tile.header.sketches.len(), tile.header.columns.len());
        // id is unique per row: its sketch estimates ≈ 64 distinct.
        let id_col = tile
            .find_column(&KeyPath::keys(&["id"]), crate::AccessType::Int)
            .unwrap();
        let est = tile.header.sketches[id_col].estimate();
        assert!((est - 64.0).abs() < 12.0, "estimate {est}");
    }
}
