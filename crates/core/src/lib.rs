//! # jt-core — JSON tiles (paper §2–§4)
//!
//! The paper's primary contribution: split a collection of JSON documents
//! into fixed-size *tiles*, mine the locally frequent `(key path, type)`
//! itemsets of each tile, and materialize their union as typed relational
//! columns — falling back to an access-optimized binary representation
//! (`jt-jsonb`) for everything infrequent or mistyped. Neighbouring tiles
//! form *partitions* whose tuples are re-clustered by structure so that even
//! randomly interleaved document types become extractable (§3.2).
//!
//! The crate exposes:
//!
//! * [`Relation`] — a JSON column loaded under one of four storage modes
//!   (the paper's internal competitors): raw text, plain JSONB, Sinew-style
//!   global extraction, or JSON tiles.
//! * [`Tile`] / [`TileHeader`] — one chunk of rows: extracted column chunks,
//!   the per-tile header (extracted paths, types, nullability, Bloom filter
//!   of non-extracted paths, path frequencies, HLL sketches), and the binary
//!   fallback documents.
//! * [`KeyPath`] / [`ColType`] — typed key paths; itemset entries are
//!   `(path, type)` pairs per §3.4.
//! * [`RelationStats`] — the relation-level frequency counters and merged
//!   HyperLogLog sketches the optimizer consumes (§4.6).
//! * [`extract_arrays`] — high-cardinality array extraction into a side
//!   relation (the `Tiles-*` variant of §3.5 / §6.3).
//!
//! ```
//! use jt_core::{Relation, TilesConfig, StorageMode, AccessType};
//! let docs: Vec<_> = (0..100)
//!     .map(|i| jt_json::parse(&format!(r#"{{"id": {i}, "user": {{"name": "u{i}"}}}}"#)).unwrap())
//!     .collect();
//! let rel = Relation::load(&docs, TilesConfig::default());
//! let tile = &rel.tiles()[0];
//! let col = tile.find_column(&jt_core::KeyPath::keys(&["id"]), AccessType::Int).unwrap();
//! assert_eq!(tile.column(col).get_i64(5), Some(5));
//! ```

mod arrays;
mod column;
mod crc32c;
mod datetime;
mod dict;
#[cfg(test)]
mod eager;
mod header;
mod ondemand;
mod path;
mod persist;
mod relation;
mod reorder;
mod sinew;
mod tile;

pub use arrays::{extract_arrays, ArrayExtractionSpec};
pub use column::{ColumnChunk, ColumnData, NullBitmap};
pub use crc32c::{crc32c, crc32c_append};
pub use datetime::{format_timestamp, parse_timestamp, timestamp_year, Timestamp};
pub use dict::PathDictionary;
pub use header::{ColumnMeta, TileHeader};
pub use ondemand::{shape_hash, IngestReport};
pub use path::{KeyPath, PathSeg};
pub use persist::{CorruptTilePolicy, OpenOptions, PersistError};
pub use relation::{LoadError, LoadMetrics, Relation, RelationStats, SectionIo, StorageReport};
pub use reorder::reorder_partition;
pub use tile::{
    collect_leaves, AccessType, BuildTiming, ColType, DocLeaves, JsonbColumn, LeafValue,
    SkipEvidence, Tile,
};

/// Storage modes: the paper's internal competitors (§6, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Raw JSON text; every access re-parses the document.
    JsonText,
    /// Per-document binary JSON (§5); no columnar extraction.
    Jsonb,
    /// Sinew [57]: one global schema mined over the whole table at the
    /// original 60% table frequency; eager extraction after load.
    Sinew,
    /// JSON tiles: per-tile extraction with partition reordering.
    Tiles,
}

/// Configuration for loading a relation (§6 defaults: tile size 2^10,
/// partition size 8, extraction threshold 60%).
#[derive(Debug, Clone, Copy)]
pub struct TilesConfig {
    /// Storage mode for this relation.
    pub mode: StorageMode,
    /// Tuples per tile.
    pub tile_size: usize,
    /// Tiles per reordering partition (1 disables reordering).
    pub partition_size: usize,
    /// Extraction threshold in (0, 1].
    pub threshold: f64,
    /// Itemset budget `u` of Eq. 1.
    pub budget: u64,
    /// §4.9 date/time extraction (the `no Date` ablation turns this off).
    pub date_extraction: bool,
    /// Max leading array elements considered for extraction (§3.5).
    pub max_array_elems: usize,
    /// Relation-level frequency counter slots (§4.6; paper suggests 256).
    pub freq_slots: usize,
    /// Relation-level HLL sketch slots (§4.6; paper suggests 64).
    pub hll_slots: usize,
}

impl Default for TilesConfig {
    fn default() -> Self {
        TilesConfig {
            mode: StorageMode::Tiles,
            tile_size: 1 << 10,
            partition_size: 8,
            threshold: 0.6,
            budget: 1 << 16,
            date_extraction: true,
            max_array_elems: 8,
            freq_slots: 256,
            hll_slots: 64,
        }
    }
}

impl TilesConfig {
    /// Config for one of the paper's competitor modes with shared defaults.
    pub fn with_mode(mode: StorageMode) -> Self {
        TilesConfig {
            mode,
            ..TilesConfig::default()
        }
    }

    /// Minimum support count for a tile of `rows` tuples.
    pub(crate) fn min_support(&self, rows: usize) -> u32 {
        ((self.threshold * rows as f64).ceil() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TilesConfig::default();
        assert_eq!(c.tile_size, 1024);
        assert_eq!(c.partition_size, 8);
        assert!((c.threshold - 0.6).abs() < 1e-9);
        assert_eq!(c.freq_slots, 256);
        assert_eq!(c.hll_slots, 64);
    }

    #[test]
    fn min_support_rounds_up() {
        let c = TilesConfig::default();
        assert_eq!(c.min_support(4), 3, "60% of 4 → 2.4 → 3");
        assert_eq!(c.min_support(1024), 615);
        assert_eq!(c.min_support(0), 1, "never zero");
    }
}
