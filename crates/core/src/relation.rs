//! Relations: tile collections with load pipeline, statistics, and updates
//! (paper §3.2, §4.4, §4.6, §4.7).

use crate::tile::{BuildTiming, Tile};
use crate::TilesConfig;
use jt_json::Value;
use jt_stats::{FrequencyCounters, HyperLogLog};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Per-section-kind I/O breakdown of opening a persisted relation: how many
/// framed sections of this kind were read, their on-disk vs decoded sizes,
/// and how the wall time split between checksum verification and
/// decompression.
#[derive(Debug, Default, Clone, Copy)]
pub struct SectionIo {
    /// Framed sections of this kind read (including damaged ones).
    pub sections: u64,
    /// Bytes as stored on disk (compressed when the writer chose LZ4).
    pub bytes_stored: u64,
    /// Bytes after decompression (equals `bytes_stored` for raw sections).
    pub bytes_raw: u64,
    /// Time spent verifying CRC32C checksums.
    pub crc: Duration,
    /// Time spent decompressing LZ4 payloads.
    pub decompress: Duration,
}

impl SectionIo {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &SectionIo) {
        self.sections += other.sections;
        self.bytes_stored += other.bytes_stored;
        self.bytes_raw += other.bytes_raw;
        self.crc += other.crc;
        self.decompress += other.decompress;
    }

    /// Publish as `{prefix}.sections`, `{prefix}.bytes_stored`,
    /// `{prefix}.bytes_raw` counters and `{prefix}.crc_ns`,
    /// `{prefix}.decompress_ns` histogram observations. Names are built at
    /// runtime, so this goes through the registry rather than the
    /// handle-caching macros; callers gate on [`jt_obs::enabled`].
    fn publish(&self, prefix: &str) {
        let g = jt_obs::global();
        g.counter(&format!("{prefix}.sections")).add(self.sections);
        g.counter(&format!("{prefix}.bytes_stored"))
            .add(self.bytes_stored);
        g.counter(&format!("{prefix}.bytes_raw"))
            .add(self.bytes_raw);
        g.histogram(&format!("{prefix}.crc_ns"))
            .record(self.crc.as_nanos().min(u64::MAX as u128) as u64);
        g.histogram(&format!("{prefix}.decompress_ns"))
            .record(self.decompress.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Wall-clock breakdown of one load (Figures 11, 16, 17), plus — for
/// relations opened from disk — the tiles the reader had to quarantine and
/// the per-section I/O split of the open itself.
#[derive(Debug, Default, Clone)]
pub struct LoadMetrics {
    /// Total elapsed load time.
    pub total: Duration,
    /// Itemset mining.
    pub mining: Duration,
    /// Partition reordering.
    pub reorder: Duration,
    /// Binary JSONB encoding.
    pub write_jsonb: Duration,
    /// Column materialization + header construction.
    pub extract: Duration,
    /// Rows loaded.
    pub rows: usize,
    /// Tile-formation partitions built (each is an independent work unit:
    /// mining, reordering, extraction run per partition).
    pub partitions: usize,
    /// Worker threads the partitions were built on (1 for sequential
    /// loads and incremental flushes).
    pub threads: usize,
    /// Original indices of tiles skipped as corrupt when the relation was
    /// opened with [`crate::CorruptTilePolicy::Skip`]. Empty for in-memory
    /// loads and undamaged files.
    pub quarantined: Vec<usize>,
    /// I/O breakdown of the file-header section (disk opens only).
    pub open_header: SectionIo,
    /// I/O breakdown of the statistics section (disk opens only).
    pub open_stats: SectionIo,
    /// I/O breakdown of all tile sections (disk opens only).
    pub open_tiles: SectionIo,
}

impl LoadMetrics {
    /// Loading throughput in tuples/second (Figure 17).
    pub fn tuples_per_sec(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.rows as f64 / self.total.as_secs_f64()
    }

    /// Fold a later load's metrics (a flush or a publish) into these totals.
    fn add(&mut self, delta: &LoadMetrics) {
        self.total += delta.total;
        self.mining += delta.mining;
        self.reorder += delta.reorder;
        self.write_jsonb += delta.write_jsonb;
        self.extract += delta.extract;
        self.rows += delta.rows;
        self.partitions += delta.partitions;
        self.threads = self.threads.max(delta.threads);
    }

    /// Report this load to the global observability registry under the
    /// `load.*` and `persist.open.*` names. No-op unless
    /// [`jt_obs::enabled`]; called once per bulk load / flush / open, never
    /// on a hot path.
    pub fn publish(&self) {
        if !jt_obs::enabled() {
            return;
        }
        let g = jt_obs::global();
        g.counter("load.rows").add(self.rows as u64);
        g.counter("load.tiles_quarantined")
            .add(self.quarantined.len() as u64);
        if self.partitions > 0 {
            g.counter("load.partitions").add(self.partitions as u64);
            g.counter("load.threads").add(self.threads as u64);
        }
        for (name, d) in [
            ("load.total_ns", self.total),
            ("load.mining_ns", self.mining),
            ("load.reorder_ns", self.reorder),
            ("load.write_jsonb_ns", self.write_jsonb),
            ("load.extract_ns", self.extract),
        ] {
            if !d.is_zero() {
                g.histogram(name)
                    .record(d.as_nanos().min(u64::MAX as u128) as u64);
            }
        }
        if self.open_header.sections > 0 {
            self.open_header.publish("persist.open.header");
        }
        if self.open_stats.sections > 0 {
            self.open_stats.publish("persist.open.stats");
        }
        if self.open_tiles.sections > 0 {
            self.open_tiles.publish("persist.open.tiles");
        }
    }
}

/// A bulk-load failure: a loader thread (or the in-line build on
/// single-threaded loads) panicked while forming tiles. The panic payload
/// message and the first document index of the failing partition are
/// preserved so callers can report *which* input broke the load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// Index of the first partition the failing worker owned.
    pub partition: usize,
    /// The panic payload, downcast to text (`"<non-string panic>"` when
    /// the payload was neither `String` nor `&str`).
    pub message: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loader thread panicked on partition {}: {}",
            self.partition, self.message
        )
    }
}

impl std::error::Error for LoadError {}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Test-only fault injection: a top-level key that makes the partition
/// holding its document panic in the loader, so the [`LoadError`] capture
/// is exercised deterministically at every thread count.
#[cfg(test)]
pub(crate) const TEST_PANIC_KEY: &str = "__jt_test_loader_panic__";

/// One partition's build: its tiles, their build timing, and the time
/// spent reordering.
pub(crate) type PartitionBuild = (Vec<Tile>, BuildTiming, Duration);

/// The partition fan-out of the loader. Splits `rows` documents
/// into `tile_size × partition_size` ranges, builds each with `build` on up
/// to `threads` scoped workers ("each thread is dedicated to a disjoint
/// subset of the data"), and merges the tiles in document order, so the
/// result is identical at every thread count. A panicking build is
/// captured as [`LoadError`] naming its partition, and the partial result
/// is dropped. Returns the tiles and the load's metrics, `total` measured
/// from `start`; publishes them along with each partition's wall time.
pub(crate) fn build_partitions(
    rows: usize,
    config: &TilesConfig,
    threads: usize,
    start: Instant,
    build: impl Fn(Range<usize>) -> PartitionBuild + Sync,
) -> Result<(Vec<Tile>, LoadMetrics), LoadError> {
    let partition_rows = config.tile_size.max(1) * config.partition_size.max(1);
    let bounds: Vec<Range<usize>> = (0..rows)
        .step_by(partition_rows)
        .map(|s| s..(s + partition_rows).min(rows))
        .collect();
    let threads = threads.max(1).min(bounds.len().max(1));

    // One worker's contiguous run of partitions, stopping at its first
    // failure; each build carries its wall time.
    type Built = Result<Vec<(PartitionBuild, Duration)>, LoadError>;
    let run = |first: usize, ranges: &[Range<usize>]| -> Built {
        ranges
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let t0 = Instant::now();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(r.clone())))
                    .map(|built| (built, t0.elapsed()))
                    .map_err(|payload| LoadError {
                        partition: first + i,
                        message: panic_message(payload.as_ref()),
                    })
            })
            .collect()
    };
    let workers: Vec<Built> = if threads == 1 {
        vec![run(0, &bounds)]
    } else {
        let per_worker = bounds.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .chunks(per_worker)
                .enumerate()
                .map(|(t, ranges)| {
                    let run = &run;
                    scope.spawn(move || run(t * per_worker, ranges))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("panics are caught per partition"))
                .collect()
        })
    };
    let workers = workers.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut tiles = Vec::new();
    let mut timing = BuildTiming::default();
    let mut reorder = Duration::ZERO;
    for ((t, bt, rt), wall) in workers.into_iter().flatten() {
        tiles.extend(t);
        timing.add(&bt);
        reorder += rt;
        if jt_obs::enabled() {
            jt_obs::global()
                .histogram("load.partition_build_ns")
                .record(wall.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
    let metrics = LoadMetrics {
        total: start.elapsed(),
        mining: timing.mining,
        reorder,
        write_jsonb: timing.write_jsonb,
        extract: timing.extract,
        rows,
        partitions: bounds.len(),
        threads,
        ..LoadMetrics::default()
    };
    metrics.publish();
    jt_obs::counter_add!("load.tiles_built", tiles.len() as u64);
    Ok((tiles, metrics))
}

/// Relation-level statistics for the optimizer (§4.6): 256 bounded
/// frequency counters plus up to 64 merged HyperLogLog sketches, both with
/// the paper's recency/frequency replacement policy.
#[derive(Debug, Clone)]
pub struct RelationStats {
    pub(crate) freq: FrequencyCounters,
    pub(crate) sketches: Vec<(String, HyperLogLog, u64)>,
    pub(crate) hll_slots: usize,
    pub(crate) rows: usize,
}

impl RelationStats {
    pub(crate) fn new(config: &TilesConfig) -> Self {
        RelationStats {
            freq: FrequencyCounters::new(config.freq_slots.max(1)),
            sketches: Vec::new(),
            hll_slots: config.hll_slots.max(1),
            rows: 0,
        }
    }

    /// Fold one tile's header into the relation statistics.
    pub(crate) fn absorb_tile(&mut self, tile_no: u64, tile: &Tile) {
        self.rows += tile.len();
        for (path, count) in &tile.header.path_frequencies {
            self.freq.record(path, *count as u64, tile_no);
        }
        for (ci, sketch) in tile.header.sketches.iter().enumerate() {
            let key = tile.header.columns[ci].path.to_string();
            if let Some(entry) = self.sketches.iter_mut().find(|(k, _, _)| *k == key) {
                entry.1.merge(sketch);
                entry.2 = entry.2.max(tile_no);
                continue;
            }
            if self.sketches.len() < self.hll_slots {
                self.sketches.push((key, sketch.clone(), tile_no));
            } else {
                // Same policy as the frequency counters: evict the slot with
                // the oldest last-updating tile, tie-broken by the smaller
                // estimate. `total_cmp` keeps the ordering total even if an
                // estimate ever degenerates to NaN, and the `if let` makes
                // the no-slot case (hll_slots forced to 0 by a hostile
                // config) a no-op instead of a panic.
                let victim = self
                    .sketches
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.2.cmp(&b.2)
                            .then(a.1.estimate().total_cmp(&b.1.estimate()))
                    })
                    .map(|(i, _)| i);
                if let Some(victim) = victim {
                    if self.sketches[victim].2 < tile_no {
                        self.sketches[victim] = (key, sketch.clone(), tile_no);
                    }
                }
            }
        }
    }

    /// Total rows in the relation.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Estimated number of tuples containing `path` (display form, e.g.
    /// `"user.id"`). Missing keys use the smallest retained counter (§4.6).
    pub fn estimate_path_count(&self, path: &str) -> u64 {
        self.freq.estimate(path)
    }

    /// Exact retained counter, if one survived replacement.
    pub fn path_count(&self, path: &str) -> Option<u64> {
        self.freq.get(path)
    }

    /// Estimated distinct values of `path`, from the merged HLL sketches.
    pub fn estimate_distinct(&self, path: &str) -> Option<f64> {
        self.sketches
            .iter()
            .find(|(k, _, _)| k == path)
            .map(|(_, s, _)| s.estimate())
    }
}

/// Storage consumption of one relation (Table 6).
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageReport {
    /// Raw JSON text bytes.
    pub text_bytes: usize,
    /// Binary JSONB bytes.
    pub jsonb_bytes: usize,
    /// Extracted columns + tile headers.
    pub tile_bytes: usize,
    /// Columns after per-chunk LZ4 compression.
    pub lz4_tile_bytes: usize,
}

/// A JSON column stored under one of the four competitor modes.
#[derive(Debug)]
pub struct Relation {
    pub(crate) config: TilesConfig,
    pub(crate) tiles: Vec<Tile>,
    /// Starting row of each tile (tiles can differ in size at the tail).
    pub(crate) tile_offsets: Vec<usize>,
    pub(crate) stats: RelationStats,
    pub(crate) metrics: LoadMetrics,
    /// Documents inserted but not yet formed into tiles. Invisible to
    /// scans until a full partition accumulates or [`Relation::flush`]
    /// runs — "the tile is visible to scanners only once it is fully
    /// created" (§3.2).
    pub(crate) pending: Pending,
}

/// Documents printed as NDJSON lines, each newline-terminated, plus their
/// count: what [`Relation::insert`] buffers and [`Relation::load`] hands to
/// the loader.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    ndjson: Vec<u8>,
    rows: usize,
}

impl Pending {
    fn push(&mut self, doc: &Value) {
        self.ndjson
            .extend_from_slice(jt_json::to_string(doc).as_bytes());
        self.ndjson.push(b'\n');
        self.rows += 1;
    }

    /// Form the printed documents into tiles on `threads` workers.
    fn load(&self, config: TilesConfig, threads: usize) -> Relation {
        let (rel, report) = Relation::try_load_ondemand(&self.ndjson, config, threads)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.docs, self.rows, "every printed document re-parses");
        rel
    }
}

impl Relation {
    /// Create an empty relation for incremental insertion (§3.2: "a new
    /// tile is created whenever the number of newly-inserted tuples
    /// reaches the tile size").
    ///
    /// Note: incremental insertion mines each partition as it completes;
    /// Sinew mode computes its global schema only over the documents of
    /// each flush, mirroring Sinew's eager-extraction behaviour.
    pub fn new(config: TilesConfig) -> Relation {
        Relation {
            config,
            tiles: Vec::new(),
            tile_offsets: Vec::new(),
            stats: RelationStats::new(&config),
            metrics: LoadMetrics::default(),
            pending: Pending::default(),
        }
    }

    /// Insert one document. Once a full partition of documents has
    /// accumulated, its tiles are built (mined, reordered, materialized)
    /// and become visible to scans.
    pub fn insert(&mut self, doc: Value) {
        self.pending.push(&doc);
        let partition_rows = self.config.tile_size.max(1) * self.config.partition_size.max(1);
        if self.pending.rows >= partition_rows {
            self.flush();
        }
    }

    /// Materialize all pending documents into tiles immediately (the tail
    /// partition may be smaller than `tile_size × partition_size`).
    pub fn flush(&mut self) {
        if self.pending.rows == 0 {
            return;
        }
        // Publishes only this flush's load; `self.metrics` accumulates.
        let flushed = std::mem::take(&mut self.pending).load(self.config, 1);
        for tile in flushed.tiles {
            let no = self.tiles.len() as u64;
            self.stats.absorb_tile(no, &tile);
            self.tile_offsets.push(self.stats.rows - tile.len());
            self.tiles.push(tile);
        }
        self.metrics.add(&flushed.metrics);
        self.publish_coverage();
    }

    /// Number of inserted-but-not-yet-visible documents.
    pub fn pending_rows(&self) -> usize {
        self.pending.rows
    }

    /// Bulk-load in-memory documents: they are printed as NDJSON and
    /// loaded by [`Relation::try_load_ondemand`] on
    /// [`Relation::default_load_threads`] workers, which gives the same
    /// relation at every thread count. Callers that choose the thread
    /// count, or must survive a loader failure, call
    /// [`Relation::try_load_ondemand`] themselves.
    ///
    /// Non-finite floats, which JSON cannot spell, load as `null`.
    pub fn load(docs: &[Value], config: TilesConfig) -> Relation {
        let mut batch = Pending::default();
        for d in docs {
            batch.push(d);
        }
        batch.load(config, Self::default_load_threads())
    }

    /// Worker threads [`Relation::load`] uses: the machine's available
    /// parallelism, clamped to 16 (the same default the query executor's
    /// `ExecOptions` applies).
    pub fn default_load_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
    }

    /// The constructor behind every load and publish: statistics and row
    /// offsets rebuilt from `tiles` in order, and the coverage gauge
    /// refreshed.
    pub(crate) fn from_tiles(config: TilesConfig, tiles: Vec<Tile>, metrics: LoadMetrics) -> Self {
        let mut stats = RelationStats::new(&config);
        let mut tile_offsets = Vec::with_capacity(tiles.len());
        for (no, tile) in tiles.iter().enumerate() {
            tile_offsets.push(stats.rows);
            stats.absorb_tile(no as u64, tile);
        }
        let rel = Relation {
            config,
            tiles,
            tile_offsets,
            stats,
            metrics,
            pending: Pending::default(),
        };
        rel.publish_coverage();
        rel
    }

    /// The load configuration.
    pub fn config(&self) -> &TilesConfig {
        &self.config
    }

    /// The tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Starting row of tile `i`.
    pub fn tile_offset(&self, i: usize) -> usize {
        self.tile_offsets[i]
    }

    /// Total rows.
    pub fn row_count(&self) -> usize {
        self.stats.rows
    }

    /// Relation-level optimizer statistics.
    pub fn stats(&self) -> &RelationStats {
        &self.stats
    }

    /// Load metrics of the bulk load that created this relation.
    pub fn metrics(&self) -> &LoadMetrics {
        &self.metrics
    }

    /// Locate `(tile index, row-in-tile)` for a global row id.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        let ti = match self.tile_offsets.binary_search(&row) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (ti, row - self.tile_offsets[ti])
    }

    /// Reconstruct a row as a document tree.
    pub fn doc(&self, row: usize) -> Value {
        let (ti, r) = self.locate(row);
        self.tiles[ti].doc_value(r)
    }

    /// Update one row with a new document (§4.7), triggering a tile
    /// recomputation once the majority of its tuples became outliers.
    pub fn update(&mut self, row: usize, doc: &Value) {
        let (ti, r) = self.locate(row);
        self.tiles[ti].update_row(r, doc, &self.config);
        if self.tiles[ti].needs_recompute() {
            self.tiles[ti].recompute(&self.config);
        }
    }

    /// Rows across all tiles that no longer overlap their tile's extracted
    /// schema (§4.7 outliers). Drops back toward zero as tiles recompute.
    pub fn outlier_rows(&self) -> usize {
        self.tiles.iter().map(|t| t.outlier_count()).sum()
    }

    /// Build the next immutable *generation* of this relation (§4.9):
    /// every visible tile of `self` — with any deferred §4.7
    /// recomputations folded in, so the generation starts with zero
    /// outliers — followed by the tiles the on-demand loader forms from
    /// the NDJSON batch `ndjson`, exactly as a bulk load of that batch
    /// would. `self` is untouched; readers holding it see exactly the rows
    /// they saw before, which is what lets a service swap generations
    /// under concurrent queries without blocking them. The batch's load
    /// times add to the generation's [`LoadMetrics`].
    ///
    /// Panics if `self` has [`Relation::insert`]ed rows pending: a
    /// generation is built from visible tiles and the batch only.
    pub fn with_appended(&self, ndjson: &[u8]) -> Result<Relation, LoadError> {
        assert_eq!(
            self.pending_rows(),
            0,
            "flush() before building a generation from a relation with pending inserts"
        );
        let start = Instant::now();
        let mut tiles: Vec<Tile> = self.tiles.clone();
        for t in &mut tiles {
            if t.needs_recompute() {
                t.recompute(&self.config);
            }
        }
        let (batch, _) = Self::try_load_ondemand(ndjson, self.config, 1)?;
        tiles.extend(batch.tiles);
        let mut metrics = self.metrics.clone();
        metrics.add(&LoadMetrics {
            total: start.elapsed(),
            ..batch.metrics
        });
        // Statistics are rebuilt from scratch: recomputed tiles may have
        // different headers than the ones `self.stats` absorbed.
        Ok(Relation::from_tiles(self.config, tiles, metrics))
    }

    /// Refresh the `load.extraction_coverage_pct` gauge: the mean fraction
    /// of leaf occurrences landing in extracted columns (§3.3), across all
    /// visible tiles, in percent. Gated on [`jt_obs::enabled`] because it
    /// walks every tile header.
    pub(crate) fn publish_coverage(&self) {
        if !jt_obs::enabled() || self.tiles.is_empty() {
            return;
        }
        let sum: f64 = self.tiles.iter().map(|t| t.extraction_coverage()).sum();
        let pct = (100.0 * sum / self.tiles.len() as f64).round() as i64;
        jt_obs::gauge_set!("load.extraction_coverage_pct", pct);
    }

    /// Storage consumption (Table 6).
    pub fn storage_report(&self) -> StorageReport {
        let mut r = StorageReport::default();
        for t in &self.tiles {
            r.text_bytes += t.text_byte_size();
            r.jsonb_bytes += t.jsonb_byte_size();
            r.tile_bytes += t.columns_byte_size();
            r.lz4_tile_bytes += t.compressed_columns_size();
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageMode, TilesConfig};

    fn plain_docs(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| jt_json::parse(&format!("{{\"id\":{i},\"name\":\"row {i}\"}}")).unwrap())
            .collect()
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str".to_string());
        assert_eq!(panic_message(s.as_ref()), "static str");
        let st: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(st.as_ref()), "literal");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "<non-string panic>");
    }

    #[test]
    fn loader_panic_is_captured_as_load_error() {
        let config = TilesConfig {
            tile_size: 8,
            partition_size: 1,
            ..TilesConfig::default()
        };
        // Put the poisoned document in the third partition (rows 16..24) so
        // both earlier-success and partition-attribution are exercised.
        let mut docs = plain_docs(40);
        docs[17] = jt_json::parse(&format!("{{\"{TEST_PANIC_KEY}\":true}}")).unwrap();
        let ndjson: String = docs.iter().map(|d| jt_json::to_string(d) + "\n").collect();

        for threads in [1, 4] {
            let err = Relation::try_load_ondemand(ndjson.as_bytes(), config, threads)
                .expect_err("poisoned partition must fail the load");
            assert!(
                err.to_string().contains("injected loader fault"),
                "payload message lost at threads={threads}: {err}"
            );
            assert_eq!(err.partition, 2, "threads={threads}");
        }
    }

    #[test]
    fn partitions_merge_in_document_order_at_every_thread_count() {
        // JSONB mode: no reordering, so each tile's first row is known.
        let config = TilesConfig {
            tile_size: 4,
            partition_size: 2,
            ..TilesConfig::with_mode(StorageMode::Jsonb)
        };
        for threads in [1, 2, 3, 8] {
            let (tiles, metrics) = build_partitions(21, &config, threads, Instant::now(), |r| {
                let docs = plain_docs(r.end)[r].to_vec();
                crate::eager::build_partition(&docs, &config, None)
            })
            .unwrap();
            let sizes: Vec<usize> = tiles.iter().map(Tile::len).collect();
            assert_eq!(sizes, [4, 4, 4, 4, 4, 1], "threads={threads}");
            let first_ids: Vec<Value> = tiles.iter().map(|t| t.doc_value(0)).collect();
            let want: Vec<Value> = [0, 4, 8, 12, 16, 20]
                .iter()
                .map(|&i| plain_docs(21)[i].clone())
                .collect();
            assert_eq!(first_ids, want, "threads={threads}");
            assert_eq!((metrics.rows, metrics.partitions), (21, 3));
        }
    }
}
