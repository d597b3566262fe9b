//! Tile formation (paper §4.3): structural-index parsing plus
//! structure-hash deduplicated mining. Every tile in the system is built
//! here — bulk loads, `jt serve` publishes, `&[Value]` loads (printed as
//! NDJSON first), incremental inserts and §4.7 recomputations.
//!
//! The loader ingests raw NDJSON bytes; no document becomes a
//! [`jt_json::Value`] tree:
//!
//! 1. **Index** — one structural scan per line builds an on-demand tape
//!    ([`jt_json::OnDemandDoc`]); no tree, no string allocation.
//! 2. **Shape** — each document's structural *signature* (container shape,
//!    key bytes, resolved extraction types) is hashed and interned into a
//!    shape registry. Documents with equal signatures are exact structural
//!    duplicates: same typed-leaf list, same seen paths.
//! 3. **Mine once per shape** — tile formation feeds one weighted
//!    transaction per distinct shape into [`jt_mining::mine_weighted`],
//!    so mining cost scales with distinct structures, not documents.
//! 4. **Materialize on demand** — each tile pulls only the leaf ordinals its
//!    extraction schema needs through the lazy cursor; everything else stays
//!    raw bytes until the JSONB outlier encoding, which runs straight off
//!    the tape ([`jt_jsonb::encode_ondemand_into`]).
//!
//! The eager pipeline over document trees survives only as the test
//! reference (`eager.rs`, compiled under `cfg(test)`), whose tests demand
//! byte-identical persisted images across workloads and storage modes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use jt_json::{Cursor, Node, Number, OnDemandDoc};
use jt_mining::{maximal, mine_weighted, MinerConfig};
use jt_stats::HyperLogLog;

use crate::column::ColumnChunk;
use crate::datetime::parse_timestamp;
use crate::dict::PathDictionary;
use crate::header::{ColumnMeta, TileHeader};
use crate::path::KeyPath;
#[cfg(test)]
use crate::relation::TEST_PANIC_KEY;
use crate::relation::{build_partitions, LoadError, PartitionBuild, Relation};
use crate::reorder::reorder_partition;
use crate::sinew::global_schema_weighted;
use crate::tile::{push_leaf, BuildTiming, ColType, JsonbColumn, LeafValue, Tile};
use crate::{StorageMode, TilesConfig};

/// Cap on reported parse errors, matching `jt_data::from_ndjson`.
const MAX_REPORTED_ERRORS: usize = 32;

/// Seed for signature hashing (arbitrary, fixed for determinism).
const SIG_SEED: u64 = 0x7469_6c65_7369_6721;

/// Outcome of one on-demand load: phase wall times, line accounting, and
/// the §4.3 structure-dedup statistics. The relation's own
/// [`crate::LoadMetrics`] still covers tile formation.
#[derive(Debug, Default, Clone)]
pub struct IngestReport {
    /// Structural-index (tape) construction over all lines.
    pub index: Duration,
    /// Shape signature hashing and registry interning.
    pub shape: Duration,
    /// Tile formation (mining, extraction, JSONB encoding).
    pub materialize: Duration,
    /// Documents successfully indexed.
    pub docs: usize,
    /// Malformed lines skipped.
    pub skipped: usize,
    /// `(1-based line number, error)` for the first skipped lines.
    pub errors: Vec<(usize, String)>,
    /// Distinct order-insensitive structure hashes ([`shape_hash`]) seen.
    pub distinct_shapes: usize,
}

// Signature byte tags. Keys get their own tag so the serialization is
// uniquely decodable (an object position distinguishes "next member" from
// "end" by tag, never by guessing at length bytes), which makes equal
// signatures imply equal structure.
const SIG_NULL: u8 = 0;
const SIG_BOOL: u8 = 1;
const SIG_INT: u8 = 2;
const SIG_FLOAT: u8 = 3;
const SIG_DATE: u8 = 4;
const SIG_NUMERIC: u8 = 5;
const SIG_STR: u8 = 6;
const SIG_OBJ: u8 = 7;
const SIG_OBJ_END: u8 = 8;
const SIG_ARR: u8 = 9;
const SIG_ARR_END: u8 = 10;
const SIG_KEY: u8 = 11;

/// The structural summary of one distinct document signature.
#[derive(Debug)]
struct ShapeInfo {
    /// Exact order-sensitive signature bytes (the grouping key).
    sig: Vec<u8>,
    /// Typed leaves in traversal order. The `o`-th entry describes the
    /// `o`-th scalar leaf of *every* document in the group — the ordinal
    /// alignment the per-tile materialization walk relies on.
    items: Vec<(KeyPath, ColType)>,
    /// Every non-root path seen (interior paths and null leaves included),
    /// in traversal order — feeds the tile's Bloom filter.
    seen_paths: Vec<KeyPath>,
    /// Documents carrying this signature.
    count: u32,
}

/// The resolved string extraction tag, mirroring [`crate::collect_leaves`]:
/// timestamps first (when enabled), then canonical decimals, else plain.
fn string_tag(s: &str, config: &TilesConfig) -> u8 {
    if config.date_extraction && parse_timestamp(s).is_some() {
        SIG_DATE
    } else if jt_jsonb::detect_numeric_string(s).is_some() {
        SIG_NUMERIC
    } else {
        SIG_STR
    }
}

/// Append the order-sensitive structural signature of the subtree under
/// `cur`. Two documents with equal signatures have identical typed-leaf
/// lists (by ordinal) and identical seen-path lists, which is what lets a
/// whole group share one transaction, one extraction plan, and one
/// seen-path list.
fn signature(cur: Cursor<'_>, config: &TilesConfig, out: &mut Vec<u8>) {
    match cur.node() {
        Node::Null => out.push(SIG_NULL),
        Node::Bool(_) => out.push(SIG_BOOL),
        Node::Num(Number::Int(_)) => out.push(SIG_INT),
        Node::Num(Number::Float(_)) => out.push(SIG_FLOAT),
        Node::Str(s) => out.push(string_tag(&s.decode(), config)),
        Node::Object(fields) => {
            out.push(SIG_OBJ);
            for (k, v) in fields {
                let k = k.decode();
                out.push(SIG_KEY);
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                signature(v, config, out);
            }
            out.push(SIG_OBJ_END);
        }
        Node::Array(elems) => {
            out.push(SIG_ARR);
            for (i, e) in elems.enumerate() {
                if i >= config.max_array_elems {
                    break;
                }
                signature(e, config, out);
            }
            out.push(SIG_ARR_END);
        }
    }
}

/// Collect the typed leaves and seen paths of a signature group, mirroring
/// the [`crate::collect_leaves`] walk (same traversal order, same array
/// truncation, same string typing) but without materializing leaf values.
fn shape_walk(
    cur: Cursor<'_>,
    path: &KeyPath,
    config: &TilesConfig,
    items: &mut Vec<(KeyPath, ColType)>,
    seen: &mut Vec<KeyPath>,
) {
    if !path.is_root() {
        seen.push(path.clone());
    }
    match cur.node() {
        Node::Null => {}
        Node::Bool(_) => items.push((path.clone(), ColType::Bool)),
        Node::Num(Number::Int(_)) => items.push((path.clone(), ColType::Int)),
        Node::Num(Number::Float(_)) => items.push((path.clone(), ColType::Float)),
        Node::Str(s) => {
            let ty = match string_tag(&s.decode(), config) {
                SIG_DATE => ColType::Date,
                SIG_NUMERIC => ColType::Numeric,
                _ => ColType::Str,
            };
            items.push((path.clone(), ty));
        }
        Node::Object(fields) => {
            for (k, v) in fields {
                shape_walk(v, &path.child(&k.decode()), config, items, seen);
            }
        }
        Node::Array(elems) => {
            for (i, e) in elems.enumerate() {
                if i >= config.max_array_elems {
                    break;
                }
                shape_walk(e, &path.index(i as u32), config, items, seen);
            }
        }
    }
}

/// The paper's order-insensitive structure hash (§4.3): a commutative
/// combination over the *set* of typed key paths, so key reordering and
/// duplicate leaf occurrences do not change the hash while any path or
/// type change does (with overwhelming probability).
pub fn shape_hash(items: &[(KeyPath, ColType)]) -> u64 {
    fn type_tag(t: ColType) -> u8 {
        match t {
            ColType::Int => 0,
            ColType::Float => 1,
            ColType::Bool => 2,
            ColType::Str => 3,
            ColType::Date => 4,
            ColType::Numeric => 5,
        }
    }
    // splitmix64-style finalizer: decorrelates the per-item hashes so the
    // commutative sum cannot be cancelled by related paths.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let mut seen: Vec<&(KeyPath, ColType)> = Vec::new();
    let mut acc: u64 = 0;
    for it in items {
        if seen.contains(&it) {
            continue;
        }
        seen.push(it);
        let mut bytes = it.0.canonical_bytes();
        bytes.push(type_tag(it.1));
        acc = acc.wrapping_add(mix(jt_stats::hash64(&bytes, SIG_SEED)));
    }
    acc
}

/// Interns document signatures into shape groups.
#[derive(Default)]
struct ShapeRegistry {
    by_hash: HashMap<u64, Vec<u32>>,
    shapes: Vec<ShapeInfo>,
}

impl ShapeRegistry {
    /// Group id for the document under `root`, creating the group (and its
    /// typed-leaf / seen-path lists) on first sight.
    fn intern(&mut self, root: Cursor<'_>, config: &TilesConfig, sig_buf: &mut Vec<u8>) -> u32 {
        sig_buf.clear();
        signature(root, config, sig_buf);
        let h = jt_stats::hash64(sig_buf, SIG_SEED);
        let ids = self.by_hash.entry(h).or_default();
        for &id in ids.iter() {
            if self.shapes[id as usize].sig == *sig_buf {
                self.shapes[id as usize].count += 1;
                return id;
            }
        }
        let mut items = Vec::new();
        let mut seen = Vec::new();
        shape_walk(root, &KeyPath::root(), config, &mut items, &mut seen);
        let id = self.shapes.len() as u32;
        self.shapes.push(ShapeInfo {
            sig: sig_buf.clone(),
            items,
            seen_paths: seen,
            count: 1,
        });
        ids.push(id);
        id
    }
}

/// Group `docs` by signature: one group id per document plus the groups'
/// shapes. Only the extracting modes use shapes; the others get one empty
/// group.
fn group_shapes(docs: &[OnDemandDoc<'_>], config: &TilesConfig) -> (Vec<u32>, Vec<ShapeInfo>) {
    let mut registry = ShapeRegistry::default();
    let groups = match config.mode {
        StorageMode::Sinew | StorageMode::Tiles => {
            let mut sig_buf = Vec::with_capacity(256);
            docs.iter()
                .map(|d| registry.intern(d.root(), config, &mut sig_buf))
                .collect()
        }
        StorageMode::Jsonb | StorageMode::JsonText => vec![0; docs.len()],
    };
    (groups, registry.shapes)
}

/// Re-form one tile from the text of its rows (§4.7 recomputation). The
/// rows keep their order, and the tile mines its own schema in both
/// extracting modes.
pub(crate) fn tile_from_rows(rows: &[String], config: &TilesConfig) -> Tile {
    let docs: Vec<OnDemandDoc<'_>> = rows
        .iter()
        .map(|r| OnDemandDoc::parse(r.as_bytes()).expect("a printed row is valid JSON"))
        .collect();
    let (groups, shapes) = group_shapes(&docs, config);
    let chunk: Vec<usize> = (0..docs.len()).collect();
    build_tile_ondemand(
        &docs,
        &groups,
        &chunk,
        &shapes,
        config,
        None,
        &mut BuildTiming::default(),
    )
}

impl Relation {
    /// Bulk load from raw NDJSON bytes on `threads` workers — the one
    /// loader every relation is built by. Partitions are split by fixed
    /// document ranges and merged in order, so the result is the same at
    /// every thread count.
    ///
    /// Line handling matches `jt_data::from_ndjson`: lines split on `\n`
    /// with one trailing `\r` stripped, blank lines skipped silently,
    /// malformed lines skipped and counted with the first
    /// [`MAX_REPORTED_ERRORS`] reported as `(1-based line, error)`.
    ///
    /// A panic while forming tiles is captured, with its message, as
    /// [`LoadError`]; the partial result is dropped.
    pub fn try_load_ondemand(
        data: &[u8],
        config: TilesConfig,
        threads: usize,
    ) -> Result<(Relation, IngestReport), LoadError> {
        let start = Instant::now();
        let mut report = IngestReport::default();

        // Phase 1: structural indexing, one tape per line, parallel over
        // line ranges (tapes are independent).
        let t_index = Instant::now();
        let lines: Vec<(usize, &[u8])> = data
            .split(|&b| b == b'\n')
            .enumerate()
            .map(|(no, l)| (no, l.strip_suffix(b"\r").unwrap_or(l)))
            .filter(|(_, l)| {
                !std::str::from_utf8(l)
                    .map(|s| s.trim().is_empty())
                    .unwrap_or(false)
            })
            .collect();
        fn parse_line<'a>(
            &(no, bytes): &(usize, &'a [u8]),
        ) -> (usize, Result<OnDemandDoc<'a>, String>) {
            (no, OnDemandDoc::parse(bytes).map_err(|e| e.to_string()))
        }
        let tape_threads = threads.max(1).min(lines.len().max(1));
        let parsed: Vec<(usize, Result<OnDemandDoc<'_>, String>)> = if tape_threads <= 1 {
            lines.iter().map(parse_line).collect()
        } else {
            let chunk_len = lines.len().div_ceil(tape_threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = lines
                    .chunks(chunk_len)
                    .map(|chunk| {
                        scope.spawn(move || chunk.iter().map(parse_line).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("tape worker"))
                    .collect()
            })
        };
        let mut docs: Vec<OnDemandDoc<'_>> = Vec::with_capacity(parsed.len());
        for (no, r) in parsed {
            match r {
                Ok(d) => docs.push(d),
                Err(msg) => {
                    report.skipped += 1;
                    if report.errors.len() < MAX_REPORTED_ERRORS {
                        report.errors.push((no + 1, msg));
                    }
                }
            }
        }
        report.docs = docs.len();
        report.index = t_index.elapsed();

        // Phase 2: shape grouping.
        let t_shape = Instant::now();
        let (groups, shapes) = group_shapes(&docs, &config);
        report.distinct_shapes = shapes
            .iter()
            .map(|s| shape_hash(&s.items))
            .collect::<HashSet<u64>>()
            .len();
        report.shape = t_shape.elapsed();

        // Phase 3: Sinew's global schema, one weighted pass over shapes.
        let sinew_schema: Option<Vec<(KeyPath, ColType)>> = match config.mode {
            StorageMode::Sinew => {
                let shapes_ref: Vec<(&[(KeyPath, ColType)], u32)> = shapes
                    .iter()
                    .map(|s| (s.items.as_slice(), s.count))
                    .collect();
                Some(global_schema_weighted(
                    &shapes_ref,
                    docs.len(),
                    config.threshold,
                ))
            }
            _ => None,
        };

        // Phase 4: tile formation, partitions fanned out by
        // `build_partitions`.
        let t_mat = Instant::now();
        let (tiles, metrics) = build_partitions(docs.len(), &config, threads, start, |r| {
            #[cfg(test)]
            if docs[r.clone()]
                .iter()
                .any(|d| d.root().get(TEST_PANIC_KEY).is_some())
            {
                panic!("injected loader fault");
            }
            build_partition_ondemand(
                &docs[r.clone()],
                &groups[r],
                &shapes,
                &config,
                sinew_schema.as_deref(),
            )
        })?;
        report.materialize = t_mat.elapsed();

        if jt_obs::enabled() {
            let g = jt_obs::global();
            g.counter("ingest.docs_parsed").add(report.docs as u64);
            g.counter("ingest.docs_skipped").add(report.skipped as u64);
            g.counter("ingest.distinct_shapes")
                .add(report.distinct_shapes as u64);
            g.histogram("ingest.index_ns")
                .record(report.index.as_nanos().min(u64::MAX as u128) as u64);
            g.histogram("ingest.shape_ns")
                .record(report.shape.as_nanos().min(u64::MAX as u128) as u64);
            g.histogram("ingest.materialize_ns")
                .record(report.materialize.as_nanos().min(u64::MAX as u128) as u64);
            if report.docs > 0 {
                // Percent of documents served by an already-seen shape.
                let pct = (100.0 * (report.docs - report.distinct_shapes) as f64
                    / report.docs as f64)
                    .round() as i64;
                jt_obs::gauge_set!("ingest.shape_dedup_ratio", pct);
            }
        }

        Ok((Relation::from_tiles(config, tiles, metrics), report))
    }
}

/// Build all tiles of one partition from tapes: optional reordering over
/// group transactions, then per-tile weighted extraction.
fn build_partition_ondemand(
    docs: &[OnDemandDoc<'_>],
    groups: &[u32],
    shapes: &[ShapeInfo],
    config: &TilesConfig,
    sinew_schema: Option<&[(KeyPath, ColType)]>,
) -> PartitionBuild {
    let mut timing = BuildTiming::default();
    let mut reorder_time = Duration::ZERO;
    let tile_size = config.tile_size.max(1);

    let order: Vec<usize> = if config.mode == StorageMode::Tiles && config.partition_size > 1 {
        let t0 = Instant::now();
        // Partition-wide dictionary: interning each group's items at its
        // first occurrence in document order assigns exactly the codes a
        // per-document pass would. Signature groups that differ only
        // in key order or null leaves share a transaction, hence the
        // second interning by content.
        let mut dict = PathDictionary::new();
        let mut distinct = jt_mining::Interner::default();
        let mut shape_of_group: HashMap<u32, u32> = HashMap::new();
        let shape_of: Vec<u32> = groups
            .iter()
            .map(|&g| {
                *shape_of_group.entry(g).or_insert_with(|| {
                    let mut t: Vec<jt_mining::Item> = shapes[g as usize]
                        .items
                        .iter()
                        .map(|(p, ty)| dict.intern(p, *ty))
                        .collect();
                    t.sort_unstable();
                    t.dedup();
                    distinct.intern(t)
                })
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
        tiles.push(build_tile_ondemand(
            docs,
            groups,
            chunk,
            shapes,
            config,
            sinew_schema,
            &mut timing,
        ));
    }
    (tiles, timing, reorder_time)
}

/// Encode the chunk's documents straight from their tapes.
fn jsonb_from_tapes(docs: &[OnDemandDoc<'_>], chunk: &[usize]) -> JsonbColumn {
    let mut col = JsonbColumn {
        offsets: Vec::with_capacity(chunk.len() + 1),
        buffer: Vec::with_capacity(chunk.len() * 64),
        moved: Vec::new(),
    };
    col.offsets.push(0);
    for &i in chunk {
        jt_jsonb::encode_ondemand_into(docs[i].root(), &mut col.buffer);
        col.offsets.push(col.buffer.len() as u32);
    }
    col
}

/// Per-group extraction plan: which leaf ordinal serves each extracted
/// column, plus the per-column other-typed flag — computed once per distinct
/// shape instead of once per document.
struct GroupPlan {
    /// `(leaf ordinal, column index, column type)`, sorted by ordinal.
    needed: Vec<(u32, u32, ColType)>,
    /// Per column: does this shape carry the path with a *different* type
    /// before (or without) a matching occurrence — the per-document loop's
    /// `other_typed` contribution.
    other: Vec<bool>,
}

/// Mirror of the per-document first-match column loop over a shape's ordered
/// typed-leaf list.
fn group_plan(shape: &ShapeInfo, extraction: &[(KeyPath, ColType)]) -> GroupPlan {
    let mut needed = Vec::new();
    let mut other = vec![false; extraction.len()];
    for (ci, (path, ty)) in extraction.iter().enumerate() {
        let mut found = None;
        for (o, (p, t)) in shape.items.iter().enumerate() {
            if p == path {
                if t == ty {
                    found = Some(o as u32);
                    break;
                }
                other[ci] = true;
            }
        }
        if let Some(o) = found {
            needed.push((o, ci as u32, *ty));
        }
    }
    needed.sort_unstable_by_key(|&(o, _, _)| o);
    GroupPlan { needed, other }
}

/// Materialize exactly the needed leaf ordinals of one document into `row`,
/// walking the tape in leaf-ordinal order and returning as soon as the last
/// needed ordinal is filled. Keys are never decoded and untouched subtrees
/// are skipped via the tape, which is where the on-demand win comes from.
fn materialize_walk(
    cur: Cursor<'_>,
    config: &TilesConfig,
    needed: &[(u32, u32, ColType)],
    next: &mut usize,
    ordinal: &mut u32,
    row: &mut [Option<LeafValue>],
) {
    if *next >= needed.len() {
        return;
    }
    match cur.node() {
        Node::Null => {}
        Node::Bool(b) => {
            if needed[*next].0 == *ordinal {
                row[needed[*next].1 as usize] = Some(LeafValue::Bool(b));
                *next += 1;
            }
            *ordinal += 1;
        }
        Node::Num(Number::Int(i)) => {
            if needed[*next].0 == *ordinal {
                row[needed[*next].1 as usize] = Some(LeafValue::Int(i));
                *next += 1;
            }
            *ordinal += 1;
        }
        Node::Num(Number::Float(f)) => {
            if needed[*next].0 == *ordinal {
                row[needed[*next].1 as usize] = Some(LeafValue::Float(f));
                *next += 1;
            }
            *ordinal += 1;
        }
        Node::Str(s) => {
            if needed[*next].0 == *ordinal {
                let (_, ci, ty) = needed[*next];
                let dec = s.decode();
                // The shape fixed this ordinal's classification; the same
                // bytes classify the same way here.
                let leaf = match ty {
                    ColType::Date => {
                        LeafValue::Date(parse_timestamp(&dec).expect("shape-typed date leaf"))
                    }
                    ColType::Numeric => LeafValue::Numeric(
                        jt_jsonb::detect_numeric_string(&dec).expect("shape-typed numeric leaf"),
                    ),
                    _ => LeafValue::Str(dec.into_owned()),
                };
                row[ci as usize] = Some(leaf);
                *next += 1;
            }
            *ordinal += 1;
        }
        Node::Object(fields) => {
            for (_, v) in fields {
                materialize_walk(v, config, needed, next, ordinal, row);
                if *next >= needed.len() {
                    return;
                }
            }
        }
        Node::Array(elems) => {
            for (i, e) in elems.enumerate() {
                if i >= config.max_array_elems {
                    break;
                }
                materialize_walk(e, config, needed, next, ordinal, row);
                if *next >= needed.len() {
                    return;
                }
            }
        }
    }
}

/// Build one tile from tapes: weighted mining over the distinct shapes in
/// the chunk, group-planned extraction, direct tape→JSONB encoding. The
/// eager `TileBuilder::build_timed` of the `cfg(test)` reference is what
/// the byte-identity tests compare it against.
#[allow(clippy::too_many_arguments)]
fn build_tile_ondemand(
    docs: &[OnDemandDoc<'_>],
    groups: &[u32],
    chunk: &[usize],
    shapes: &[ShapeInfo],
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
                text: Some(
                    chunk
                        .iter()
                        .map(|&i| jt_json::to_string(&docs[i].root().to_value()))
                        .collect(),
                ),
                rows: chunk.len(),
                outliers: 0,
            };
        }
        StorageMode::Jsonb => {
            let t0 = Instant::now();
            let jsonb = jsonb_from_tapes(docs, chunk);
            timing.write_jsonb += t0.elapsed();
            return Tile {
                header: TileHeader::empty(config),
                columns: Vec::new(),
                jsonb: Some(jsonb),
                text: None,
                rows: chunk.len(),
                outliers: 0,
            };
        }
        StorageMode::Sinew | StorageMode::Tiles => {}
    }

    // Tile-local dictionary + one weighted transaction per distinct shape,
    // in group-first-occurrence order. Interning the shape's ordered items
    // at its first occurrence yields the same codes as interning per
    // document, and first-occurrence weighted mining is bit-identical to
    // per-document mining (jt-mining's equivalence tests).
    let mut dict = PathDictionary::new();
    let mut local: HashMap<u32, usize> = HashMap::new();
    let mut group_list: Vec<u32> = Vec::new();
    let mut weighted: Vec<(Vec<jt_mining::Item>, u32)> = Vec::new();
    for &i in chunk {
        match local.entry(groups[i]) {
            Entry::Occupied(e) => weighted[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                let shape = &shapes[groups[i] as usize];
                let mut t: Vec<jt_mining::Item> = shape
                    .items
                    .iter()
                    .map(|(p, ty)| dict.intern(p, *ty))
                    .collect();
                t.sort_unstable();
                t.dedup();
                e.insert(weighted.len());
                group_list.push(groups[i]);
                weighted.push((t, 1));
            }
        }
    }

    let mine_start = Instant::now();
    let extraction: Vec<(KeyPath, ColType)> = match extraction_override {
        Some(cols) => cols.to_vec(),
        None => {
            let sets = mine_weighted(
                &weighted,
                MinerConfig {
                    min_support: config.min_support(chunk.len()),
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

    // Materialize: one plan per distinct shape, then a single on-demand
    // walk per document touching only the needed leaf ordinals.
    let extract_start = Instant::now();
    let mut columns: Vec<ColumnChunk> = extraction
        .iter()
        .map(|(_, t)| ColumnChunk::builder(*t))
        .collect();
    let mut sketches: Vec<HyperLogLog> =
        extraction.iter().map(|_| HyperLogLog::default()).collect();
    let plans: HashMap<u32, GroupPlan> = group_list
        .iter()
        .map(|&g| (g, group_plan(&shapes[g as usize], &extraction)))
        .collect();
    let mut other_typed = vec![false; extraction.len()];
    for &g in &group_list {
        for (ci, o) in plans[&g].other.iter().enumerate() {
            if *o {
                other_typed[ci] = true;
            }
        }
    }
    let mut row: Vec<Option<LeafValue>> = vec![None; extraction.len()];
    for &i in chunk {
        let plan = &plans[&groups[i]];
        row.fill(None);
        let mut next = 0usize;
        let mut ordinal = 0u32;
        materialize_walk(
            docs[i].root(),
            config,
            &plan.needed,
            &mut next,
            &mut ordinal,
            &mut row,
        );
        for (ci, slot) in row.iter_mut().enumerate() {
            match slot.take() {
                Some(leaf) => {
                    push_leaf(&mut columns[ci], &leaf);
                    if ci < config.hll_slots {
                        sketches[ci].insert(&leaf.sketch_bytes());
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

    let header = TileHeader::build_weighted(
        config,
        metas,
        &dict,
        &weighted,
        group_list
            .iter()
            .map(|&g| shapes[g as usize].seen_paths.as_slice()),
        sketches,
    );
    timing.extract += extract_start.elapsed();

    let t0 = Instant::now();
    let jsonb = jsonb_from_tapes(docs, chunk);
    timing.write_jsonb += t0.elapsed();

    Tile {
        header,
        columns,
        jsonb: Some(jsonb),
        text: None,
        rows: chunk.len(),
        outliers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(parts: &[(&[&str], ColType)]) -> Vec<(KeyPath, ColType)> {
        parts
            .iter()
            .map(|(segs, t)| (KeyPath::keys(segs), *t))
            .collect()
    }

    #[test]
    fn shape_hash_ignores_key_order_and_duplicates() {
        let a = items(&[
            (&["id"], ColType::Int),
            (&["name"], ColType::Str),
            (&["geo"], ColType::Float),
        ]);
        let b = items(&[
            (&["geo"], ColType::Float),
            (&["id"], ColType::Int),
            (&["name"], ColType::Str),
        ]);
        assert_eq!(shape_hash(&a), shape_hash(&b), "order-insensitive");
        let mut with_dup = a.clone();
        with_dup.push((KeyPath::keys(&["id"]), ColType::Int));
        assert_eq!(shape_hash(&a), shape_hash(&with_dup), "set semantics");
    }

    #[test]
    fn shape_hash_sees_type_and_path_changes() {
        let a = items(&[(&["id"], ColType::Int), (&["name"], ColType::Str)]);
        let retyped = items(&[(&["id"], ColType::Float), (&["name"], ColType::Str)]);
        assert_ne!(shape_hash(&a), shape_hash(&retyped), "type change");
        let extra = items(&[
            (&["id"], ColType::Int),
            (&["name"], ColType::Str),
            (&["x"], ColType::Int),
        ]);
        assert_ne!(shape_hash(&a), shape_hash(&extra), "extra path");
        assert_ne!(shape_hash(&a), shape_hash(&a[..1]), "missing path");
    }

    #[test]
    fn signatures_group_exact_structure() {
        let config = TilesConfig::default();
        let sig_of = |text: &str| {
            let doc = OnDemandDoc::parse(text.as_bytes()).unwrap();
            let mut out = Vec::new();
            signature(doc.root(), &config, &mut out);
            out
        };
        assert_eq!(sig_of(r#"{"a":1,"b":"x"}"#), sig_of(r#"{"a":9,"b":"y"}"#));
        // Key order is part of the exact signature (the order-insensitive
        // grouping happens at the shape_hash level)...
        assert_ne!(sig_of(r#"{"a":1,"b":2}"#), sig_of(r#"{"b":2,"a":1}"#));
        // ...but both orders hash to the same §4.3 structure.
        let shape_of = |text: &str| {
            let doc = OnDemandDoc::parse(text.as_bytes()).unwrap();
            let mut items = Vec::new();
            let mut seen = Vec::new();
            shape_walk(doc.root(), &KeyPath::root(), &config, &mut items, &mut seen);
            shape_hash(&items)
        };
        assert_eq!(shape_of(r#"{"a":1,"b":2}"#), shape_of(r#"{"b":2,"a":1}"#));
        // Type changes split groups.
        assert_ne!(sig_of(r#"{"a":1}"#), sig_of(r#"{"a":1.5}"#));
        assert_ne!(sig_of(r#"{"a":"x"}"#), sig_of(r#"{"a":"1.50"}"#));
        assert_ne!(sig_of(r#"{"a":"x"}"#), sig_of(r#"{"a":"2021-07-01"}"#));
        // Null vs absent vs nested differ.
        assert_ne!(sig_of(r#"{"a":null}"#), sig_of(r#"{}"#));
        assert_ne!(sig_of(r#"{"a":[1]}"#), sig_of(r#"{"a":[1,2]}"#));
    }

    #[test]
    fn malformed_and_blank_lines_are_counted() {
        let ndjson = "{\"id\":1}\n\n{\"id\":\n{\"id\":2}\r\n   \n{bad\n{\"id\":3}";
        let (rel, report) =
            Relation::try_load_ondemand(ndjson.as_bytes(), TilesConfig::default(), 1).unwrap();
        assert_eq!(report.docs, 3);
        assert_eq!(report.skipped, 2);
        assert_eq!(rel.row_count(), 3);
        assert_eq!(report.errors.len(), 2);
        // 1-based line numbers: the truncated doc is line 3, `{bad` line 6.
        assert_eq!(report.errors[0].0, 3);
        assert_eq!(report.errors[1].0, 6);
        assert_eq!(report.distinct_shapes, 1, "all three docs share a shape");
    }

    #[test]
    fn weighted_mining_drives_extraction() {
        // 90% of docs share one shape, 10% another; the dominant shape's
        // paths must be extracted, and the registry must see exactly 2.
        let mut ndjson = String::new();
        for i in 0..100 {
            if i % 10 == 0 {
                ndjson.push_str(&format!("{{\"rare\":{i}}}\n"));
            } else {
                ndjson.push_str(&format!("{{\"id\":{i},\"name\":\"u{i}\"}}\n"));
            }
        }
        let config = TilesConfig {
            tile_size: 100,
            partition_size: 1,
            ..TilesConfig::default()
        };
        let (rel, report) = Relation::try_load_ondemand(ndjson.as_bytes(), config, 1).unwrap();
        assert_eq!(report.distinct_shapes, 2);
        let tile = &rel.tiles()[0];
        assert!(tile
            .find_column(&KeyPath::keys(&["id"]), crate::AccessType::Int)
            .is_some());
        assert!(tile
            .find_column(&KeyPath::keys(&["rare"]), crate::AccessType::Int)
            .is_none());
        assert!(tile.may_contain_path(&KeyPath::keys(&["rare"])), "bloom");
    }
}
