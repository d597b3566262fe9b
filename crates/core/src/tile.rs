//! Tile construction and access (paper §3.1, §4.4, §4.5).
//!
//! A [`Tile`] holds a fixed-size chunk of tuples in up to three physical
//! forms: raw JSON text (the `JSON` competitor), binary JSONB documents
//! (always present for the binary modes, serving outlier accesses), and the
//! extracted typed column chunks with their [`TileHeader`].
//!
//! Tiles are formed from structural-index tapes by the on-demand loader
//! (`ondemand.rs`), which runs the §3.1 pipeline on each chunk: collect the
//! typed leaf key paths of every tuple, mine frequent itemsets over the
//! dictionary-encoded paths, and extract the union of the maximal itemsets
//! as columns. [`collect_leaves`] is the same walk over a document tree;
//! §4.7 updates use it to write one row in place.

use crate::column::{column_serves, ColumnChunk};
pub use crate::column::{AccessType, ColType};
use crate::datetime::{parse_timestamp, Timestamp};
use crate::header::TileHeader;
use crate::path::KeyPath;
use crate::TilesConfig;
use jt_json::{Number, Value};
use jt_jsonb::{JsonbRef, NumericString};

/// A typed scalar leaf observed in a document.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafValue {
    /// Integer leaf.
    Int(i64),
    /// Float leaf.
    Float(f64),
    /// Boolean leaf.
    Bool(bool),
    /// Plain string leaf.
    Str(String),
    /// Date/time string parsed to epoch seconds (§4.9).
    Date(Timestamp),
    /// Exact decimal string (§5.2).
    Numeric(NumericString),
}

impl LeafValue {
    /// The extraction type of this leaf.
    pub fn col_type(&self) -> ColType {
        match self {
            LeafValue::Int(_) => ColType::Int,
            LeafValue::Float(_) => ColType::Float,
            LeafValue::Bool(_) => ColType::Bool,
            LeafValue::Str(_) => ColType::Str,
            LeafValue::Date(_) => ColType::Date,
            LeafValue::Numeric(_) => ColType::Numeric,
        }
    }

    /// Canonical bytes for HLL sketching.
    pub fn sketch_bytes(&self) -> Vec<u8> {
        match self {
            LeafValue::Int(v) => v.to_le_bytes().to_vec(),
            LeafValue::Float(v) => v.to_bits().to_le_bytes().to_vec(),
            LeafValue::Bool(v) => vec![*v as u8],
            LeafValue::Str(s) => s.as_bytes().to_vec(),
            LeafValue::Date(v) => v.to_le_bytes().to_vec(),
            LeafValue::Numeric(n) => {
                let mut b = n.mantissa.to_le_bytes().to_vec();
                b.push(n.scale);
                b
            }
        }
    }
}

/// All typed scalar leaves of one document, in traversal order, plus every
/// interior path seen (for the Bloom filter of non-extracted paths, §4.4).
#[derive(Debug, Default, Clone)]
pub struct DocLeaves {
    /// `(path, leaf)` pairs.
    pub leaves: Vec<(KeyPath, LeafValue)>,
    /// Every path seen in the document, including interior object/array
    /// paths and paths holding JSON null.
    pub seen_paths: Vec<KeyPath>,
}

/// Walk a document and collect its typed leaves (§3.1 step 1).
///
/// Array elements are recorded with index segments up to
/// `config.max_array_elems` — "JSON tiles materializes only the leading
/// elements that are frequent across all documents" (§3.5). Strings are
/// typed Date when `config.date_extraction` is on and the value parses as a
/// timestamp, Numeric when they hold a canonical decimal, otherwise Str.
pub fn collect_leaves(doc: &Value, config: &TilesConfig) -> DocLeaves {
    let mut out = DocLeaves::default();
    walk(doc, &KeyPath::root(), config, &mut out);
    out
}

fn walk(v: &Value, path: &KeyPath, config: &TilesConfig, out: &mut DocLeaves) {
    if !path.is_root() {
        out.seen_paths.push(path.clone());
    }
    match v {
        Value::Null => {}
        Value::Bool(b) => out.leaves.push((path.clone(), LeafValue::Bool(*b))),
        Value::Num(Number::Int(i)) => out.leaves.push((path.clone(), LeafValue::Int(*i))),
        Value::Num(Number::Float(f)) => out.leaves.push((path.clone(), LeafValue::Float(*f))),
        Value::Str(s) => {
            let leaf = if config.date_extraction {
                match parse_timestamp(s) {
                    Some(ts) => LeafValue::Date(ts),
                    None => string_leaf(s),
                }
            } else {
                string_leaf(s)
            };
            out.leaves.push((path.clone(), leaf));
        }
        Value::Object(members) => {
            for (k, val) in members {
                walk(val, &path.child(k), config, out);
            }
        }
        Value::Array(elems) => {
            for (i, e) in elems.iter().enumerate() {
                if i >= config.max_array_elems {
                    break;
                }
                walk(e, &path.index(i as u32), config, out);
            }
        }
    }
}

fn string_leaf(s: &str) -> LeafValue {
    match jt_jsonb::detect_numeric_string(s) {
        Some(n) => LeafValue::Numeric(n),
        None => LeafValue::Str(s.to_owned()),
    }
}

/// The binary documents of a tile: one JSONB buffer plus row offsets.
///
/// Updated rows whose new encoding does not fit the old slot are appended
/// to the buffer and repointed via `moved` — "we either append the memory
/// region or fill empty spaces" so offsets of untouched rows stay static
/// (§4.4, §4.7).
#[derive(Debug, Clone, Default)]
pub struct JsonbColumn {
    pub(crate) offsets: Vec<u32>,
    pub(crate) buffer: Vec<u8>,
    /// `(row, start, len)` for rows relocated by updates; the latest entry
    /// for a row wins.
    pub(crate) moved: Vec<(u32, u32, u32)>,
}

impl JsonbColumn {
    /// Number of documents.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoded bytes of row `i`, honouring relocations.
    #[inline]
    fn row_bytes(&self, i: usize) -> &[u8] {
        if !self.moved.is_empty() {
            if let Some(&(_, start, len)) =
                self.moved.iter().rev().find(|(row, _, _)| *row == i as u32)
            {
                return &self.buffer[start as usize..start as usize + len as usize];
            }
        }
        &self.buffer[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The JSONB view of row `i`.
    #[inline]
    pub fn get_row(&self, i: usize) -> JsonbRef<'_> {
        JsonbRef::new(self.row_bytes(i))
    }

    /// Validate a column deserialized from untrusted bytes: offsets must be
    /// monotone fenceposts into the buffer, relocation entries must stay in
    /// bounds, and every row must pass full JSONB structural + UTF-8
    /// validation ([`jt_jsonb::validate_exact`]). Running this once at load
    /// time is what makes the unchecked accessor fast paths in `jt_jsonb`
    /// sound on disk-loaded buffers.
    pub fn validate_rows(&self) -> Result<(), &'static str> {
        if self.offsets.first().copied().unwrap_or(0) != 0 {
            return Err("jsonb offsets");
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("jsonb offsets");
        }
        if self.offsets.last().copied().unwrap_or(0) as usize > self.buffer.len() {
            return Err("jsonb buffer");
        }
        for &(row, start, len) in &self.moved {
            if row as usize >= self.len() {
                return Err("moved row index");
            }
            if start as u64 + len as u64 > self.buffer.len() as u64 {
                return Err("moved row range");
            }
        }
        for i in 0..self.len() {
            jt_jsonb::validate_exact(self.row_bytes(i)).map_err(|_| "corrupt jsonb document")?;
        }
        Ok(())
    }

    /// Replace row `i`'s document, in place when the encoding fits.
    pub fn replace_row(&mut self, i: usize, doc: &Value) {
        let mut enc = Vec::new();
        jt_jsonb::encode_into(doc, &mut enc);
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        if enc.len() == end - start && !self.moved.iter().any(|(row, _, _)| *row == i as u32) {
            self.buffer[start..end].copy_from_slice(&enc);
        } else {
            let new_start = self.buffer.len() as u32;
            self.buffer.extend_from_slice(&enc);
            self.moved.push((i as u32, new_start, enc.len() as u32));
        }
    }

    /// Heap bytes.
    pub fn byte_size(&self) -> usize {
        self.buffer.len() + self.offsets.len() * 4 + self.moved.len() * 12
    }
}

/// Which tile-header metadata proved a skip path absent (§4.8) — the
/// attribution [`Tile::skip_evidence`] reports for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipEvidence {
    /// The exact per-tile mining statistics (the path-frequency database)
    /// prove the leaf path never occurs in this tile.
    HeaderStats,
    /// The Bloom filter over seen paths returned a (never falsely)
    /// negative answer.
    BloomFilter,
}

/// One tile: header + columns + binary docs (+ optional raw text).
#[derive(Debug, Clone)]
pub struct Tile {
    /// Per-tile header (§4.4).
    pub header: TileHeader,
    pub(crate) columns: Vec<ColumnChunk>,
    pub(crate) jsonb: Option<JsonbColumn>,
    pub(crate) text: Option<Vec<String>>,
    pub(crate) rows: usize,
    /// Documents that no longer overlap the extracted schema (§4.7).
    pub(crate) outliers: usize,
}

impl Tile {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the tile holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The extracted column chunks.
    pub fn columns(&self) -> &[ColumnChunk] {
        &self.columns
    }

    /// Column chunk by index (from [`Tile::find_column`]).
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnChunk {
        &self.columns[idx]
    }

    /// Find a materialized column serving `(path, want)` (§4.5). Prefers an
    /// exact type match, then any castable column. The scan operator caches
    /// this per tile — "the calculation is performed once per tile".
    pub fn find_column(&self, path: &KeyPath, want: AccessType) -> Option<usize> {
        let candidates = self.header.columns_for_path(path)?;
        let mut fallback = None;
        for &idx in candidates {
            let ty = self.header.columns[idx].col_type;
            if exact_type(ty, want) {
                return Some(idx);
            }
            if fallback.is_none() && column_serves(ty, want) {
                fallback = Some(idx);
            }
        }
        fallback
    }

    /// May this tile contain `path` at all? `false` only when the path is
    /// neither extracted nor in the Bloom filter — the §4.8 skipping test.
    pub fn may_contain_path(&self, path: &KeyPath) -> bool {
        self.header.columns_for_path(path).is_some()
            || self.header.seen_paths.contains(&path.canonical_bytes())
    }

    /// The §4.8 skipping test with attribution: `None` when the tile may
    /// contain `path`, otherwise which header metadata proved absence.
    ///
    /// The per-tile mining statistics ([`TileHeader::path_frequencies`])
    /// list every *leaf* path seen in the tile exactly, so absence from a
    /// non-empty list is exact evidence ([`SkipEvidence::HeaderStats`]).
    /// Interior paths and extraction-free tiles are only covered by the
    /// Bloom filter of seen paths, whose negative (never a false negative)
    /// is then the decisive evidence ([`SkipEvidence::BloomFilter`]).
    pub fn skip_evidence(&self, path: &KeyPath) -> Option<SkipEvidence> {
        if self.may_contain_path(path) {
            return None;
        }
        let display = path.to_string();
        let in_freq_db = self
            .header
            .path_frequencies
            .binary_search_by(|(p, _)| p.as_str().cmp(display.as_str()))
            .is_ok();
        if !self.header.path_frequencies.is_empty() && !in_freq_db {
            Some(SkipEvidence::HeaderStats)
        } else {
            Some(SkipEvidence::BloomFilter)
        }
    }

    /// Fraction of leaf-value instances in this tile that are served by an
    /// extracted column, in `[0, 1]` — the §3.3 extraction coverage. Both
    /// numerator and denominator come from the per-tile mining statistics
    /// (tuple counts per path); 0 for modes without extraction.
    pub fn extraction_coverage(&self) -> f64 {
        let total: u64 = self
            .header
            .path_frequencies
            .iter()
            .map(|(_, c)| *c as u64)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let extracted_paths: std::collections::HashSet<String> = self
            .header
            .columns
            .iter()
            .map(|m| m.path.to_string())
            .collect();
        let covered: u64 = self
            .header
            .path_frequencies
            .iter()
            .filter(|(p, _)| extracted_paths.contains(p))
            .map(|(_, c)| *c as u64)
            .sum();
        covered as f64 / total as f64
    }

    /// The binary document of row `i` (None in text-only mode).
    #[inline]
    pub fn doc_jsonb(&self, i: usize) -> Option<JsonbRef<'_>> {
        self.jsonb.as_ref().map(|j| j.get_row(i))
    }

    /// The raw text of row `i` (JsonText mode only).
    pub fn doc_text(&self, i: usize) -> Option<&str> {
        self.text.as_ref().map(|t| t[i].as_str())
    }

    /// Reconstruct row `i` as a document tree (tests / updates).
    pub fn doc_value(&self, i: usize) -> Value {
        if let Some(j) = self.doc_jsonb(i) {
            return j.to_value();
        }
        jt_json::parse(self.doc_text(i).expect("text or jsonb present"))
            .expect("stored text is valid")
    }

    /// Update row `i` with a new document (§4.7): in-place column writes
    /// where types match, nulls for missing keys, Bloom registration of new
    /// paths, and outlier tracking for [`Tile::needs_recompute`].
    pub fn update_row(&mut self, i: usize, doc: &Value, config: &TilesConfig) {
        let leaves = collect_leaves(doc, config);
        let mut overlap = 0usize;
        for (ci, meta) in self.header.columns.iter().enumerate() {
            let leaf = leaves
                .leaves
                .iter()
                .find(|(p, l)| p == &meta.path && l.col_type() == meta.col_type);
            match leaf {
                Some((_, l)) => {
                    overlap += 1;
                    if !self.columns[ci].set_value(i, l) {
                        self.columns[ci].set_null(i);
                    }
                }
                None => self.columns[ci].set_null(i),
            }
        }
        // New paths must reach the Bloom filter, otherwise scans could
        // incorrectly skip this tile after the update.
        for p in &leaves.seen_paths {
            self.header.seen_paths.insert(&p.canonical_bytes());
        }
        if let Some(j) = self.jsonb.as_mut() {
            j.replace_row(i, doc);
        }
        if let Some(t) = self.text.as_mut() {
            t[i] = jt_json::to_string(doc);
        }
        // An outlier "does not overlap with the existing extracted keys"
        // (§4.7). A tile without any extracted schema treats every update
        // as an outlier so that it eventually re-mines.
        if self.header.columns.is_empty() || overlap * 2 < self.header.columns.len() {
            self.outliers += 1;
        }
    }

    /// Tuples updated past the extracted schema and not yet re-mined
    /// (§4.7). Reset to zero by [`Tile::recompute`].
    pub fn outlier_count(&self) -> usize {
        self.outliers
    }

    /// True once the majority of tuples no longer match the extracted
    /// schema — the §4.7 recomputation trigger.
    pub fn needs_recompute(&self) -> bool {
        self.outliers * 2 > self.rows
    }

    /// Rebuild the tile from its current documents (after heavy updates):
    /// the rows keep their order and are formed into one tile by the
    /// on-demand builder, which mines the tile's own schema in both
    /// extracting modes.
    pub fn recompute(&mut self, config: &TilesConfig) {
        let rows: Vec<String> = (0..self.rows)
            .map(|i| jt_json::to_string(&self.doc_value(i)))
            .collect();
        *self = crate::ondemand::tile_from_rows(&rows, config);
    }

    /// Heap bytes of the extracted columns plus header (Table 6 "+Tiles").
    /// Zero for modes without extraction (their placeholder header holds no
    /// tile-specific data).
    pub fn columns_byte_size(&self) -> usize {
        if self.columns.is_empty() && self.header.path_frequencies.is_empty() {
            return 0;
        }
        self.columns
            .iter()
            .map(ColumnChunk::byte_size)
            .sum::<usize>()
            + self.header.byte_size()
    }

    /// Heap bytes of the binary documents.
    pub fn jsonb_byte_size(&self) -> usize {
        self.jsonb.as_ref().map_or(0, |j| j.byte_size())
    }

    /// Heap bytes of the raw text.
    pub fn text_byte_size(&self) -> usize {
        self.text
            .as_ref()
            .map_or(0, |t| t.iter().map(String::len).sum())
    }

    /// LZ4-compressed size of all column chunks (Table 6 "+LZ4-Tiles").
    pub fn compressed_columns_size(&self) -> usize {
        self.columns
            .iter()
            .map(|c| jt_compress::compress(&c.raw_bytes()).len())
            .sum()
    }
}

#[inline]
fn exact_type(col: ColType, want: AccessType) -> bool {
    matches!(
        (col, want),
        (ColType::Int, AccessType::Int)
            | (ColType::Float, AccessType::Float)
            | (ColType::Bool, AccessType::Bool)
            | (ColType::Str, AccessType::Text)
            | (ColType::Date, AccessType::Timestamp)
            | (ColType::Numeric, AccessType::Numeric)
    )
}

/// Wall-clock spent in each tile-construction phase, for the Figure 16
/// insertion-time breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTiming {
    /// Frequent itemset mining (§3.3).
    pub mining: std::time::Duration,
    /// Column materialization ("Extract Tile").
    pub extract: std::time::Duration,
    /// Encoding the binary JSONB documents.
    pub write_jsonb: std::time::Duration,
}

impl BuildTiming {
    /// Accumulate another tile's timing.
    pub fn add(&mut self, other: &BuildTiming) {
        self.mining += other.mining;
        self.extract += other.extract;
        self.write_jsonb += other.write_jsonb;
    }
}

pub(crate) fn push_leaf(col: &mut ColumnChunk, leaf: &LeafValue) {
    match leaf {
        LeafValue::Int(v) => col.push_i64(*v),
        LeafValue::Float(v) => col.push_f64(*v),
        LeafValue::Bool(v) => col.push_bool(*v),
        LeafValue::Str(s) => col.push_str(s),
        LeafValue::Date(ts) => col.push_date(*ts),
        LeafValue::Numeric(n) => col.push_numeric(*n),
    }
}
