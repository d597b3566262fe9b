//! On-disk persistence for relations.
//!
//! Umbra is a disk-based system; a usable JSON tiles library therefore
//! needs its relations to survive a process restart — including restarts
//! caused by crashes mid-write and disks that hand back bit-flipped,
//! truncated, or torn files. The v2 format therefore treats on-disk bytes
//! as hostile, the same stance Parquet (per-page checksums) and the
//! LevelDB/RocksDB lineage (per-block CRCs) take:
//!
//! * **Framed sections.** After the magic + version, the file is a
//!   sequence of independently framed sections — one file-header section
//!   (load configuration + tile count), one relation-statistics section,
//!   then one section per tile. Each frame records its stored length, its
//!   decompressed length, an encoding byte, and a CRC32C over the payload,
//!   so damage is detected *before* any byte is interpreted and a corrupt
//!   tile can be skipped without losing the rest of the file.
//! * **Transparent LZ4.** Section payloads are stored LZ4-compressed when
//!   that is smaller ([`jt_compress`]'s block format); decompression
//!   failures surface as [`PersistError::Decompress`], never a panic.
//! * **Atomic saves.** [`Relation::save`] writes to a temporary file in
//!   the target directory, fsyncs it, and renames it into place, so a
//!   crash mid-save leaves the previous file intact.
//! * **Hardened reads.** Every length field is bounds-checked against the
//!   bytes that remain, so a corrupt length returns
//!   [`PersistError::Corrupt`] instead of aborting on a huge allocation,
//!   and all deserialized structures (column vectors, string offsets,
//!   JSONB documents) are validated before the unchecked accessor fast
//!   paths may touch them.
//! * **Corrupt-tile policy.** [`Relation::open_with`] takes
//!   [`OpenOptions`]: the default `Fail` policy rejects any damage, while
//!   `Skip` quarantines damaged tiles and opens the rest, reporting the
//!   quarantined tile indices in [`LoadMetrics::quarantined`].
//! * **v1 compatibility.** Files written by the original length-prefixed
//!   v1 layout remain readable (fail-fast, no checksums to verify).
//!
//! Everything is little-endian; no external serialization framework is
//! involved.
//!
//! ```no_run
//! # use jt_core::{Relation, TilesConfig};
//! # let docs: Vec<jt_json::Value> = vec![];
//! let mut rel = Relation::load(&docs, TilesConfig::default());
//! rel.save("table.jt").unwrap();
//! let back = Relation::open("table.jt").unwrap();
//! ```

use crate::column::{ColumnChunk, ColumnData, NullBitmap};
use crate::crc32c::{crc32c, crc32c_append};
use crate::header::{ColumnMeta, TileHeader};
use crate::path::KeyPath;
use crate::relation::{LoadMetrics, Relation, RelationStats, SectionIo};
use crate::tile::{ColType, JsonbColumn, Tile};
use crate::{StorageMode, TilesConfig};
use jt_stats::{BloomFilter, FrequencyCounters, HyperLogLog};
use std::borrow::Cow;

const MAGIC: &[u8; 6] = b"JTREL\0";
/// Current write version: framed, checksummed sections.
const VERSION: u16 = 2;
/// The original unframed layout; still readable.
const LEGACY_VERSION: u16 = 1;
/// Frame bytes around every section payload: stored length (u64),
/// decompressed length (u64), encoding byte, CRC32C (u32).
const FRAME_OVERHEAD: usize = 8 + 8 + 1 + 4;
/// Largest accepted value for non-count config/row fields. Generous (a
/// trillion rows) while still rejecting the absurd values corrupt bytes
/// produce, which otherwise poison later arithmetic.
const MAX_SANE: u64 = 1 << 40;
/// LZ4 expands at most ~255× (one sequence can emit 255 matched bytes per
/// stored byte, plus headroom for short inputs); a claimed decompressed
/// size beyond this is corrupt, and rejecting it caps allocations.
const MAX_LZ4_RATIO: u64 = 255;

/// Errors while reading or writing a persisted relation.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a JSON tiles relation or is damaged.
    Corrupt(&'static str),
    /// The file was written by an incompatible library version.
    Version(u16),
    /// A section's LZ4 payload failed to decompress.
    Decompress(jt_compress::DecompressError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt relation file: {what}"),
            PersistError::Version(v) => write!(f, "unsupported relation file version {v}"),
            PersistError::Decompress(e) => write!(f, "corrupt relation file: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<jt_compress::DecompressError> for PersistError {
    fn from(e: jt_compress::DecompressError) -> Self {
        PersistError::Decompress(e)
    }
}

type Result<T> = std::result::Result<T, PersistError>;

/// What [`Relation::open_with`] does when a tile section is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptTilePolicy {
    /// Reject the whole file (default).
    #[default]
    Fail,
    /// Quarantine damaged tiles and open the surviving ones. Quarantined
    /// tile indices are reported in [`LoadMetrics::quarantined`]; the
    /// relation's row count covers surviving tiles only. Damage to the
    /// file header or statistics sections still fails the open.
    Skip,
}

/// Options for [`Relation::open_with`] / [`Relation::from_bytes_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    /// Policy for tile sections that fail their checksum or decode.
    pub on_corrupt_tile: CorruptTilePolicy,
}

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

// ---------------------------------------------------------------- reader

/// Bounds-checked cursor over untrusted bytes. Every primitive read fails
/// with [`PersistError::Corrupt`] instead of panicking, and the `count*`
/// helpers reject element counts whose minimum encoding could not fit in
/// the bytes that remain — the allocation cap that turns corrupt lengths
/// into clean errors rather than OOM aborts.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(PersistError::Corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(PersistError::Corrupt("unexpected end of file"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Fixed-size read; the conversion to `[u8; N]` cannot fail.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A value that is not an element count but still must stay sane
    /// (config knobs, row totals); caps at [`MAX_SANE`].
    fn sane_usize(&mut self, what: &'static str) -> Result<usize> {
        let v = self.u64()?;
        if v > MAX_SANE {
            return Err(PersistError::Corrupt(what));
        }
        Ok(v as usize)
    }

    fn check_count(&self, n: u64, elem_min: usize, what: &'static str) -> Result<usize> {
        if n > (self.remaining() / elem_min.max(1)) as u64 {
            return Err(PersistError::Corrupt(what));
        }
        Ok(n as usize)
    }

    /// A u64 element count; each element needs at least `elem_min` bytes.
    fn count64(&mut self, elem_min: usize, what: &'static str) -> Result<usize> {
        let n = self.u64()?;
        self.check_count(n, elem_min, what)
    }

    /// A u32 element count; each element needs at least `elem_min` bytes.
    fn count32(&mut self, elem_min: usize, what: &'static str) -> Result<usize> {
        let n = self.u32()? as u64;
        self.check_count(n, elem_min, what)
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count64(1, "byte run length")?;
        self.take(n)
    }
    fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| PersistError::Corrupt("non-UTF-8 string"))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ------------------------------------------------------------- sections

/// Why a framed section could not be read.
enum SectionError {
    /// The frame itself ran off the end of the file; the reader cannot be
    /// repositioned, so nothing after this point is recoverable.
    Truncated(PersistError),
    /// The frame was intact but its payload is damaged (checksum mismatch,
    /// decompression failure). The reader sits after the frame, so later
    /// sections remain readable.
    Damaged(PersistError),
}

impl SectionError {
    fn into_inner(self) -> PersistError {
        match self {
            SectionError::Truncated(e) | SectionError::Damaged(e) => e,
        }
    }
}

/// Append one framed section: stored length, decompressed length, encoding
/// byte (0 = raw, 1 = LZ4), payload, CRC32C. The checksum covers the
/// decompressed-length field, the encoding byte, and the stored payload, so
/// any mutation of those is caught before the payload is interpreted.
fn write_section(out: &mut Vec<u8>, payload: &[u8]) {
    let compressed = jt_compress::compress(payload);
    let (encoding, stored): (u8, &[u8]) = if compressed.len() < payload.len() {
        (1, &compressed)
    } else {
        (0, payload)
    };
    jt_obs::counter_add!("persist.save.sections", 1);
    jt_obs::counter_add!("persist.save.bytes_raw", payload.len() as u64);
    jt_obs::counter_add!("persist.save.bytes_stored", stored.len() as u64);
    let raw_len = (payload.len() as u64).to_le_bytes();
    out.extend_from_slice(&(stored.len() as u64).to_le_bytes());
    out.extend_from_slice(&raw_len);
    out.push(encoding);
    out.extend_from_slice(stored);
    let crc = crc32c_append(crc32c_append(crc32c(&raw_len), &[encoding]), stored);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Read one framed section, verifying its checksum and decompressing if
/// needed, accounting sizes and the CRC/decompress time split into `io`.
/// See [`SectionError`] for the recoverability contract.
fn read_section<'a>(
    r: &mut Reader<'a>,
    io: &mut SectionIo,
) -> std::result::Result<Cow<'a, [u8]>, SectionError> {
    let frame = (|| {
        let stored_len = r.count64(1, "section length")?;
        let raw_len = r.u64()?;
        let encoding = r.u8()?;
        let stored = r.take(stored_len)?;
        let expect = r.u32()?;
        Ok((raw_len, encoding, stored, expect))
    })()
    .map_err(SectionError::Truncated)?;
    let (raw_len, encoding, stored, expect) = frame;
    io.sections += 1;
    io.bytes_stored += stored.len() as u64;

    (|| {
        let t0 = std::time::Instant::now();
        let crc = crc32c_append(
            crc32c_append(crc32c(&raw_len.to_le_bytes()), &[encoding]),
            stored,
        );
        io.crc += t0.elapsed();
        if crc != expect {
            return Err(PersistError::Corrupt("section checksum mismatch"));
        }
        match encoding {
            0 => {
                if raw_len != stored.len() as u64 {
                    return Err(PersistError::Corrupt("section length mismatch"));
                }
                io.bytes_raw += stored.len() as u64;
                Ok(Cow::Borrowed(stored))
            }
            1 => {
                if raw_len > (stored.len() as u64).saturating_mul(MAX_LZ4_RATIO) + 64 {
                    return Err(PersistError::Corrupt("section decompressed size"));
                }
                let t0 = std::time::Instant::now();
                let raw = jt_compress::decompress(stored, raw_len as usize)?;
                io.decompress += t0.elapsed();
                io.bytes_raw += raw.len() as u64;
                Ok(Cow::Owned(raw))
            }
            _ => Err(PersistError::Corrupt("section encoding")),
        }
    })()
    .map_err(SectionError::Damaged)
}

// ------------------------------------------------------------- encoding

fn mode_tag(m: StorageMode) -> u8 {
    match m {
        StorageMode::JsonText => 0,
        StorageMode::Jsonb => 1,
        StorageMode::Sinew => 2,
        StorageMode::Tiles => 3,
    }
}

fn mode_from(tag: u8) -> Result<StorageMode> {
    Ok(match tag {
        0 => StorageMode::JsonText,
        1 => StorageMode::Jsonb,
        2 => StorageMode::Sinew,
        3 => StorageMode::Tiles,
        _ => return Err(PersistError::Corrupt("bad storage mode")),
    })
}

fn coltype_tag(t: ColType) -> u8 {
    match t {
        ColType::Int => 0,
        ColType::Float => 1,
        ColType::Bool => 2,
        ColType::Str => 3,
        ColType::Date => 4,
        ColType::Numeric => 5,
    }
}

fn coltype_from(tag: u8) -> Result<ColType> {
    Ok(match tag {
        0 => ColType::Int,
        1 => ColType::Float,
        2 => ColType::Bool,
        3 => ColType::Str,
        4 => ColType::Date,
        5 => ColType::Numeric,
        _ => return Err(PersistError::Corrupt("bad column type")),
    })
}

fn write_config(w: &mut Writer, c: &TilesConfig) {
    w.u8(mode_tag(c.mode));
    w.u64(c.tile_size as u64);
    w.u64(c.partition_size as u64);
    w.f64(c.threshold);
    w.u64(c.budget);
    w.u8(c.date_extraction as u8);
    w.u64(c.max_array_elems as u64);
    w.u64(c.freq_slots as u64);
    w.u64(c.hll_slots as u64);
}

fn read_config(r: &mut Reader<'_>) -> Result<TilesConfig> {
    Ok(TilesConfig {
        mode: mode_from(r.u8()?)?,
        tile_size: r.sane_usize("tile size")?,
        partition_size: r.sane_usize("partition size")?,
        threshold: r.f64()?,
        budget: r.u64()?,
        date_extraction: r.u8()? != 0,
        max_array_elems: r.sane_usize("array cap")?,
        freq_slots: r.sane_usize("freq slots")?,
        hll_slots: r.sane_usize("hll slots")?,
    })
}

fn write_stats(w: &mut Writer, s: &RelationStats) {
    w.u64(s.rows as u64);
    w.u64(s.hll_slots as u64);
    w.u64(s.freq.capacity() as u64);
    let entries = s.freq.entries();
    w.u32(entries.len() as u32);
    for (key, count, last_tile) in entries {
        w.string(&key);
        w.u64(count);
        w.u64(last_tile);
    }
    w.u32(s.sketches.len() as u32);
    for (name, hll, last_tile) in &s.sketches {
        w.string(name);
        w.bytes(&hll.to_bytes());
        w.u64(*last_tile);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<RelationStats> {
    let rows = r.sane_usize("stats rows")?;
    let hll_slots = r.sane_usize("hll slots")?;
    let capacity = r.sane_usize("freq capacity")?;
    // Entry: ≥ 8 (key length) + 8 (count) + 8 (last tile).
    let n = r.count32(24, "freq entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.string()?;
        let count = r.u64()?;
        let last = r.u64()?;
        entries.push((key, count, last));
    }
    let freq = FrequencyCounters::from_entries(capacity.max(1), entries);
    // Sketch: ≥ 8 (name length) + 8 (bytes length) + 8 (last tile).
    let n = r.count32(24, "stat sketches")?;
    let mut sketches = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let hll =
            HyperLogLog::from_bytes(r.bytes()?).ok_or(PersistError::Corrupt("bad HLL sketch"))?;
        let last = r.u64()?;
        sketches.push((name, hll, last));
    }
    Ok(RelationStats {
        freq,
        sketches,
        hll_slots: hll_slots.max(1),
        rows,
    })
}

fn write_column(w: &mut Writer, c: &ColumnChunk) {
    // Null bitmap.
    w.u64(c.nulls.len as u64);
    w.u64(c.nulls.nulls as u64);
    w.u32(c.nulls.words.len() as u32);
    for word in &c.nulls.words {
        w.u64(*word);
    }
    // Payload.
    match &c.data {
        ColumnData::Int(v) => {
            w.u8(0);
            w.u64(v.len() as u64);
            for x in v {
                w.i64(*x);
            }
        }
        ColumnData::Float(v) => {
            w.u8(1);
            w.u64(v.len() as u64);
            for x in v {
                w.f64(*x);
            }
        }
        ColumnData::Bool(v) => {
            w.u8(2);
            w.u64(v.len() as u64);
            for x in v {
                w.u8(*x as u8);
            }
        }
        ColumnData::Str { offsets, bytes } => {
            w.u8(3);
            w.u64(offsets.len() as u64);
            for o in offsets {
                w.u32(*o);
            }
            w.bytes(bytes);
        }
        ColumnData::Date(v) => {
            w.u8(4);
            w.u64(v.len() as u64);
            for x in v {
                w.i64(*x);
            }
        }
        ColumnData::Numeric { mantissa, scale } => {
            w.u8(5);
            w.u64(mantissa.len() as u64);
            for x in mantissa {
                w.i64(*x);
            }
            w.bytes(scale);
        }
    }
}

/// Read one column chunk of `rows` rows, verifying every invariant the
/// unchecked accessors in [`crate::column`] rely on: payload length equals
/// the bitmap length, string offsets are monotone `char`-boundary cuts of
/// a valid UTF-8 buffer, numeric scales align with mantissas.
fn read_column(r: &mut Reader<'_>, rows: usize) -> Result<ColumnChunk> {
    let len = r.sane_usize("bitmap len")?;
    if len != rows {
        return Err(PersistError::Corrupt("column row count"));
    }
    let nulls_count = r.sane_usize("null count")?;
    if nulls_count > len {
        return Err(PersistError::Corrupt("null count"));
    }
    let n_words = r.count32(8, "bitmap words")?;
    if n_words != len.div_ceil(64) {
        return Err(PersistError::Corrupt("bitmap word count"));
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    let nulls = NullBitmap {
        words,
        len,
        nulls: nulls_count,
    };
    let tag = r.u8()?;
    // Minimum encoded bytes per element, by payload type.
    let elem_min = match tag {
        2 => 1,
        3 => 4,
        _ => 8,
    };
    let n = r.count64(elem_min, "column rows")?;
    let data = match tag {
        0 => {
            expect_rows(n, len, "int column length")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            ColumnData::Int(v)
        }
        1 => {
            expect_rows(n, len, "float column length")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            ColumnData::Float(v)
        }
        2 => {
            expect_rows(n, len, "bool column length")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u8()? != 0);
            }
            ColumnData::Bool(v)
        }
        3 => {
            // `n` counts the offsets vector: rows + 1 fenceposts (a lone 0
            // or nothing for an empty chunk).
            if n != len + 1 && !(len == 0 && n <= 1) {
                return Err(PersistError::Corrupt("string offset count"));
            }
            let mut offsets = Vec::with_capacity(n);
            for _ in 0..n {
                offsets.push(r.u32()?);
            }
            let bytes = r.bytes()?.to_vec();
            if offsets.first().copied().unwrap_or(0) != 0 {
                return Err(PersistError::Corrupt("string offsets"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(PersistError::Corrupt("string offsets"));
            }
            if offsets.last().copied().unwrap_or(0) as usize != bytes.len() {
                return Err(PersistError::Corrupt("string offsets"));
            }
            // One validation pass makes the per-row
            // `str::from_utf8_unchecked` in `ColumnChunk::get_str` sound.
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| PersistError::Corrupt("string column not UTF-8"))?;
            if offsets.iter().any(|&o| !text.is_char_boundary(o as usize)) {
                return Err(PersistError::Corrupt("string offset splits a character"));
            }
            ColumnData::Str { offsets, bytes }
        }
        4 => {
            expect_rows(n, len, "date column length")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            ColumnData::Date(v)
        }
        5 => {
            expect_rows(n, len, "numeric column length")?;
            let mut mantissa = Vec::with_capacity(n);
            for _ in 0..n {
                mantissa.push(r.i64()?);
            }
            let scale = r.bytes()?.to_vec();
            if scale.len() != mantissa.len() {
                return Err(PersistError::Corrupt("numeric scales"));
            }
            ColumnData::Numeric { mantissa, scale }
        }
        _ => return Err(PersistError::Corrupt("bad column tag")),
    };
    let chunk = ColumnChunk { data, nulls };
    if chunk.len() != len {
        return Err(PersistError::Corrupt("column/bitmap length mismatch"));
    }
    Ok(chunk)
}

fn expect_rows(n: usize, len: usize, what: &'static str) -> Result<()> {
    if n != len {
        return Err(PersistError::Corrupt(what));
    }
    Ok(())
}

fn write_header(w: &mut Writer, h: &TileHeader) {
    w.u32(h.columns.len() as u32);
    for m in &h.columns {
        w.bytes(&m.path.canonical_bytes());
        w.u8(coltype_tag(m.col_type));
        w.u8(m.nullable as u8);
        w.u8(m.other_typed as u8);
    }
    w.bytes(&h.seen_paths.to_bytes());
    w.u32(h.path_frequencies.len() as u32);
    for (p, c) in &h.path_frequencies {
        w.string(p);
        w.u32(*c);
    }
    w.u32(h.sketches.len() as u32);
    for s in &h.sketches {
        w.bytes(&s.to_bytes());
    }
}

fn read_header(r: &mut Reader<'_>) -> Result<TileHeader> {
    // Column: ≥ 8 (path length) + 3 flag bytes.
    let n = r.count32(11, "header columns")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let path = KeyPath::from_canonical_bytes(r.bytes()?)
            .ok_or(PersistError::Corrupt("bad key path"))?;
        let col_type = coltype_from(r.u8()?)?;
        let nullable = r.u8()? != 0;
        let other_typed = r.u8()? != 0;
        columns.push(ColumnMeta {
            path,
            col_type,
            nullable,
            other_typed,
        });
    }
    let bloom =
        BloomFilter::from_bytes(r.bytes()?).ok_or(PersistError::Corrupt("bad bloom filter"))?;
    // Frequency entry: ≥ 8 (path length) + 4 (count).
    let n = r.count32(12, "header frequencies")?;
    let mut freqs = Vec::with_capacity(n);
    for _ in 0..n {
        let p = r.string()?;
        let c = r.u32()?;
        freqs.push((p, c));
    }
    let n = r.count32(8, "header sketches")?;
    if n > columns.len() {
        // Sketches align with columns; statistics aggregation indexes
        // `columns[sketch_index]`.
        return Err(PersistError::Corrupt("header sketch count"));
    }
    let mut sketches = Vec::with_capacity(n);
    for _ in 0..n {
        sketches.push(
            HyperLogLog::from_bytes(r.bytes()?).ok_or(PersistError::Corrupt("bad tile sketch"))?,
        );
    }
    Ok(TileHeader::from_parts(columns, bloom, freqs, sketches))
}

fn write_tile(w: &mut Writer, t: &Tile) {
    w.u64(t.rows as u64);
    w.u64(t.outliers as u64);
    write_header(w, &t.header);
    w.u32(t.columns.len() as u32);
    for c in &t.columns {
        write_column(w, c);
    }
    match &t.jsonb {
        Some(j) => {
            w.u8(1);
            w.u32(j.offsets.len() as u32);
            for o in &j.offsets {
                w.u32(*o);
            }
            w.bytes(&j.buffer);
            w.u32(j.moved.len() as u32);
            for (row, start, len) in &j.moved {
                w.u32(*row);
                w.u32(*start);
                w.u32(*len);
            }
        }
        None => w.u8(0),
    }
    match &t.text {
        Some(rows) => {
            w.u8(1);
            w.u32(rows.len() as u32);
            for s in rows {
                w.string(s);
            }
        }
        None => w.u8(0),
    }
}

fn read_tile(r: &mut Reader<'_>) -> Result<Tile> {
    let rows = r.sane_usize("tile rows")?;
    let outliers = r.sane_usize("outliers")?;
    if outliers > rows {
        return Err(PersistError::Corrupt("outlier count"));
    }
    let header = read_header(r)?;
    let ncols = r.u32()? as usize;
    if ncols != header.columns.len() {
        return Err(PersistError::Corrupt("column count mismatch"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(read_column(r, rows)?);
    }
    let jsonb = if r.u8()? != 0 {
        let n = r.count32(4, "jsonb offsets")?;
        if n != rows + 1 && !(rows == 0 && n <= 1) {
            return Err(PersistError::Corrupt("jsonb offsets"));
        }
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            offsets.push(r.u32()?);
        }
        let buffer = r.bytes()?.to_vec();
        let n_moved = r.count32(12, "moved rows")?;
        let mut moved = Vec::with_capacity(n_moved);
        for _ in 0..n_moved {
            let row = r.u32()?;
            let start = r.u32()?;
            let len = r.u32()?;
            moved.push((row, start, len));
        }
        let col = JsonbColumn {
            offsets,
            buffer,
            moved,
        };
        // Structural + UTF-8 validation of every document, making the
        // unchecked JSONB accessors sound on disk-loaded buffers.
        col.validate_rows().map_err(PersistError::Corrupt)?;
        Some(col)
    } else {
        None
    };
    let text = if r.u8()? != 0 {
        let n = r.count32(8, "text rows")?;
        if n != rows {
            return Err(PersistError::Corrupt("text row count"));
        }
        let mut rows_v = Vec::with_capacity(n);
        for _ in 0..n {
            rows_v.push(r.string()?);
        }
        Some(rows_v)
    } else {
        None
    };
    if jsonb.is_none() && text.is_none() && rows > 0 {
        return Err(PersistError::Corrupt("tile without documents"));
    }
    Ok(Tile {
        header,
        columns,
        jsonb,
        text,
        rows,
        outliers,
    })
}

// ------------------------------------------------------------ top level

impl Relation {
    /// Serialize the relation in the current (v2) format: magic + version,
    /// then checksummed sections for the file header, the statistics, and
    /// each tile (pending inserts are flushed first by [`Relation::save`];
    /// this borrowing variant requires none pending).
    pub fn to_bytes(&self) -> Vec<u8> {
        assert_eq!(
            self.pending_rows(),
            0,
            "flush() before serializing a relation with pending inserts"
        );
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut w = Writer::new();
        write_config(&mut w, &self.config);
        w.u32(self.tiles.len() as u32);
        write_section(&mut out, &w.buf);
        let mut w = Writer::new();
        write_stats(&mut w, &self.stats);
        write_section(&mut out, &w.buf);
        for t in &self.tiles {
            let mut w = Writer::new();
            write_tile(&mut w, t);
            write_section(&mut out, &w.buf);
        }
        out
    }

    /// Serialize in the legacy v1 layout (unframed, no checksums). Kept so
    /// the compatibility path stays exercised; new files should use
    /// [`Relation::to_bytes`].
    #[doc(hidden)]
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        assert_eq!(
            self.pending_rows(),
            0,
            "flush() before serializing a relation with pending inserts"
        );
        let mut w = Writer::new();
        w.buf.extend_from_slice(MAGIC);
        w.u16(LEGACY_VERSION);
        write_config(&mut w, &self.config);
        write_stats(&mut w, &self.stats);
        w.u32(self.tiles.len() as u32);
        for t in &self.tiles {
            write_tile(&mut w, t);
        }
        w.buf
    }

    /// Deserialize a relation produced by [`Relation::to_bytes`] (v2) or by
    /// the legacy v1 writer, rejecting any damage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Relation> {
        Relation::from_bytes_with(bytes, &OpenOptions::default())
    }

    /// Deserialize with an explicit corrupt-tile policy. See
    /// [`OpenOptions`] and [`CorruptTilePolicy`]; v1 files are always
    /// fail-fast since they carry no checksums to localize damage.
    pub fn from_bytes_with(bytes: &[u8], options: &OpenOptions) -> Result<Relation> {
        let mut r = Reader::new(bytes);
        if r.take(6)? != MAGIC {
            return Err(PersistError::Corrupt("bad magic"));
        }
        match r.u16()? {
            LEGACY_VERSION => decode_v1(&mut r),
            VERSION => decode_v2(&mut r, options),
            v => Err(PersistError::Version(v)),
        }
    }

    /// Flush pending inserts and write the relation to `path` atomically:
    /// the bytes go to a temporary file in the same directory, are fsynced,
    /// and are renamed over `path`, so a crash mid-save leaves any previous
    /// file intact and never exposes a half-written one.
    pub fn save(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        self.flush();
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Borrowing [`Relation::save`] for immutable generations: writes the
    /// relation to `path` with the same atomic temp-file + rename protocol
    /// but without flushing (the relation must have no pending inserts —
    /// generation builders like [`Relation::with_appended`] never do).
    /// This is what lets a service checkpoint an `Arc<Relation>` it shares
    /// with in-flight queries.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Read a relation written by [`Relation::save`], rejecting any damage.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Relation> {
        Relation::open_with(path, &OpenOptions::default())
    }

    /// Read a relation with an explicit corrupt-tile policy; with
    /// [`CorruptTilePolicy::Skip`] a file with damaged tiles still opens
    /// and reports the quarantined tile indices in
    /// [`LoadMetrics::quarantined`].
    pub fn open_with(path: impl AsRef<std::path::Path>, options: &OpenOptions) -> Result<Relation> {
        let bytes = std::fs::read(path)?;
        Relation::from_bytes_with(&bytes, options)
    }
}

/// Decode the legacy v1 layout: config, stats, tile count, tiles, all
/// unframed. No checksums exist, so any decode failure fails the open.
fn decode_v1(r: &mut Reader<'_>) -> Result<Relation> {
    let config = read_config(r)?;
    let stats = read_stats(r)?;
    let n_tiles = r.count32(8, "tile count")?;
    let mut tiles = Vec::with_capacity(n_tiles);
    let mut tile_offsets = Vec::with_capacity(n_tiles);
    let mut offset = 0usize;
    for _ in 0..n_tiles {
        let t = read_tile(r)?;
        tile_offsets.push(offset);
        offset += t.len();
        tiles.push(t);
    }
    if offset != stats.rows {
        return Err(PersistError::Corrupt("row count mismatch"));
    }
    if !r.done() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(Relation {
        config,
        tiles,
        tile_offsets,
        stats,
        metrics: LoadMetrics::default(),
        pending: Default::default(),
    })
}

/// Decode the v2 framed layout. Damage to the file-header or statistics
/// sections always fails; damaged tile sections honor the policy.
fn decode_v2(r: &mut Reader<'_>, options: &OpenOptions) -> Result<Relation> {
    let mut open_header = SectionIo::default();
    let mut open_stats = SectionIo::default();
    let mut open_tiles = SectionIo::default();
    let meta = read_section(r, &mut open_header).map_err(SectionError::into_inner)?;
    let mut mr = Reader::new(&meta);
    let config = read_config(&mut mr)?;
    let n_tiles = mr.u32()? as usize;
    if !mr.done() {
        return Err(PersistError::Corrupt("file header section size"));
    }
    // Each tile occupies at least one frame in the remaining bytes.
    if n_tiles > r.remaining() / FRAME_OVERHEAD + 1 {
        return Err(PersistError::Corrupt("tile count"));
    }

    let stats_payload = read_section(r, &mut open_stats).map_err(SectionError::into_inner)?;
    let mut sr = Reader::new(&stats_payload);
    let mut stats = read_stats(&mut sr)?;
    if !sr.done() {
        return Err(PersistError::Corrupt("stats section size"));
    }

    let mut tiles = Vec::with_capacity(n_tiles);
    let mut quarantined = Vec::new();
    let mut truncated = false;
    for i in 0..n_tiles {
        let tile = match read_section(r, &mut open_tiles) {
            Ok(payload) => {
                let mut tr = Reader::new(&payload);
                let decoded = read_tile(&mut tr).and_then(|t| {
                    if tr.done() {
                        Ok(t)
                    } else {
                        Err(PersistError::Corrupt("tile section trailing bytes"))
                    }
                });
                match decoded {
                    Ok(t) => Some(t),
                    Err(e) => match options.on_corrupt_tile {
                        CorruptTilePolicy::Fail => return Err(e),
                        CorruptTilePolicy::Skip => None,
                    },
                }
            }
            Err(SectionError::Damaged(e)) => match options.on_corrupt_tile {
                CorruptTilePolicy::Fail => return Err(e),
                CorruptTilePolicy::Skip => None,
            },
            Err(SectionError::Truncated(e)) => match options.on_corrupt_tile {
                CorruptTilePolicy::Fail => return Err(e),
                CorruptTilePolicy::Skip => {
                    // Nothing after a torn frame is locatable: quarantine
                    // this and every remaining tile.
                    quarantined.extend(i..n_tiles);
                    truncated = true;
                    break;
                }
            },
        };
        match tile {
            Some(t) => tiles.push(t),
            None => quarantined.push(i),
        }
    }
    if !truncated && !r.done() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }

    let mut tile_offsets = Vec::with_capacity(tiles.len());
    let mut offset = 0usize;
    for t in &tiles {
        tile_offsets.push(offset);
        offset += t.len();
    }
    if quarantined.is_empty() {
        if offset != stats.rows {
            return Err(PersistError::Corrupt("row count mismatch"));
        }
    } else {
        // Surviving rows only; the approximate statistics (frequency
        // counters, sketches) still describe the full relation.
        stats.rows = offset;
    }
    let metrics = LoadMetrics {
        quarantined,
        open_header,
        open_stats,
        open_tiles,
        ..LoadMetrics::default()
    };
    metrics.publish();
    Ok(Relation {
        config,
        tiles,
        tile_offsets,
        stats,
        metrics,
        pending: Default::default(),
    })
}

/// Crash-safe file replacement: write to a unique temporary file in the
/// destination directory, fsync it, rename over the destination, then
/// fsync the directory so the rename itself is durable.
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);

    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "not a file path"))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(dir) {
            // Directory fsync can fail on exotic filesystems; the data
            // fsync above already happened, so treat this as best-effort.
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}
