//! # jt-data — deterministic workload generators (paper §6)
//!
//! The paper evaluates on four data sets plus a suite of standard JSON
//! files. Two of them (the 31 GB Twitter stream grab and the 9 GB Yelp
//! dump) are not redistributable, so this crate generates synthetic
//! equivalents that preserve the *structural* properties every experiment
//! depends on — key-set evolution, heterogeneous document types, optional
//! sub-objects, high-cardinality arrays — at a configurable laptop scale.
//! DESIGN.md documents each substitution.
//!
//! * [`tpch`] — JSONized TPC-H (§6.1): every row of the 8 relations becomes
//!   an object keyed by column names; `combined` interleaves all relations
//!   into one collection, `shuffled` destroys all spatial locality (§6.4).
//! * [`yelp`] — Yelp-like businesses / reviews / users / tips (§6.2).
//! * [`twitter`] — tweets with the 2006→2013 attribute evolution of the
//!   paper's running example, ~12% structurally-disjoint delete records and
//!   high-cardinality `hashtags` / `user_mentions` arrays (§6.3).
//! * [`hackernews`] — the news-item mix of Figure 3 (story / poll / pollop /
//!   comment), the worst case for global extraction.
//! * [`simdjson`] — synthetic stand-ins for the eight SIMD-JSON test files
//!   used by the binary-format comparison (§6.9).
//!
//! All generators are pure functions of their config (fixed RNG seeds), so
//! every experiment is exactly reproducible.

pub mod hackernews;
pub mod simdjson;
pub mod tpch;
pub mod twitter;
pub mod yelp;

use jt_json::Value;

/// Render a collection of documents as newline-delimited JSON.
pub fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::with_capacity(docs.len() * 64);
    for d in docs {
        out.push_str(&jt_json::to_string(d));
        out.push('\n');
    }
    out
}

/// Result of a lenient NDJSON parse: the documents that parsed, plus an
/// account of the lines that did not.
#[derive(Debug, Default)]
pub struct NdjsonLoad {
    /// Documents from every well-formed line, in input order.
    pub docs: Vec<Value>,
    /// Number of malformed lines skipped.
    pub skipped: usize,
    /// `(1-based line number, parse error)` for the first few malformed
    /// lines — enough to diagnose a bad feed without flooding logs when a
    /// file is systematically broken.
    pub errors: Vec<(usize, String)>,
}

/// Maximum malformed-line diagnostics retained by [`from_ndjson`].
const MAX_REPORTED_ERRORS: usize = 32;

/// Parse newline-delimited JSON leniently: blank lines are ignored,
/// malformed lines are skipped and counted rather than aborting the load.
/// Real NDJSON feeds (log shippers, API exports) routinely contain a
/// handful of truncated or garbled lines; losing the whole file to one of
/// them is the wrong trade for analytics ingestion.
pub fn from_ndjson(text: &str) -> NdjsonLoad {
    let _span = jt_obs::span!("ingest.parse.ns");
    let mut load = NdjsonLoad::default();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match jt_json::parse(line) {
            Ok(d) => load.docs.push(d),
            Err(e) => {
                load.skipped += 1;
                if load.errors.len() < MAX_REPORTED_ERRORS {
                    load.errors.push((no + 1, e.to_string()));
                }
            }
        }
    }
    jt_obs::counter_add!("ingest.docs_parsed", load.docs.len() as u64);
    jt_obs::counter_add!("ingest.docs_skipped", load.skipped as u64);
    load
}

/// On-demand NDJSON ingestion (paper §4.3): read the feed's raw bytes and
/// hand them to [`jt_core::Relation::try_load_ondemand`] — structural-index
/// parsing, structure-hash shape dedup, weighted mining, lazy extraction.
/// Produces a relation bit-identical to `from_ndjson` + `Relation::load`, and
/// an [`jt_core::IngestReport`] with per-phase wall times and the skipped
/// line diagnostics (same 1-based numbering as [`NdjsonLoad::errors`]).
pub fn ingest_ndjson_ondemand<R: std::io::Read>(
    mut reader: R,
    config: jt_core::TilesConfig,
    threads: usize,
) -> std::io::Result<(jt_core::Relation, jt_core::IngestReport)> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    jt_core::Relation::try_load_ondemand(&data, config, threads).map_err(std::io::Error::other)
}

/// Deterministically shuffle documents (Fisher–Yates with a fixed-seed
/// xorshift), used by the shuffled-TPC-H robustness experiment (§6.4).
pub fn shuffle(docs: &mut [Value], seed: u64) {
    // Pre-mix the seed so adjacent seeds give unrelated streams, and keep
    // the xorshift state nonzero.
    let mut state = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..docs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        docs.swap(i, j);
    }
}

/// Helper: build an object value tersely.
pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_round_trips() {
        let docs = vec![
            obj(vec![("a", Value::int(1))]),
            obj(vec![("b", Value::str("x"))]),
        ];
        let text = to_ndjson(&docs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(jt_json::parse(lines[0]).unwrap(), docs[0]);
    }

    #[test]
    fn ondemand_ingestion_matches_eager_pipeline() {
        let docs: Vec<Value> = (0..50)
            .map(|i| obj(vec![("id", Value::int(i)), ("name", Value::str("x"))]))
            .collect();
        let text = to_ndjson(&docs);
        let config = jt_core::TilesConfig {
            tile_size: 8,
            partition_size: 2,
            ..jt_core::TilesConfig::default()
        };
        let eager = jt_core::Relation::load(&from_ndjson(&text).docs, config);
        let (rel, report) =
            ingest_ndjson_ondemand(std::io::Cursor::new(text.as_bytes()), config, 1).unwrap();
        assert_eq!(rel.row_count(), eager.row_count());
        assert_eq!(report.docs, 50);
        assert_eq!(report.distinct_shapes, 1);
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let base: Vec<Value> = (0..100).map(Value::int).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        shuffle(&mut a, 42);
        shuffle(&mut b, 42);
        assert_eq!(a, b, "same seed, same permutation");
        assert_ne!(a, base, "shuffle must move things");
        let mut sorted = a.clone();
        sorted.sort_by_key(|v| v.as_i64());
        assert_eq!(sorted, base, "must be a permutation");
        let mut c = base.clone();
        shuffle(&mut c, 43);
        assert_ne!(a, c, "different seeds differ");
    }
}
