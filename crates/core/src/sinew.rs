//! Sinew-style global extraction (Tahara et al. [57]; paper §6 baseline).
//!
//! Sinew mines one schema for the *whole table*: every `(key path, type)`
//! pair present in at least 60% of all documents becomes a column, shared
//! by every tile. This is the approach JSON tiles improves on — it misses
//! locally-frequent structures (the HackerNews/Figure 3 case) and any key
//! below the global threshold falls back to binary access everywhere.

use crate::path::KeyPath;
use crate::tile::ColType;
use std::collections::HashMap;

/// Compute the global extraction schema: typed paths whose table frequency
/// reaches `threshold` (Sinew's original 60%). `shapes` pairs each distinct
/// document shape's typed leaves (traversal order, duplicates possible) with
/// its document count, `total` is the table's document count. Per-shape
/// dedup plus weighted counting is exactly per-document counting.
pub fn global_schema_weighted(
    shapes: &[(&[(KeyPath, ColType)], u32)],
    total: usize,
    threshold: f64,
) -> Vec<(KeyPath, ColType)> {
    let mut counts: HashMap<(KeyPath, ColType), u32> = HashMap::new();
    for (items, w) in shapes {
        let mut seen: Vec<(&KeyPath, ColType)> = Vec::new();
        for (p, t) in items.iter() {
            if !seen.contains(&(p, *t)) {
                seen.push((p, *t));
                *counts.entry((p.clone(), *t)).or_insert(0) += w;
            }
        }
    }
    let min = (threshold * total as f64).ceil() as u32;
    let mut schema: Vec<(KeyPath, ColType)> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min.max(1))
        .map(|(k, _)| k)
        .collect();
    schema.sort();
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::collect_leaves;
    use crate::TilesConfig;
    use jt_json::parse;

    /// The 60% schema over `docs`, one shape per document.
    fn schema_of(docs: &[&str]) -> Vec<(KeyPath, ColType)> {
        let cfg = TilesConfig::default();
        let items: Vec<Vec<(KeyPath, ColType)>> = docs
            .iter()
            .map(|d| {
                collect_leaves(&parse(d).unwrap(), &cfg)
                    .leaves
                    .into_iter()
                    .map(|(p, l)| (p, l.col_type()))
                    .collect()
            })
            .collect();
        let shapes: Vec<(&[(KeyPath, ColType)], u32)> =
            items.iter().map(|i| (i.as_slice(), 1)).collect();
        global_schema_weighted(&shapes, docs.len(), 0.6)
    }

    #[test]
    fn global_threshold_is_table_wide() {
        // "id" in all 5 docs, "geo" in 2/5 (40% < 60%).
        let schema = schema_of(&[
            r#"{"id":1}"#,
            r#"{"id":2}"#,
            r#"{"id":3,"geo":1.5}"#,
            r#"{"id":4,"geo":2.5}"#,
            r#"{"id":5}"#,
        ]);
        assert_eq!(schema.len(), 1);
        assert_eq!(schema[0].0, KeyPath::keys(&["id"]));
        assert_eq!(schema[0].1, ColType::Int);
    }

    #[test]
    fn misses_locally_frequent_structures() {
        // Two disjoint halves: every key is at exactly 50% table frequency.
        // Sinew extracts nothing — the scenario JSON tiles fixes (§3.1).
        let docs: Vec<String> = (0..20)
            .map(|i| {
                if i < 10 {
                    format!(r#"{{"a":{i},"b":{i}}}"#)
                } else {
                    format!(r#"{{"x":{i},"y":{i}}}"#)
                }
            })
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let schema = schema_of(&refs);
        assert!(schema.is_empty(), "50% < 60% everywhere: {schema:?}");
    }

    #[test]
    fn types_split_frequencies() {
        // "v" is int in 50% and float in 50%: neither variant reaches 60%.
        let docs: Vec<String> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    format!(r#"{{"v":{i}}}"#)
                } else {
                    format!(r#"{{"v":{i}.5}}"#)
                }
            })
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let schema = schema_of(&refs);
        assert!(schema.is_empty(), "{schema:?}");
    }

    #[test]
    fn empty_input() {
        assert!(schema_of(&[]).is_empty());
    }
}
