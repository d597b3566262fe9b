//! The table scan operator (paper §4.2, §4.5, §4.8).
//!
//! Scans are morsel-parallel over tiles. For each tile the scan:
//!
//! 1. applies the §4.8 skipping test — if a null-rejecting predicate or
//!    join key references a path the tile neither extracted nor saw
//!    (Bloom filter), the tile produces nothing;
//! 2. resolves every pushed-down access once (§4.5);
//! 3. runs vectorized: pushed-down conjuncts compile to typed columnar
//!    kernels ([`crate::kernel`]) that refine a selection vector directly
//!    over the tile's column storage, ordered by estimated selectivity;
//!    conjuncts no kernel covers are evaluated by the batched residual
//!    interpreter over gathered slot vectors;
//! 4. late-materializes the output: surviving rows are gathered per column
//!    ([`jt_core::ColumnChunk::gather`]) instead of evaluated row by row.
//!
//! [`execute_scan_rowwise`] keeps the original row-at-a-time loop as an
//! oracle: it must return bit-identical results, which the property tests
//! check across storage modes and thread counts.

use crate::access::{eval_access, gather_access, resolve_access, Access, ResolvedAccess};
use crate::cancel::CancelToken;
use crate::expr::Expr;
use crate::kernel::{self, SelVec};
use crate::scalar::Scalar;
use crate::Chunk;
use jt_core::{KeyPath, Relation, SkipEvidence, StorageMode, Tile};

/// A fully-specified scan.
pub struct ScanSpec<'a> {
    /// The relation to scan.
    pub relation: &'a Relation,
    /// Pushed-down accesses; output slot `i` is `accesses[i]`.
    pub accesses: Vec<Access>,
    /// Pushed-down filter over the access slots (already resolved).
    pub filter: Option<Expr>,
    /// Paths referenced by null-rejecting predicates or join keys — the
    /// §4.8 candidates for tile skipping.
    pub skip_paths: Vec<KeyPath>,
    /// The `no Skip` ablation switch (Figure 14).
    pub enable_skipping: bool,
    /// Row bound from the planner's bound-propagation pass: each worker
    /// stops scanning new tiles once it has produced this many output rows.
    /// The result is a per-worker prefix (≥ the bound, or complete), so the
    /// concatenated output's first `limit_hint` rows are bit-identical to
    /// the unbounded scan's at every thread count; rows past the bound are
    /// not contractual and the caller must truncate.
    pub limit_hint: Option<usize>,
}

/// Scan counters for the skipping experiments and `EXPLAIN ANALYZE`.
///
/// Two identities hold for every scan (checked by `debug_assert` in the
/// executor and by the observability integration tests):
///
/// * `scanned_tiles + skipped_tiles == total_tiles`
/// * `rows_kernel + rows_batched + rows_exact + rows_passthrough ==
///   rows_scanned`
///
/// Row attribution is *first-touch*: each row of a scanned tile is counted
/// once, under whichever evaluation stage saw it first — a typed columnar
/// kernel (`rows_kernel`), the exact row-wise fallback inside a kernel
/// (`rows_exact`), the batched residual interpreter when no kernel compiled
/// (`rows_batched`), or no filter at all (`rows_passthrough`). The
/// `*_evals` counters are totals across all stages, not first-touch.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScanStats {
    /// Tiles actually scanned.
    pub scanned_tiles: usize,
    /// Tiles skipped by the §4.8 test.
    pub skipped_tiles: usize,
    /// All tiles the scan considered (`scanned + skipped`).
    pub total_tiles: usize,
    /// Skipped tiles whose absence proof came from the exact per-tile
    /// path-frequency statistics.
    pub skipped_header_stats: usize,
    /// Skipped tiles proven empty by the Bloom filter over seen paths.
    pub skipped_bloom: usize,
    /// Tiles never scanned because the worker already produced
    /// [`ScanSpec::limit_hint`] rows (no absence evidence involved).
    pub skipped_bound: usize,
    /// Rows in scanned (non-skipped) tiles.
    pub rows_scanned: u64,
    /// Rows whose first filter evaluation ran in a typed kernel arm.
    pub rows_kernel: u64,
    /// Rows whose first evaluation was the batched residual interpreter
    /// (a filter none of whose conjuncts compiled to kernels).
    pub rows_batched: u64,
    /// Rows whose first evaluation was the exact row-wise fallback (null
    /// fallback entries, unspecialized ops, and the row-wise oracle).
    pub rows_exact: u64,
    /// Rows of scanned tiles with no filter to evaluate.
    pub rows_passthrough: u64,
    /// Rows surviving the filter (the scan's output).
    pub rows_out: u64,
    /// Total typed-kernel row evaluations across all kernels.
    pub kernel_evals: u64,
    /// Total batched-residual row evaluations.
    pub residual_evals: u64,
    /// Total exact row-wise evaluations (inside kernels and the oracle).
    pub exact_evals: u64,
}

impl ScanStats {
    /// Fold `other` into `self` (per-tile and per-table accumulation).
    pub fn merge(&mut self, other: &ScanStats) {
        self.scanned_tiles += other.scanned_tiles;
        self.skipped_tiles += other.skipped_tiles;
        self.total_tiles += other.total_tiles;
        self.skipped_header_stats += other.skipped_header_stats;
        self.skipped_bloom += other.skipped_bloom;
        self.skipped_bound += other.skipped_bound;
        self.rows_scanned += other.rows_scanned;
        self.rows_kernel += other.rows_kernel;
        self.rows_batched += other.rows_batched;
        self.rows_exact += other.rows_exact;
        self.rows_passthrough += other.rows_passthrough;
        self.rows_out += other.rows_out;
        self.kernel_evals += other.kernel_evals;
        self.residual_evals += other.residual_evals;
        self.exact_evals += other.exact_evals;
    }

    /// Rows accounted for by first-touch attribution; equals
    /// [`ScanStats::rows_scanned`] for every scan.
    pub fn rows_attributed(&self) -> u64 {
        self.rows_kernel + self.rows_batched + self.rows_exact + self.rows_passthrough
    }
}

/// Execute a scan with `threads` workers. Output rows preserve tile order
/// regardless of thread count, so results are deterministic. A scan with
/// no accesses (`COUNT(*)`) returns one all-null column, because a
/// zero-width chunk cannot carry a row count.
pub fn execute_scan(spec: &ScanSpec<'_>, threads: usize) -> (Chunk, ScanStats) {
    run_scan(spec, threads, false, &CancelToken::none())
}

/// [`execute_scan`] polling `cancel` before every tile — the scan's morsel
/// boundary. Once the token trips, remaining tiles are counted as skipped
/// and produce no rows; the caller is expected to discard the truncated
/// chunk by checking the token after the scan.
pub fn execute_scan_cancellable(
    spec: &ScanSpec<'_>,
    threads: usize,
    cancel: &CancelToken,
) -> (Chunk, ScanStats) {
    run_scan(spec, threads, false, cancel)
}

/// The row-at-a-time reference implementation: identical results to
/// [`execute_scan`], kept as the correctness oracle and the baseline the
/// kernel micro-benchmarks compare against.
pub fn execute_scan_rowwise(spec: &ScanSpec<'_>, threads: usize) -> (Chunk, ScanStats) {
    run_scan(spec, threads, true, &CancelToken::none())
}

fn run_scan(
    spec: &ScanSpec<'_>,
    threads: usize,
    rowwise: bool,
    cancel: &CancelToken,
) -> (Chunk, ScanStats) {
    let tiles = spec.relation.tiles();
    let mode = spec.relation.config().mode;
    let threads = threads.max(1).min(tiles.len().max(1));

    let scan_tile = |tile_idx: usize| -> (Option<Chunk>, ScanStats) {
        let tile = &tiles[tile_idx];
        let mut ts = ScanStats {
            total_tiles: 1,
            ..ScanStats::default()
        };
        // Morsel-boundary cancellation: an aborted query counts its
        // remaining tiles as skipped (keeping the tile-accounting identity)
        // and emits nothing for them.
        if cancel.is_cancelled() {
            ts.skipped_tiles = 1;
            return (None, ts);
        }
        // §4.8: "if the expression is not found and null values are skipped
        // or evaluated as false, the whole JSON tile has no valuable
        // information". Only tiles-mode headers carry the needed metadata.
        if spec.enable_skipping && mode == StorageMode::Tiles {
            for path in &spec.skip_paths {
                if let Some(evidence) = tile.skip_evidence(path) {
                    ts.skipped_tiles = 1;
                    match evidence {
                        SkipEvidence::HeaderStats => ts.skipped_header_stats = 1,
                        SkipEvidence::BloomFilter => ts.skipped_bloom = 1,
                    }
                    return (None, ts);
                }
            }
        }
        ts.scanned_tiles = 1;
        ts.rows_scanned = tile.len() as u64;
        let plans: Vec<_> = spec
            .accesses
            .iter()
            .map(|a| resolve_access(tile, a, mode))
            .collect();
        let chunk = if rowwise {
            scan_tile_rowwise(spec, tile, &plans, &mut ts)
        } else {
            scan_tile_vectorized(spec, tile, &plans, &mut ts)
        };
        ts.rows_out = chunk.rows() as u64;
        (Some(chunk), ts)
    };

    // One worker's contiguous tile range, with the planner's row-bound
    // early exit: once this worker has emitted `limit_hint` rows, its
    // remaining tiles are counted as bound-skipped and produce nothing.
    // Each worker's output is therefore a prefix (≥ the bound, or
    // complete) of its unbounded output, and ranges concatenate in tile
    // order — the global first `limit_hint` rows match the unbounded scan.
    let scan_range = |range: std::ops::Range<usize>| -> Vec<(Option<Chunk>, ScanStats)> {
        let mut out = Vec::with_capacity(range.len());
        let mut emitted = 0usize;
        for tile_idx in range {
            if spec.limit_hint.is_some_and(|b| emitted >= b) {
                out.push((
                    None,
                    ScanStats {
                        total_tiles: 1,
                        skipped_tiles: 1,
                        skipped_bound: 1,
                        ..ScanStats::default()
                    },
                ));
                continue;
            }
            let r = scan_tile(tile_idx);
            if let (Some(c), _) = &r {
                emitted += c.rows();
            }
            out.push(r);
        }
        out
    };

    // Parallelize only when there is enough work to amortize thread spawns;
    // each worker owns a contiguous tile range and writes into its own
    // output vector, so no synchronization happens on the hot path.
    let results: Vec<(Option<Chunk>, ScanStats)> = if threads <= 1 || tiles.len() < threads * 2 {
        scan_range(0..tiles.len())
    } else {
        let per = tiles.len().div_ceil(threads);
        let ranges: Vec<std::ops::Range<usize>> = (0..threads)
            .map(|t| (t * per).min(tiles.len())..((t + 1) * per).min(tiles.len()))
            .collect();
        let mut parts: Vec<Vec<(Option<Chunk>, ScanStats)>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| scope.spawn(|| scan_range(range)))
                .collect();
            for h in handles {
                parts.push(h.join().expect("scan worker panicked"));
            }
        });
        parts.into_iter().flatten().collect()
    };

    let mut stats = ScanStats::default();
    let mut chunk = Chunk::empty(spec.accesses.len());
    for (r, ts) in results {
        stats.merge(&ts);
        if let Some(c) = r {
            chunk.append(c);
        }
    }
    debug_assert_eq!(
        stats.scanned_tiles + stats.skipped_tiles,
        stats.total_tiles,
        "every tile must be either scanned or skipped"
    );
    debug_assert_eq!(
        stats.rows_attributed(),
        stats.rows_scanned,
        "first-touch attribution must cover every scanned row"
    );
    jt_obs::counter_add!("query.scan.tiles_total", stats.total_tiles as u64);
    jt_obs::counter_add!("query.scan.tiles_scanned", stats.scanned_tiles as u64);
    jt_obs::counter_add!("query.scan.tiles_skipped", stats.skipped_tiles as u64);
    jt_obs::counter_add!(
        "query.scan.tiles_skipped_header_stats",
        stats.skipped_header_stats as u64
    );
    jt_obs::counter_add!("query.scan.tiles_skipped_bloom", stats.skipped_bloom as u64);
    jt_obs::counter_add!("query.scan.tiles_skipped_bound", stats.skipped_bound as u64);
    jt_obs::counter_add!("query.scan.rows_scanned", stats.rows_scanned);
    jt_obs::counter_add!("query.scan.rows_kernel", stats.rows_kernel);
    jt_obs::counter_add!("query.scan.rows_batched", stats.rows_batched);
    jt_obs::counter_add!("query.scan.rows_exact", stats.rows_exact);
    jt_obs::counter_add!("query.scan.rows_passthrough", stats.rows_passthrough);
    jt_obs::counter_add!("query.scan.rows_out", stats.rows_out);
    (chunk, stats)
}

/// The vectorized inner loop: selection vector → typed kernels → batched
/// residual → late-materialized gather. Fills first-touch row attribution
/// and per-stage evaluation totals into `stats`.
fn scan_tile_vectorized(
    spec: &ScanSpec<'_>,
    tile: &Tile,
    plans: &[ResolvedAccess],
    stats: &mut ScanStats,
) -> Chunk {
    let n = spec.accesses.len();
    let mut sel: SelVec = (0..tile.len() as u32).collect();
    let tk = kernel::compile(spec.filter.as_ref(), &spec.accesses, plans, tile);
    match &spec.filter {
        None => stats.rows_passthrough += tile.len() as u64,
        // A filter none of whose conjuncts kernelized: every row's first
        // evaluation happens in the batched residual interpreter.
        Some(_) if tk.kernels.is_empty() => stats.rows_batched += tile.len() as u64,
        Some(_) => {}
    }
    let mut first = true;
    for k in &tk.kernels {
        if sel.is_empty() {
            break;
        }
        let before = sel.len() as u64;
        let exact = k.apply(tile, &spec.accesses, &mut sel);
        stats.kernel_evals += before - exact;
        stats.exact_evals += exact;
        if first {
            // The first kernel sees every row of the tile exactly once;
            // partition them into typed-arm vs exact-fallback first touches.
            stats.rows_kernel += before - exact;
            stats.rows_exact += exact;
            first = false;
        }
    }
    // Residual conjuncts: gather the slots they read for the surviving
    // rows, evaluate batch-at-a-time, and compact both the selection
    // vector and the already-gathered slot vectors by the result mask —
    // those vectors double as output columns below.
    let mut cols: Vec<Vec<Scalar>> = vec![Vec::new(); n];
    let mut gathered = vec![false; n];
    if let Some(f) = &tk.residual {
        if !sel.is_empty() {
            stats.residual_evals += sel.len() as u64;
            for &i in &f.referenced_slots() {
                cols[i] = gather_access(tile, plans[i], &spec.accesses[i], &sel);
                gathered[i] = true;
            }
            let mask = f.eval_batch(&cols, sel.len());
            let mut w = 0;
            for (i, m) in mask.iter().enumerate() {
                if matches!(m, Scalar::Bool(true)) {
                    sel.swap(w, i);
                    if w != i {
                        for c in cols.iter_mut() {
                            if !c.is_empty() {
                                c.swap(w, i);
                            }
                        }
                    }
                    w += 1;
                }
            }
            sel.truncate(w);
            for c in cols.iter_mut() {
                c.truncate(w.min(c.len()));
            }
        }
    }
    let mut out = Chunk::empty(n);
    for i in 0..n {
        out.columns[i] = if gathered[i] {
            std::mem::take(&mut cols[i])
        } else {
            gather_access(tile, plans[i], &spec.accesses[i], &sel)
        };
    }
    if n == 0 {
        out.columns.push(vec![Scalar::Null; sel.len()]);
    }
    out
}

/// The original row-at-a-time loop, with late materialization of
/// non-filter slots. Every filtered row is an exact evaluation; with no
/// filter the rows pass through.
fn scan_tile_rowwise(
    spec: &ScanSpec<'_>,
    tile: &Tile,
    plans: &[ResolvedAccess],
    stats: &mut ScanStats,
) -> Chunk {
    if spec.filter.is_some() {
        stats.rows_exact += tile.len() as u64;
        stats.exact_evals += tile.len() as u64;
    } else {
        stats.rows_passthrough += tile.len() as u64;
    }
    let filter_slots: Vec<bool> = match &spec.filter {
        Some(f) => {
            let used = f.referenced_slots();
            (0..spec.accesses.len())
                .map(|i| used.contains(&i))
                .collect()
        }
        None => vec![false; spec.accesses.len()],
    };
    // With no accesses, the one all-null column counts the rows.
    let width = spec.accesses.len().max(1);
    let mut out = Chunk::empty(width);
    let mut row_buf: Vec<Scalar> = vec![Scalar::Null; width];
    for row in 0..tile.len() {
        if let Some(f) = &spec.filter {
            for (i, (a, p)) in spec.accesses.iter().zip(plans).enumerate() {
                if filter_slots[i] {
                    row_buf[i] = eval_access(tile, *p, a, row);
                }
            }
            // The filter sees exactly the access slots of this scan.
            if !f.eval_row_bool(&row_buf) {
                continue;
            }
        }
        for (i, (a, p)) in spec.accesses.iter().zip(plans).enumerate() {
            if !filter_slots[i] {
                row_buf[i] = eval_access(tile, *p, a, row);
            }
        }
        for (c, v) in out.columns.iter_mut().zip(row_buf.iter_mut()) {
            c.push(std::mem::replace(v, Scalar::Null));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, lit_str};
    use jt_core::{AccessType, Relation, TilesConfig};
    use jt_json::Value;

    fn split_docs() -> Vec<Value> {
        // First half: {a}, second half: {b} — disjoint structures in
        // separate tiles (tile size 64, no reordering needed, data ordered).
        (0..256)
            .map(|i| {
                if i < 128 {
                    jt_json::parse(&format!(r#"{{"a":{i}}}"#)).unwrap()
                } else {
                    jt_json::parse(&format!(r#"{{"b":{i}}}"#)).unwrap()
                }
            })
            .collect()
    }

    fn config() -> TilesConfig {
        TilesConfig {
            tile_size: 64,
            partition_size: 1,
            ..TilesConfig::default()
        }
    }

    #[test]
    fn skipping_eliminates_tiles_without_matches() {
        let rel = Relation::load(&split_docs(), config());
        let mut filter = col("a").gt(lit(-1));
        filter.resolve(&|_| 0);
        let spec = ScanSpec {
            relation: &rel,
            accesses: vec![Access::new("a", "a", AccessType::Int)],
            filter: Some(filter),
            skip_paths: vec![crate::access::parse_dotted_path("a")],
            enable_skipping: true,
            limit_hint: None,
        };
        let (chunk, stats) = execute_scan(&spec, 1);
        assert_eq!(chunk.rows(), 128, "all a-rows found");
        assert_eq!(stats.skipped_tiles, 2, "b-tiles skipped");
        assert_eq!(stats.scanned_tiles, 2);
    }

    #[test]
    fn skipping_disabled_scans_everything() {
        let rel = Relation::load(&split_docs(), config());
        let mut filter = col("a").gt(lit(-1));
        filter.resolve(&|_| 0);
        let spec = ScanSpec {
            relation: &rel,
            accesses: vec![Access::new("a", "a", AccessType::Int)],
            filter: Some(filter),
            skip_paths: vec![crate::access::parse_dotted_path("a")],
            enable_skipping: false,
            limit_hint: None,
        };
        let (chunk, stats) = execute_scan(&spec, 1);
        assert_eq!(chunk.rows(), 128, "same result");
        assert_eq!(stats.skipped_tiles, 0);
        assert_eq!(stats.scanned_tiles, 4);
    }

    #[test]
    fn skipping_never_changes_results() {
        let rel = Relation::load(&split_docs(), config());
        for threads in [1, 4] {
            let mut with_skip = None;
            for enable in [true, false] {
                let mut filter = col("a").ge(lit(100));
                filter.resolve(&|_| 0);
                let spec = ScanSpec {
                    relation: &rel,
                    accesses: vec![Access::new("a", "a", AccessType::Int)],
                    filter: Some(filter),
                    skip_paths: vec![crate::access::parse_dotted_path("a")],
                    enable_skipping: enable,
                    limit_hint: None,
                };
                let (chunk, _) = execute_scan(&spec, threads);
                let vals: Vec<Option<i64>> = chunk.columns[0].iter().map(Scalar::as_i64).collect();
                match &with_skip {
                    None => with_skip = Some(vals),
                    Some(prev) => assert_eq!(prev, &vals, "threads={threads}"),
                }
            }
        }
    }

    #[test]
    fn parallel_scan_deterministic_order() {
        let rel = Relation::load(&split_docs(), config());
        let make_spec = || ScanSpec {
            relation: &rel,
            accesses: vec![
                Access::new("a", "a", AccessType::Int),
                Access::new("b", "b", AccessType::Int),
            ],
            filter: None,
            skip_paths: vec![],
            enable_skipping: true,
            limit_hint: None,
        };
        let (seq, _) = execute_scan(&make_spec(), 1);
        let (par, _) = execute_scan(&make_spec(), 8);
        assert_eq!(seq.rows(), 256);
        assert_eq!(par.rows(), 256);
        for row in 0..256 {
            assert!(
                seq.get(row, 0).group_eq(par.get(row, 0))
                    || (seq.get(row, 0).is_null() && par.get(row, 0).is_null())
            );
            assert!(
                seq.get(row, 1).group_eq(par.get(row, 1))
                    || (seq.get(row, 1).is_null() && par.get(row, 1).is_null())
            );
        }
    }

    #[test]
    fn vectorized_matches_rowwise_oracle() {
        // Mixed-structure docs exercising kernels (int range, string eq,
        // null tests) plus a residual (slot-to-slot comparison).
        let docs: Vec<Value> = (0..300)
            .map(|i| {
                if i % 5 == 0 {
                    jt_json::parse(&format!(r#"{{"a":{i},"s":"tag{}"}}"#, i % 11)).unwrap()
                } else {
                    jt_json::parse(&format!(
                        r#"{{"a":{i},"b":{},"s":"tag{}","d":"2021-0{}-01"}}"#,
                        i * 2,
                        i % 11,
                        1 + i % 9
                    ))
                    .unwrap()
                }
            })
            .collect();
        let rel = Relation::load(&docs, config());
        let accesses = vec![
            Access::new("a", "a", AccessType::Int),
            Access::new("b", "b", AccessType::Int),
            Access::new("s", "s", AccessType::Text),
            Access::new("d", "d", AccessType::Timestamp),
        ];
        let lookup = |name: &str| accesses.iter().position(|a| a.name == name).unwrap();
        let filters = [
            Some(col("a").gt(lit(30)).and(col("s").contains("ag3"))),
            Some(col("b").is_null().or(col("b").eq(col("a").mul(lit(2))))),
            Some(col("s").eq(lit_str("tag7")).and(col("d").is_not_null())),
            Some(col("d").year().eq(lit(2021)).and(col("a").lt(lit(250)))),
            None,
        ];
        for filter in filters {
            let resolved = filter.map(|mut f| {
                f.resolve(&lookup);
                f
            });
            for threads in [1, 4] {
                let make_spec = || ScanSpec {
                    relation: &rel,
                    accesses: accesses.clone(),
                    filter: resolved.clone(),
                    skip_paths: vec![],
                    enable_skipping: true,
                    limit_hint: None,
                };
                let (vec_chunk, _) = execute_scan(&make_spec(), threads);
                let (row_chunk, _) = execute_scan_rowwise(&make_spec(), threads);
                assert_eq!(vec_chunk.rows(), row_chunk.rows(), "{resolved:?}");
                for c in 0..vec_chunk.width() {
                    for r in 0..vec_chunk.rows() {
                        let (v, w) = (vec_chunk.get(r, c), row_chunk.get(r, c));
                        assert!(
                            v.group_eq(w) || (v.is_null() && w.is_null()),
                            "{resolved:?} row {r} col {c}: {v:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }
}
