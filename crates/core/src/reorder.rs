//! Partition-level tuple reordering (paper §3.2).
//!
//! Workloads like the HackerNews mix of Figure 3 interleave document types
//! with no spatial locality, so no structure reaches the extraction
//! threshold in any tile. Reordering fixes this per *partition* (a group of
//! neighbouring tiles, default 8):
//!
//! 1. mine each tile with the reduced threshold `threshold / partition_size`,
//! 2. exchange itemsets across the partition; keep those whose
//!    partition-wide frequency exceeds `threshold · tile_size`,
//! 3. match every tuple to the itemset that describes it best (most items
//!    in common, then largest, then smallest item-id sum — the paper's
//!    deterministic tie-break),
//! 4. redistribute tuples so each surviving itemset is clustered into as
//!    few tiles as possible.
//!
//! We redistribute by *regrouping during load* rather than swapping rows of
//! already-written tiles: the paper swaps in place because its tiles live
//! in allocated storage, while our loader reorders before materialization.
//! The resulting tile contents — and therefore extraction quality — are the
//! same; step (6), re-mining each reordered tile at the original threshold,
//! is the normal tile build that follows.

use jt_mining::{mine_weighted, weighted_by_id, Item, MinerConfig};
use std::cmp::Reverse;

/// Compute the reordered tuple order for one partition.
///
/// `shapes` holds the partition's pairwise distinct transactions (sorted,
/// deduplicated item sets encoded against a partition-wide dictionary) and
/// `shape_of[i]` indexes tuple `i`'s transaction in it — the §4.3 structure
/// dedup, done by the caller, so that nothing here hashes or copies a
/// per-document item vector. Returns a permutation of `0..shape_of.len()`:
/// consecutive runs of `tile_size` indices form the new tiles.
///
/// Working on distinct shapes cannot change the order: mining weighted
/// duplicates is bit-identical to mining per document (see jt-mining),
/// support sums the same documents, and matching is a pure function of the
/// tuple's item set.
pub fn reorder_partition(
    shapes: &[Vec<Item>],
    shape_of: &[u32],
    tile_size: usize,
    threshold: f64,
    partition_size: usize,
    budget: u64,
) -> Vec<usize> {
    let n = shape_of.len();
    // An itemset survives step (2) on a partition-wide support above
    // `survive_at`, and no support exceeds `n`: a partition this small
    // (every served flush of a few hundred documents) keeps its order
    // whatever mining would find.
    let survive_at = (threshold * tile_size as f64) as u32;
    if tile_size == 0 || partition_size <= 1 || n <= survive_at as usize {
        return (0..n).collect();
    }
    jt_obs::counter_add!("load.reorder.shapes", shapes.len() as u64);

    let mut weight = vec![0u32; shapes.len()];
    for &s in shape_of {
        weight[s as usize] += 1;
    }

    // (1) Per-tile mining with the reduced threshold. Tiles of one
    // partition mine largely the same itemsets; `candidates` keeps each
    // once, in first-seen order (the survivor sort below is stable, so
    // that order is part of the result). `mine_weighted` returns its
    // itemsets sorted, so telling new from known is a merge against
    // `sorted` — the candidates' indices in itemset order — with no
    // hashing and no second copy of any itemset.
    let reduced = threshold / partition_size as f64;
    let mut candidates: Vec<Vec<Item>> = Vec::new();
    let mut sorted: Vec<u32> = Vec::new();
    for chunk in shape_of.chunks(tile_size) {
        let min_support = ((reduced * chunk.len() as f64).ceil() as u32).max(1);
        let mined = mine_weighted(
            &weighted_by_id(shapes, chunk),
            MinerConfig {
                min_support,
                budget,
            },
        );
        let mut merged = Vec::with_capacity(sorted.len() + mined.len());
        let mut known = sorted.iter().copied().peekable();
        for set in mined {
            while let Some(k) = known.next_if(|&k| candidates[k as usize] < set.items) {
                merged.push(k);
            }
            if known
                .peek()
                .is_none_or(|&k| candidates[k as usize] != set.items)
            {
                merged.push(candidates.len() as u32);
                candidates.push(set.items);
            }
        }
        merged.extend(known);
        sorted = merged;
    }
    jt_obs::counter_add!("load.reorder.candidates", candidates.len() as u64);

    // (2) Partition-wide survival: frequency > threshold * tile_size.
    let index = SupportIndex::new(shapes, &weight, &candidates);
    let mut survivors: Vec<Survivor> = candidates
        .into_iter()
        .filter(|items| index.support(items) > survive_at)
        .map(|items| Survivor {
            id_sum: items.iter().map(|&i| i as u64).sum(),
            items,
        })
        .collect();
    jt_obs::counter_add!("load.reorder.survivors", survivors.len() as u64);
    if survivors.is_empty() {
        return (0..n).collect();
    }
    // Deterministic order: larger itemsets first, then smaller id sums —
    // the paper's tie-break, applied globally. The sort is stable, so
    // full ties stay in candidate (first-mined) order.
    survivors.sort_by_key(|s| (Reverse(s.items.len()), s.id_sum));

    // (3) Match each distinct structure to its best-describing itemset;
    // unmatched structures get the group after the last survivor.
    let group_of_shape: Vec<usize> = shapes
        .iter()
        .map(|t| best_match(t, &survivors).unwrap_or(survivors.len()))
        .collect();

    // (4)+(5) Cluster: tuples grouped by matched itemset, groups in survivor
    // order, unmatched tuples last. Stable within groups to preserve input
    // locality.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| group_of_shape[shape_of[i] as usize]);
    jt_obs::counter_add!(
        "load.reorder.moves",
        order.iter().enumerate().filter(|&(i, &o)| i != o).count() as u64
    );
    order
}

/// Partition-wide support of an itemset in time linear in the itemset
/// rather than in itemset × shapes: one bitmap over shape ids per item
/// (the shapes containing it); the shapes containing an itemset are the
/// AND of its items' bitmaps, and its support is their weights' sum.
struct SupportIndex<'a> {
    weight: &'a [u32],
    /// Bitmap words per row (one bit per shape).
    words: usize,
    /// Item code → row, [`Self::NO_ROW`] for items no candidate mentions:
    /// rows exist only for frequent items, so the table stays small when
    /// a partition's documents mostly carry unique keys.
    row_of: Vec<u32>,
    rows: Vec<u64>,
}

impl<'a> SupportIndex<'a> {
    const NO_ROW: u32 = u32::MAX;

    fn new(shapes: &[Vec<Item>], weight: &'a [u32], candidates: &[Vec<Item>]) -> Self {
        let words = shapes.len().div_ceil(64);
        let codes = shapes
            .iter()
            .filter_map(|t| t.last())
            .max()
            .map_or(0, |&max| max as usize + 1);
        let mut row_of = vec![Self::NO_ROW; codes];
        let mut n_rows = 0u32;
        for &item in candidates.iter().flatten() {
            let row = &mut row_of[item as usize];
            if *row == Self::NO_ROW {
                *row = n_rows;
                n_rows += 1;
            }
        }
        let mut rows = vec![0u64; n_rows as usize * words];
        for (s, t) in shapes.iter().enumerate() {
            for &item in t {
                let row = row_of[item as usize];
                if row != Self::NO_ROW {
                    rows[row as usize * words + s / 64] |= 1 << (s % 64);
                }
            }
        }
        SupportIndex {
            weight,
            words,
            row_of,
            rows,
        }
    }

    /// Documents containing every item of `items` (a non-empty candidate).
    fn support(&self, items: &[Item]) -> u32 {
        let mut total = 0;
        for w in 0..self.words {
            let mut shapes = items.iter().fold(u64::MAX, |acc, &item| {
                acc & self.rows[self.row_of[item as usize] as usize * self.words + w]
            });
            while shapes != 0 {
                total += self.weight[w * 64 + shapes.trailing_zeros() as usize];
                shapes &= shapes - 1;
            }
        }
        total
    }
}

/// An itemset that passed partition-wide survival, with the id sum its
/// sort and match keys both need.
struct Survivor {
    items: Vec<Item>,
    id_sum: u64,
}

/// The paper's matching rule: most items in common, then the largest
/// itemset, then the smallest sum of item ids; among full ties the first
/// survivor wins. `survivors` must be in [`reorder_partition`]'s sort
/// order (length descending, then id sum ascending).
fn best_match(tuple: &[Item], survivors: &[Survivor]) -> Option<usize> {
    let mut best = None;
    // (common, length, id sum reversed); a match has `common >= 1`, so
    // this start value loses to every one.
    let mut best_key = (0usize, 0usize, Reverse(u64::MAX));
    for (idx, s) in survivors.iter().enumerate() {
        // No later survivor is longer than `s`, so none has more than
        // `s.items.len()` items in common; one that ties the best on that
        // count is no longer than the best and, at equal length, sorted
        // after it by id sum. The scan can stop.
        if best_key.0 >= s.items.len() {
            break;
        }
        let common = intersection_size(&s.items, tuple);
        let key = (common, s.items.len(), Reverse(s.id_sum));
        if common > 0 && key > best_key {
            best = Some(idx);
            best_key = key;
        }
    }
    best
}

fn intersection_size(a: &[Item], b: &[Item]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use jt_mining::{is_subset, weighted_by_id, Interner, Itemset};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Split per-document transactions into the distinct-shapes form.
    fn intern(transactions: &[Vec<Item>]) -> (Vec<Vec<Item>>, Vec<u32>) {
        let mut interner = Interner::default();
        let shape_of = transactions
            .iter()
            .map(|t| interner.intern(t.clone()))
            .collect();
        (interner.into_distinct(), shape_of)
    }

    /// `reorder_partition` over per-document transactions.
    fn reorder(
        transactions: &[Vec<Item>],
        tile_size: usize,
        threshold: f64,
        partition_size: usize,
        budget: u64,
    ) -> Vec<usize> {
        let (shapes, shape_of) = intern(transactions);
        reorder_partition(
            &shapes,
            &shape_of,
            tile_size,
            threshold,
            partition_size,
            budget,
        )
    }

    /// The implementation this module shipped before the linear-time
    /// rewrite, kept verbatim as the differential oracle: per-document
    /// transactions in, quadratic `Vec::contains` candidate dedup, id sums
    /// recomputed per comparison, one `Vec` per survivor group.
    fn reorder_partition_reference(
        transactions: &[Vec<Item>],
        tile_size: usize,
        threshold: f64,
        partition_size: usize,
        budget: u64,
    ) -> Vec<usize> {
        let n = transactions.len();
        if n == 0 || tile_size == 0 || partition_size <= 1 {
            return (0..n).collect();
        }

        let mut uniq_index: HashMap<&[Item], usize> = HashMap::with_capacity(n);
        let mut uniq: Vec<&Vec<Item>> = Vec::new();
        let mut weight: Vec<u32> = Vec::new();
        let mut of_doc: Vec<usize> = Vec::with_capacity(n);
        for t in transactions {
            let id = *uniq_index.entry(t.as_slice()).or_insert_with(|| {
                uniq.push(t);
                weight.push(0);
                uniq.len() - 1
            });
            weight[id] += 1;
            of_doc.push(id);
        }

        let reduced = threshold / partition_size as f64;
        let mut candidates: Vec<Vec<Item>> = Vec::new();
        let (distinct, shape_of) = intern(transactions);
        for chunk in shape_of.chunks(tile_size) {
            let min_support = ((reduced * chunk.len() as f64).ceil() as u32).max(1);
            for set in mine_weighted(
                &weighted_by_id(&distinct, chunk),
                MinerConfig {
                    min_support,
                    budget,
                },
            ) {
                if !candidates.contains(&set.items) {
                    candidates.push(set.items);
                }
            }
        }

        let survive_at = (threshold * tile_size as f64) as u32;
        let mut survivors: Vec<Itemset> = Vec::new();
        for items in candidates {
            let support = uniq
                .iter()
                .zip(&weight)
                .filter(|(t, _)| is_subset(&items, t))
                .map(|(_, w)| *w)
                .sum::<u32>();
            if support > survive_at {
                survivors.push(Itemset { items, support });
            }
        }
        if survivors.is_empty() {
            return (0..n).collect();
        }
        survivors.sort_by_key(|s| {
            (
                std::cmp::Reverse(s.items.len()),
                s.items.iter().map(|&i| i as u64).sum::<u64>(),
            )
        });

        let match_uniq: Vec<Option<usize>> = uniq
            .iter()
            .map(|t| best_match_reference(t, &survivors))
            .collect();
        let matched: Vec<Option<usize>> = of_doc.iter().map(|&id| match_uniq[id]).collect();

        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); survivors.len() + 1];
        for (i, m) in matched.iter().enumerate() {
            match m {
                Some(g) => groups[*g].push(i),
                None => groups[survivors.len()].push(i),
            }
        }
        groups.into_iter().flatten().collect()
    }

    fn best_match_reference(tuple: &[Item], survivors: &[Itemset]) -> Option<usize> {
        let mut best: Option<(usize, usize, usize, u64)> = None; // (idx, common, len, idsum)
        for (idx, s) in survivors.iter().enumerate() {
            let common = intersection_size(&s.items, tuple);
            if common == 0 {
                continue;
            }
            let len = s.items.len();
            let idsum: u64 = s.items.iter().map(|&i| i as u64).sum();
            let better = match best {
                None => true,
                Some((_, bc, bl, bs)) => {
                    common > bc || (common == bc && (len > bl || (len == bl && idsum < bs)))
                }
            };
            if better {
                best = Some((idx, common, len, idsum));
            }
        }
        best.map(|(idx, _, _, _)| idx)
    }

    /// Build interleaved transactions of `k` disjoint structures.
    fn interleaved(structures: usize, per_structure: usize, items_each: usize) -> Vec<Vec<Item>> {
        let total = structures * per_structure;
        (0..total)
            .map(|i| {
                let s = i % structures;
                (0..items_each)
                    .map(|j| (s * items_each + j) as Item)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn identity_when_reordering_disabled() {
        let t = interleaved(4, 10, 3);
        let order = reorder(&t, 10, 0.6, 1, 1 << 16);
        assert_eq!(order, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn result_is_permutation() {
        let t = interleaved(4, 25, 3);
        let mut order = reorder(&t, 25, 0.6, 4, 1 << 16);
        assert_eq!(order.len(), 100);
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_structures_get_clustered() {
        // 4 disjoint structures round-robined: before reordering every tile
        // of size 20 holds 5 of each (25% < 60%); after reordering each
        // tile must be dominated by one structure.
        let t = interleaved(4, 20, 4);
        let order = reorder(&t, 20, 0.6, 4, 1 << 16);
        for chunk in order.chunks(20) {
            let mut counts = [0usize; 4];
            for &i in chunk {
                counts[i % 4] += 1;
            }
            let max = *counts.iter().max().unwrap();
            assert!(
                max as f64 >= 0.6 * chunk.len() as f64,
                "tile not dominated: {counts:?}"
            );
        }
    }

    #[test]
    fn no_candidates_keeps_input_order() {
        // Every tuple unique: nothing survives partition-wide.
        let t: Vec<Vec<Item>> = (0..40u32)
            .map(|i| vec![i * 3, i * 3 + 1, i * 3 + 2])
            .collect();
        let order = reorder(&t, 10, 0.6, 4, 1 << 16);
        assert_eq!(order, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn shared_keys_cluster_by_full_structure() {
        // Two structures share items {0,1} but differ in the tail; the
        // matcher must separate them by the larger specific itemsets.
        let mut t = Vec::new();
        for i in 0..60 {
            if i % 2 == 0 {
                t.push(vec![0, 1, 2, 3]);
            } else {
                t.push(vec![0, 1, 7, 8]);
            }
        }
        let order = reorder(&t, 30, 0.6, 2, 1 << 16);
        let first: Vec<usize> = order[..30].iter().map(|&i| i % 2).collect();
        assert!(
            first.iter().all(|&x| x == first[0]),
            "first tile must hold one structure: {first:?}"
        );
    }

    #[test]
    fn deterministic() {
        let t = interleaved(3, 30, 5);
        let a = reorder(&t, 30, 0.6, 3, 1 << 16);
        let b = reorder(&t, 30, 0.6, 3, 1 << 16);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        assert!(reorder_partition(&[], &[], 10, 0.6, 8, 100).is_empty());
    }

    #[test]
    fn sub_tile_partition_is_identity_in_the_reference_too() {
        // The early-out claims survivors are provably empty when
        // n <= (threshold * tile_size) as u32. The reference has no such
        // shortcut: it mines, finds candidates, and must still return the
        // identity — including at the boundary n == survive_at, and one
        // past it, where two interleaved structures do get clustered.
        for (tile_size, threshold) in [(1024usize, 0.6f64), (40, 0.6), (10, 0.95), (7, 0.3)] {
            let survive_at = (threshold * tile_size as f64) as usize;
            for n in [1, survive_at / 2, survive_at.saturating_sub(1), survive_at] {
                let t: Vec<Vec<Item>> = interleaved(2, n.div_ceil(2), 4)
                    .into_iter()
                    .take(n)
                    .collect();
                let identity: Vec<usize> = (0..n).collect();
                assert_eq!(
                    reorder_partition_reference(&t, tile_size, threshold, 8, 1 << 16),
                    identity,
                    "reference, n={n} tile_size={tile_size}"
                );
                assert_eq!(reorder(&t, tile_size, threshold, 8, 1 << 16), identity);
            }
        }
        // Two documents past the bound an itemset can survive while a
        // document lacks it, and the early-out must not fire.
        let t: Vec<Vec<Item>> = (0..8)
            .map(|i| if i == 3 { vec![9] } else { vec![0, 1] })
            .collect();
        let moved = vec![0, 1, 2, 4, 5, 6, 7, 3];
        assert_eq!(reorder_partition_reference(&t, 10, 0.6, 8, 1 << 16), moved);
        assert_eq!(reorder(&t, 10, 0.6, 8, 1 << 16), moved);
    }

    #[test]
    fn clustered_wide_shape_is_not_quadratic() {
        // The ordered-TPC-H picture: four tiles of one 16-key shape (each
        // mines all 2^16 - 1 subsets, the same 65 535 in every tile) next
        // to seven narrow shapes. Deduplicating those candidates with
        // `Vec::contains` took over a minute in a debug build.
        let wide: Vec<Item> = (0..16).collect();
        let mut t: Vec<Vec<Item>> = Vec::new();
        for i in 0..4 * 1024u32 {
            t.push(wide.clone());
            if i % 16 == 0 {
                let s = 16 + 3 * ((i / 16) % 7);
                t.push(vec![s, s + 1, s + 2]);
            }
        }
        let n = t.len();
        let start = std::time::Instant::now();
        let order = reorder(&t, 1024, 0.6, 8, 1 << 16);
        let took = start.elapsed();
        // Wide documents (the only survivors' matches) first, in input
        // order; the narrow ones, matching nothing, after them.
        let (wide_docs, narrow_docs): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| t[i].len() == 16);
        assert_eq!(order, [wide_docs, narrow_docs].concat());
        assert!(
            took < std::time::Duration::from_secs(2),
            "reordering took {took:?}"
        );
    }

    /// Deterministic generator state for the differential cases.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A random partition: `n_shapes` shapes drawing overlapping key sets
    /// from a shared pool, documents picking shapes with a skew so a few
    /// shapes dominate (heavy duplication) and the rest form a long tail.
    fn random_partition(
        seed: u64,
        n_shapes: usize,
        pool: usize,
        max_width: usize,
        n_docs: usize,
    ) -> Vec<Vec<Item>> {
        let mut rng = XorShift(seed | 1);
        let shapes: Vec<Vec<Item>> = (0..n_shapes)
            .map(|_| {
                let width = 1 + rng.below(max_width.min(pool));
                // A contiguous run plus scattered extras: runs overlap
                // between shapes, extras break subset chains.
                let base = rng.below(pool);
                let mut items: Vec<Item> =
                    (0..width).map(|j| ((base + j) % pool) as Item).collect();
                if rng.below(3) == 0 {
                    items.push(rng.below(pool) as Item);
                }
                items.sort_unstable();
                items.dedup();
                items
            })
            .collect();
        (0..n_docs)
            .map(|_| {
                // Squaring the draw skews towards low shape numbers.
                let r = rng.below(n_shapes * n_shapes);
                shapes[n_shapes - 1 - (r as f64).sqrt() as usize].clone()
            })
            .collect()
    }

    #[test]
    fn support_index_matches_subset_scan() {
        // 150 distinct shapes: three bitmap words, the last one partial.
        let t = random_partition(0xfeed, 400, 40, 12, 3000);
        let (shapes, shape_of) = intern(&t);
        assert!(shapes.len() > 128, "only {} shapes", shapes.len());
        let mut weight = vec![0u32; shapes.len()];
        for &s in &shape_of {
            weight[s as usize] += 1;
        }
        // Every pair and triple of neighbouring items as candidates.
        let candidates: Vec<Vec<Item>> = (0..39)
            .flat_map(|i| [vec![i], vec![i, i + 1], vec![i, i + 1, (i + 5) % 40]])
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        let index = SupportIndex::new(&shapes, &weight, &candidates);
        for c in &candidates {
            let scan: u32 = shapes
                .iter()
                .zip(&weight)
                .filter(|(t, _)| is_subset(c, t))
                .map(|(_, w)| *w)
                .sum();
            assert_eq!(index.support(c), scan, "{c:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn matches_reference_on_random_shape_mixes(
            seed in any::<u64>(),
            n_shapes in 1usize..81,
            wide in any::<bool>(),
            tile_size in 1usize..49,
            partition_size in 1usize..9,
            fill in 0usize..401,
            threshold in prop::sample::select(vec![0.6f64, 0.6, 0.3, 0.9, 1.0]),
            budget in prop::sample::select(vec![1u64 << 16, 4096, 300, 40, 7]),
        ) {
            // Wide mixes have shapes of up to 24 items (>= 17 reaches the
            // Eq. 1 size cap under every budget here); their budget stays
            // small so the quadratic reference finishes. Narrow mixes keep
            // at most 9 frequent items per tile, which 2^16 never truncates.
            let (pool, max_width, budget) = if wide {
                (40, 24, budget.min(4096))
            } else {
                (9, 6, budget)
            };
            // `fill` 400ths of a full partition: covers n < tile_size, short
            // tail chunks, and exactly full partitions.
            let n_docs = (tile_size * partition_size * fill).div_ceil(400);
            let t = random_partition(seed, n_shapes, pool, max_width, n_docs);
            let want = reorder_partition_reference(&t, tile_size, threshold, partition_size, budget);
            let got = reorder(&t, tile_size, threshold, partition_size, budget);
            prop_assert_eq!(got, want);
        }
    }
}
