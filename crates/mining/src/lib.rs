//! # jt-mining — frequent itemset mining (paper §3.3)
//!
//! JSON tiles decides which key paths to materialize by mining frequent
//! itemsets over the dictionary-encoded key paths of each tile. This crate
//! implements:
//!
//! * [`fpgrowth`] — the FPGrowth algorithm [29] (no candidate generation:
//!   a prefix tree of frequent items is mined recursively via conditional
//!   pattern bases);
//! * the paper's **itemset budget** (Eq. 1): the maximum itemset size `k` is
//!   chosen so that `Σ_{i=1..k} C(n, i) ≤ u`, bounding both the recursion
//!   depth and the number of produced itemsets so tile creation can never
//!   blow up on pathological key sets;
//! * [`maximal`] — reduction to maximal frequent itemsets, whose union the
//!   extractor materializes (§3.1 step 3);
//! * [`apriori`] — the classic candidate-generation baseline [1], used to
//!   cross-validate FPGrowth in tests and exposed for ablation experiments.
//!
//! Items are small dictionary codes (`u32`); the dictionary itself lives in
//! `jt-core`, which encodes `(key path, primitive type)` pairs per §3.4.

mod fptree;

pub use fptree::{fpgrowth, mine_weighted};

use std::collections::HashMap;

/// Dense ids for item vectors, handed out in first-occurrence order.
///
/// The loaders use it to collapse a partition's documents into distinct
/// transactions plus one `u32` id per document before partition
/// reordering, which then never touches a per-document item vector.
#[derive(Debug, Default)]
pub struct Interner {
    ids: HashMap<Vec<Item>, u32>,
}

impl Interner {
    /// The id of `items`, assigning the next free one on first sight.
    pub fn intern(&mut self, items: Vec<Item>) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(items).or_insert(next)
    }

    /// The interned vectors, indexed by id.
    pub fn into_distinct(self) -> Vec<Vec<Item>> {
        let mut out = vec![Vec::new(); self.ids.len()];
        for (items, id) in self.ids {
            out[id as usize] = items;
        }
        out
    }
}

/// Weighted transactions for documents reduced to [`Interner`] ids:
/// `ids[d]` indexes document `d`'s transaction in `distinct`, and each
/// distinct transaction comes out once with its document count. One
/// counting pass, no hashing and no copies; entries come out in
/// first-occurrence order, the order contract [`mine_weighted`] needs for
/// bit-identical results with per-document mining.
pub fn weighted_by_id<'a>(distinct: &'a [Vec<Item>], ids: &[u32]) -> Vec<(&'a [Item], u32)> {
    const UNSEEN: usize = usize::MAX;
    let mut slot = vec![UNSEEN; distinct.len()];
    let mut out: Vec<(&[Item], u32)> = Vec::new();
    for &id in ids {
        let s = &mut slot[id as usize];
        if *s == UNSEEN {
            *s = out.len();
            out.push((distinct[id as usize].as_slice(), 0));
        }
        out[*s].1 += 1;
    }
    out
}

/// A dictionary-encoded item (a `(key path, type)` pair in the extractor).
pub type Item = u32;

/// A frequent itemset with its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Itemset {
    /// Sorted, deduplicated item codes.
    pub items: Vec<Item>,
    /// Number of transactions containing all of `items`.
    pub support: u32,
}

impl Itemset {
    /// True if `other` contains every item of `self`.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        is_subset(&self.items, &other.items)
    }
}

/// Subset test on sorted slices.
pub fn is_subset(sub: &[Item], sup: &[Item]) -> bool {
    let mut it = sup.iter();
    'outer: for x in sub {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        return false;
    }
    true
}

/// Mining limits.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Minimum number of transactions an itemset must appear in.
    pub min_support: u32,
    /// Upper bound `u` on generated itemsets (Eq. 1). The derived size cap
    /// `k` bounds the FPGrowth recursion depth.
    pub budget: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            min_support: 1,
            // The paper does not publish its `u`; 64k never truncates tile
            // mining on the workloads evaluated in §6 and bounds its worst
            // case: a tile whose dominant shape has 16 keys enumerates all
            // 65 535 subsets, about 30 ms.
            budget: 1 << 16,
        }
    }
}

/// Compute the maximum itemset size `k` allowed by budget `u` for `n`
/// frequent items: the largest `k` with `Σ_{i=1..k} C(n, i) ≤ u` (Eq. 1).
/// Always returns at least 1 so single items can be extracted.
pub fn max_itemset_size(n: usize, budget: u64) -> usize {
    if n == 0 {
        return 1;
    }
    let mut total: u64 = 0;
    let mut binom: u64 = 1; // C(n, 0)
    for i in 1..=n {
        // C(n, i) = C(n, i-1) * (n - i + 1) / i, with overflow saturation.
        binom = binom
            .saturating_mul((n - i + 1) as u64)
            .checked_div(i as u64)
            .unwrap_or(u64::MAX);
        total = total.saturating_add(binom);
        if total > budget {
            return (i - 1).max(1);
        }
    }
    n
}

/// Classic Apriori miner [1]: level-wise candidate generation. Exponential
/// in the worst case — used as a test oracle and ablation baseline only.
pub fn apriori(transactions: &[Vec<Item>], cfg: MinerConfig) -> Vec<Itemset> {
    let mut counts: HashMap<Vec<Item>, u32> = HashMap::new();
    for t in transactions {
        let mut t = t.clone();
        t.sort_unstable();
        t.dedup();
        for &i in &t {
            *counts.entry(vec![i]).or_insert(0) += 1;
        }
    }
    let mut level: Vec<Vec<Item>> = counts
        .iter()
        .filter(|(_, &c)| c >= cfg.min_support)
        .map(|(k, _)| k.clone())
        .collect();
    level.sort();
    let mut result: Vec<Itemset> = level
        .iter()
        .map(|k| Itemset {
            items: k.clone(),
            support: counts[k],
        })
        .collect();
    let k_max = max_itemset_size(level.len(), cfg.budget);
    let norm: Vec<Vec<Item>> = transactions
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let mut size = 1;
    while !level.is_empty() && size < k_max && (result.len() as u64) < cfg.budget {
        // Join step: candidates of size+1 from pairs sharing a prefix.
        let mut candidates: Vec<Vec<Item>> = Vec::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                if level[i][..size - 1] == level[j][..size - 1] {
                    let mut c = level[i].clone();
                    c.push(level[j][size - 1]);
                    candidates.push(c);
                } else {
                    break;
                }
            }
        }
        let mut next = Vec::new();
        for c in candidates {
            let support = norm.iter().filter(|t| is_subset(&c, t)).count() as u32;
            if support >= cfg.min_support {
                result.push(Itemset {
                    items: c.clone(),
                    support,
                });
                next.push(c);
                if result.len() as u64 >= cfg.budget {
                    break;
                }
            }
        }
        next.sort();
        level = next;
        size += 1;
    }
    result.sort_by(|a, b| a.items.cmp(&b.items));
    result
}

/// Reduce to maximal frequent itemsets: drop every itemset that has a
/// frequent (kept) superset. The extractor materializes the union of these
/// (§3.1 step 3).
pub fn maximal(mut itemsets: Vec<Itemset>) -> Vec<Itemset> {
    let total = itemsets.len();
    // Longest first so any superset precedes its subsets.
    itemsets.sort_by(|a, b| {
        b.items
            .len()
            .cmp(&a.items.len())
            .then(a.items.cmp(&b.items))
    });
    let mut kept: Vec<Itemset> = Vec::new();
    for cand in itemsets {
        if !kept.iter().any(|k| cand.is_subset_of(k)) {
            kept.push(cand);
        }
    }
    jt_obs::counter_add!("mining.itemsets_maximal", kept.len() as u64);
    jt_obs::counter_add!("mining.itemsets_filtered", (total - kept.len()) as u64);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(data: &[&[Item]]) -> Vec<Vec<Item>> {
        data.iter().map(|t| t.to_vec()).collect()
    }

    #[test]
    fn subset_test() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn interner_ids_follow_first_occurrence() {
        let t = tx(&[&[1, 2], &[3], &[1, 2], &[4], &[3], &[1, 2]]);
        let mut interner = Interner::default();
        let ids: Vec<u32> = t.iter().map(|t| interner.intern(t.clone())).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
        let distinct = interner.into_distinct();
        assert_eq!(distinct, tx(&[&[1, 2], &[3], &[4]]));
        // A sub-range weighs in first-occurrence order within the range,
        // not in global id order.
        let by_id = weighted_by_id(&distinct, &ids[1..]);
        let want: [(&[Item], u32); 3] = [(&[3], 2), (&[1, 2], 2), (&[4], 1)];
        assert_eq!(by_id, want);
    }

    #[test]
    fn budget_size_bound() {
        // n=4, budget 14 = C(4,1)+C(4,2)+C(4,3) = 4+6+4 → k=3.
        assert_eq!(max_itemset_size(4, 14), 3);
        assert_eq!(max_itemset_size(4, 15), 4, "2^4-1 = 15 allows everything");
        assert_eq!(max_itemset_size(4, 4), 1);
        assert_eq!(max_itemset_size(4, 3), 1, "never below 1");
        assert_eq!(max_itemset_size(0, 100), 1);
        assert_eq!(max_itemset_size(100, u64::MAX), 100);
        // Large n: binomials overflow u64 but must saturate, not panic.
        assert!(max_itemset_size(10_000, 1 << 16) >= 1);
    }

    #[test]
    fn apriori_basic() {
        // The tweet example from §3.1: 4 tuples, threshold 60% → support 3.
        // Items: i=0 c=1 t=2 u_i=3 r=4 g_l=5.
        let t = tx(&[
            &[0, 1, 2, 3, 4, 5],
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3, 4, 5],
            &[0, 1, 2, 3, 4, 5],
        ]);
        let sets = apriori(
            &t,
            MinerConfig {
                min_support: 3,
                budget: 1 << 20,
            },
        );
        // The full 6-item set has support 3; the 5-item set support 4.
        let five = sets
            .iter()
            .find(|s| s.items == vec![0, 1, 2, 3, 4])
            .unwrap();
        assert_eq!(five.support, 4);
        let six = sets
            .iter()
            .find(|s| s.items == vec![0, 1, 2, 3, 4, 5])
            .unwrap();
        assert_eq!(six.support, 3);
        let m = maximal(sets);
        // Maximal sets: {0,1,2,3,4} (4) is a subset of {0..5} (3) → only the
        // 6-item set is maximal among *frequent* sets? No: both are frequent
        // and {0,1,2,3,4} ⊂ {0,1,2,3,4,5}, so only the larger is maximal.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].items, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn maximal_keeps_disjoint_sets() {
        let sets = vec![
            Itemset {
                items: vec![1, 2],
                support: 5,
            },
            Itemset {
                items: vec![3, 4],
                support: 5,
            },
            Itemset {
                items: vec![1],
                support: 6,
            },
        ];
        let m = maximal(sets);
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|s| s.items == vec![1, 2]));
        assert!(m.iter().any(|s| s.items == vec![3, 4]));
    }

    #[test]
    fn apriori_respects_min_support() {
        let t = tx(&[&[1, 2], &[1], &[1, 2], &[3]]);
        let sets = apriori(
            &t,
            MinerConfig {
                min_support: 2,
                budget: 1 << 20,
            },
        );
        assert!(sets.iter().any(|s| s.items == vec![1] && s.support == 3));
        assert!(sets.iter().any(|s| s.items == vec![2] && s.support == 2));
        assert!(sets.iter().any(|s| s.items == vec![1, 2] && s.support == 2));
        assert!(
            !sets.iter().any(|s| s.items.contains(&3)),
            "3 is infrequent"
        );
    }

    #[test]
    fn duplicate_items_in_transaction_count_once() {
        let t = tx(&[&[1, 1, 2], &[1, 2, 2]]);
        let sets = apriori(
            &t,
            MinerConfig {
                min_support: 2,
                budget: 100,
            },
        );
        let one = sets.iter().find(|s| s.items == vec![1]).unwrap();
        assert_eq!(one.support, 2);
    }
}
