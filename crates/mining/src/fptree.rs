//! FPGrowth [29]: frequent-pattern tree construction and recursive mining.
//!
//! In contrast to Apriori, FPGrowth generates no candidate sets: it builds a
//! prefix tree of transactions (items ordered by descending global
//! frequency), then recursively projects *conditional pattern bases* for
//! each item. The paper bounds the recursion depth with the itemset budget
//! of Eq. 1 so that "the system is not overloaded during JSON tile
//! materialization".

use crate::{max_itemset_size, Item, Itemset, MinerConfig};
use std::collections::HashMap;

/// One node of an FP-tree, stored in an arena.
struct Node {
    item: Item,
    count: u32,
    parent: usize,
    /// Next node with the same item (header-table chain).
    link: usize,
    /// Child nodes; tiles have few distinct items, so linear scan wins over
    /// a hash map here.
    children: Vec<usize>,
}

const NIL: usize = usize::MAX;

/// An FP-tree plus its header table.
struct FpTree {
    arena: Vec<Node>,
    /// item → (first node in chain, total support).
    header: Vec<(Item, usize, u32)>,
}

impl FpTree {
    /// Build from weighted transactions (`(items, weight)`), keeping only
    /// items with support ≥ `min_support`. Items inside each transaction
    /// are reordered by descending global frequency for maximal sharing.
    fn build<T: AsRef<[Item]>>(transactions: &[(T, u32)], min_support: u32) -> FpTree {
        let mut freq: HashMap<Item, u32> = HashMap::new();
        for (t, w) in transactions {
            for &i in t.as_ref() {
                *freq.entry(i).or_insert(0) += w;
            }
        }
        let mut order: Vec<(Item, u32)> = freq
            .iter()
            .filter(|(_, &c)| c >= min_support)
            .map(|(&i, &c)| (i, c))
            .collect();
        // Descending frequency, ties by item code for determinism.
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank: HashMap<Item, usize> = order
            .iter()
            .enumerate()
            .map(|(r, &(i, _))| (i, r))
            .collect();

        let mut tree = FpTree {
            arena: vec![Node {
                item: Item::MAX,
                count: 0,
                parent: NIL,
                link: NIL,
                children: Vec::new(),
            }],
            header: order.iter().map(|&(i, c)| (i, NIL, c)).collect(),
        };
        let mut sorted: Vec<(usize, Item)> = Vec::new();
        for (t, w) in transactions {
            sorted.clear();
            for &i in t.as_ref() {
                if let Some(&r) = rank.get(&i) {
                    sorted.push((r, i));
                }
            }
            sorted.sort_unstable();
            sorted.dedup();
            tree.insert_path(&sorted, *w);
        }
        tree
    }

    fn insert_path(&mut self, path: &[(usize, Item)], weight: u32) {
        let mut cur = 0usize;
        for &(rank, item) in path {
            let found = self.arena[cur]
                .children
                .iter()
                .copied()
                .find(|&c| self.arena[c].item == item);
            cur = match found {
                Some(c) => {
                    self.arena[c].count += weight;
                    c
                }
                None => {
                    let id = self.arena.len();
                    self.arena.push(Node {
                        item,
                        count: weight,
                        parent: cur,
                        link: self.header[rank].1,
                        children: Vec::new(),
                    });
                    self.header[rank].1 = id;
                    self.arena[cur].children.push(id);
                    id
                }
            };
        }
    }

    /// True if the tree is a single chain (classic FPGrowth shortcut: all
    /// combinations of chain items are frequent with the chain's min count —
    /// we skip the shortcut and always recurse; correctness is identical and
    /// tiles are small).
    fn is_empty(&self) -> bool {
        self.arena[0].children.is_empty()
    }
}

/// Mining state threaded through the recursion.
struct MineCtx {
    min_support: u32,
    budget: u64,
    max_size: usize,
    out: Vec<Itemset>,
}

impl MineCtx {
    fn over_budget(&self) -> bool {
        self.out.len() as u64 >= self.budget
    }
}

/// Mine all frequent itemsets of `transactions` under `cfg`.
///
/// Output itemsets have sorted item lists; the overall output is sorted for
/// deterministic downstream extraction. Itemset size is capped at `k` from
/// Eq. 1 ("smaller itemsets are computed first as these are needed for
/// larger ones"), and generation stops once the budget is exhausted.
pub fn fpgrowth(transactions: &[Vec<Item>], cfg: MinerConfig) -> Vec<Itemset> {
    let weighted: Vec<(Vec<Item>, u32)> = transactions.iter().map(|t| (t.clone(), 1)).collect();
    mine_weighted(&weighted, cfg)
}

/// Mine weighted transactions: each `(items, w)` entry counts as `w`
/// occurrences of the same transaction. With shape-deduplicated input (one
/// entry per distinct document shape, weighted by its occurrence count)
/// mining cost scales with *distinct shapes* rather than documents.
///
/// Bit-identical to [`fpgrowth`] over the expanded multiset as long as the
/// entries appear in first-occurrence order: the FP-tree's frequency table
/// sums the same totals, transactions insert the same node chains in the
/// same creation order (weights only change counts, never structure), and
/// the recursion — including the Eq. 1 size cap and budget truncation —
/// sees an identical tree. `weighted_dedup_equals_per_document` below and
/// the eager-vs-ondemand load tests pin this equivalence.
pub fn mine_weighted<T: AsRef<[Item]>>(
    transactions: &[(T, u32)],
    cfg: MinerConfig,
) -> Vec<Itemset> {
    let _span = jt_obs::span!("mining.fpgrowth.ns");
    let tree = FpTree::build(transactions, cfg.min_support);
    let n_frequent = tree.header.len();
    let mut ctx = MineCtx {
        min_support: cfg.min_support,
        budget: cfg.budget,
        max_size: max_itemset_size(n_frequent, cfg.budget),
        out: Vec::new(),
    };
    let mut suffix = Vec::new();
    mine(&tree, &mut suffix, &mut ctx);
    ctx.out.sort_by(|a, b| a.items.cmp(&b.items));
    jt_obs::counter_add!("mining.fpgrowth.calls", 1);
    jt_obs::counter_add!("mining.fpgrowth.itemsets", ctx.out.len() as u64);
    ctx.out
}

fn mine(tree: &FpTree, suffix: &mut Vec<Item>, ctx: &mut MineCtx) {
    if tree.is_empty() {
        return;
    }
    // Iterate header entries from least to most frequent (classic order).
    for h in (0..tree.header.len()).rev() {
        if ctx.over_budget() {
            return;
        }
        let (item, first, support) = tree.header[h];
        if support < ctx.min_support {
            continue;
        }
        suffix.push(item);
        let mut items = suffix.clone();
        items.sort_unstable();
        ctx.out.push(Itemset { items, support });
        // Recurse only while larger sets are inside the Eq. 1 size cap.
        if suffix.len() < ctx.max_size && !ctx.over_budget() {
            // Conditional pattern base: prefix paths of every node of `item`.
            let mut base: Vec<(Vec<Item>, u32)> = Vec::new();
            let mut node = first;
            while node != NIL {
                let n = &tree.arena[node];
                let mut path = Vec::new();
                let mut p = n.parent;
                while p != 0 && p != NIL {
                    path.push(tree.arena[p].item);
                    p = tree.arena[p].parent;
                }
                if !path.is_empty() {
                    base.push((path, n.count));
                }
                node = n.link;
            }
            if !base.is_empty() {
                let cond = FpTree::build(&base, ctx.min_support);
                mine(&cond, suffix, ctx);
            }
        }
        suffix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori;

    fn tx(data: &[&[Item]]) -> Vec<Vec<Item>> {
        data.iter().map(|t| t.to_vec()).collect()
    }

    fn assert_same(fp: &[Itemset], ap: &[Itemset]) {
        assert_eq!(
            fp.len(),
            ap.len(),
            "itemset counts differ: fp={fp:?} ap={ap:?}"
        );
        for (a, b) in fp.iter().zip(ap) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matches_apriori_on_paper_example() {
        let t = tx(&[
            &[0, 1, 2, 3, 4, 5],
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3, 4, 5],
            &[0, 1, 2, 3, 4, 5],
        ]);
        let cfg = MinerConfig {
            min_support: 3,
            budget: 1 << 20,
        };
        assert_same(&fpgrowth(&t, cfg), &apriori(&t, cfg));
    }

    #[test]
    fn matches_apriori_on_classic_dataset() {
        // Han et al.'s running example.
        let t = tx(&[
            &[1, 2, 5],
            &[2, 4],
            &[2, 3],
            &[1, 2, 4],
            &[1, 3],
            &[2, 3],
            &[1, 3],
            &[1, 2, 3, 5],
            &[1, 2, 3],
        ]);
        let cfg = MinerConfig {
            min_support: 2,
            budget: 1 << 20,
        };
        let fp = fpgrowth(&t, cfg);
        let ap = apriori(&t, cfg);
        assert_same(&fp, &ap);
        // Known result: {1,2,5} has support 2.
        let s = fp.iter().find(|s| s.items == vec![1, 2, 5]).unwrap();
        assert_eq!(s.support, 2);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let cfg = MinerConfig::default();
        assert!(fpgrowth(&[], cfg).is_empty());
        assert!(fpgrowth(&[vec![]], cfg).is_empty());
        let single = fpgrowth(
            &[vec![7]],
            MinerConfig {
                min_support: 1,
                budget: 100,
            },
        );
        assert_eq!(
            single,
            vec![Itemset {
                items: vec![7],
                support: 1
            }]
        );
    }

    #[test]
    fn min_support_filters_everything() {
        let t = tx(&[&[1, 2], &[3, 4]]);
        let sets = fpgrowth(
            &t,
            MinerConfig {
                min_support: 3,
                budget: 100,
            },
        );
        assert!(sets.is_empty());
    }

    #[test]
    fn budget_caps_itemset_size() {
        // 5 items always together: unbounded mining yields 2^5-1 = 31 sets.
        let t = tx(&[&[1u32, 2, 3, 4, 5] as &[Item]; 4]);
        let all = fpgrowth(
            &t,
            MinerConfig {
                min_support: 4,
                budget: 1 << 20,
            },
        );
        assert_eq!(all.len(), 31);
        // Budget 15 → k=2 (C(5,1)+C(5,2)=15): only sizes ≤ 2 emitted.
        let capped = fpgrowth(
            &t,
            MinerConfig {
                min_support: 4,
                budget: 15,
            },
        );
        assert!(capped.iter().all(|s| s.items.len() <= 2));
        assert_eq!(capped.len(), 15);
    }

    #[test]
    fn budget_caps_total_count() {
        let t = tx(&[&[1u32, 2, 3, 4, 5, 6, 7, 8] as &[Item]; 3]);
        let sets = fpgrowth(
            &t,
            MinerConfig {
                min_support: 3,
                budget: 10,
            },
        );
        assert!(sets.len() <= 10, "got {}", sets.len());
    }

    #[test]
    fn randomized_cross_check_with_apriori() {
        // Deterministic pseudo-random transactions over 8 items.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let n_tx = 5 + (next() % 20) as usize;
            let t: Vec<Vec<Item>> = (0..n_tx)
                .map(|_| {
                    let mask = next() % 256;
                    (0..8).filter(|i| mask & (1 << i) != 0).collect()
                })
                .collect();
            let cfg = MinerConfig {
                min_support: 2 + (trial % 3),
                budget: 1 << 20,
            };
            assert_same(&fpgrowth(&t, cfg), &apriori(&t, cfg));
        }
    }

    #[test]
    fn weighted_dedup_equals_per_document() {
        // Randomized transactions with heavy duplication: mining the
        // deduplicated weighted form must be bit-identical to per-document
        // mining, including under budget truncation and the size cap.
        let mut state = 0x9e3779b9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let n_shapes = 1 + (next() % 6) as usize;
            let shapes: Vec<Vec<Item>> = (0..n_shapes)
                .map(|_| {
                    let mask = 1 + next() % 255;
                    (0..8).filter(|i| mask & (1 << i) != 0).collect()
                })
                .collect();
            let t: Vec<Vec<Item>> = (0..40)
                .map(|_| shapes[(next() % n_shapes as u64) as usize].clone())
                .collect();
            let mut interner = crate::Interner::default();
            let ids: Vec<u32> = t.iter().map(|t| interner.intern(t.clone())).collect();
            let distinct = interner.into_distinct();
            for budget in [1u64 << 20, 25, 7] {
                let cfg = MinerConfig {
                    min_support: 2 + (trial % 4),
                    budget,
                };
                let per_doc = fpgrowth(&t, cfg);
                let weighted = mine_weighted(&crate::weighted_by_id(&distinct, &ids), cfg);
                assert_eq!(per_doc, weighted, "trial {trial} budget {budget}");
            }
        }
    }

    #[test]
    fn weighted_paths_share_prefixes() {
        // Same transaction many times must not blow up the tree.
        let t: Vec<Vec<Item>> = (0..1000).map(|_| vec![1, 2, 3]).collect();
        let sets = fpgrowth(
            &t,
            MinerConfig {
                min_support: 900,
                budget: 100,
            },
        );
        assert_eq!(sets.len(), 7);
        assert!(sets.iter().all(|s| s.support == 1000));
    }
}
