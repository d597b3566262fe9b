//! The five workloads: which collection each pushes through the system,
//! which leg gets the bulk of the time box, and the SQL mix that reads it.
//!
//! Every workload runs the same three legs over its own collection —
//! *ingest* (NDJSON bytes → tiles → file → reopened relation), *query*
//! (the reopened relation, in process) and *serve* (the same relation
//! behind the TCP line protocol, read beside writes) — so every end-to-end
//! metric exists on every workload. What differs is the collection, the
//! share of the time box each leg gets, and which leg the traced pass
//! compares traced against untraced.

use json_tiles::data::{hackernews, tpch, twitter};
use json_tiles::json::Value;

/// The leg a workload spends most of its time box in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    Ingest,
    Query,
    Serve,
}

/// Which generator feeds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Combined TPC-H in generation order (512-row blocks per table).
    TpchOrdered,
    /// Combined TPC-H, fully shuffled.
    TpchShuffled,
    /// Tweets with the 2006→2013 attribute evolution and delete records.
    Twitter,
    /// HackerNews items: four flat shapes, randomly interleaved.
    HackerNews,
}

/// Operator family a statement is dominated by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Scan,
    Join,
}

/// One statement of a workload's mix. All run against the single table `t`.
#[derive(Debug)]
pub struct Stmt {
    pub name: &'static str,
    pub class: Class,
    pub sql: &'static str,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub dataset: Dataset,
    /// TPC-H scale factor, or document count for the other generators.
    pub size: f64,
    /// The leg whose layers the workload exists to expose.
    pub focus: Focus,
    /// Share of the measured seconds each leg gets: `(ingest, query,
    /// serve)`. Every leg gets what its metrics need to be steady — loads
    /// enough for a median, reads enough for a p99 — and the focus leg the
    /// rest.
    pub shares: (f64, f64, f64),
    /// Appends between two `.flush t` requests of the open-loop writer:
    /// fewer where documents are cheap to publish, so that publishing
    /// occupies a comparable part of the timeline (and the append p99 sits
    /// inside the backlog a flush leaves, not at its edge).
    pub flush_every: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest_relational",
        why: "combined TPC-H in table order: reordering has nothing to move yet is ~97% of load CPU, so a shortcut for clustered partitions shows here",
        dataset: Dataset::TpchOrdered,
        size: 0.3,
        focus: Focus::Ingest,
        shares: (0.5, 0.1, 0.4),
        flush_every: 250,
    },
    Workload {
        name: "ingest_evolving",
        why: "Twitter stream, 74 interleaved shapes with arrays and deletes: reordering does useful work and mining sees the most distinct transactions",
        dataset: Dataset::Twitter,
        size: 16_000.0,
        focus: Focus::Ingest,
        shares: (0.45, 0.15, 0.4),
        flush_every: 25,
    },
    Workload {
        name: "ingest_flat",
        why: "HackerNews, 4 flat shapes: structural index, JSONB encode and extraction lead and reordering is ~11%, the bypass for a reorder fix",
        dataset: Dataset::HackerNews,
        size: 40_000.0,
        focus: Focus::Ingest,
        shares: (0.25, 0.2, 0.55),
        flush_every: 25,
    },
    Workload {
        name: "query_local",
        why: "shuffled TPC-H queried in process at 2 threads: planner, tile skipping, kernels and intra-query parallelism with no socket or queue",
        dataset: Dataset::TpchShuffled,
        size: 3.0,
        focus: Focus::Query,
        shares: (0.25, 0.4, 0.35),
        flush_every: 250,
    },
    Workload {
        name: "serve_mixed",
        why: "same relation over TCP: closed-loop reader beside an open-loop appender, so queue, protocol and generation publish show and reads trade against writes",
        dataset: Dataset::TpchShuffled,
        size: 3.0,
        focus: Focus::Serve,
        shares: (0.25, 0.15, 0.6),
        flush_every: 250,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The collection, a pure function of `seed`.
    pub fn generate(&self, seed: u64) -> Vec<Value> {
        generate(self.dataset, self.size, seed)
    }

    /// Documents the serve leg appends: a second stream of the same kind
    /// from another seed, so appended rows look like the base rows, and
    /// every batch of it costs about the same to publish.
    pub fn append_stream(&self, seed: u64) -> Vec<Value> {
        match self.dataset {
            // Any order of TPC-H appends as a shuffled trickle.
            Dataset::TpchOrdered | Dataset::TpchShuffled => {
                generate(Dataset::TpchShuffled, 1.2, seed)
            }
            // Only the stream's first two eras (2006-07: no entity arrays
            // yet). Later eras put array paths right at the extraction
            // threshold, and a publish then mines for 0.1 s — or, one
            // time in ten, for 2 s — which no percentile survives.
            Dataset::Twitter => {
                let mut docs = generate(Dataset::Twitter, 40_000.0, seed);
                docs.truncate(8_000);
                docs
            }
            Dataset::HackerNews => generate(Dataset::HackerNews, 10_000.0, seed),
        }
    }

    /// A key exactly one document kind carries; `COUNT` over it is checked
    /// against a count taken from the generator's output.
    pub fn probe_key(&self) -> &'static str {
        match self.dataset {
            Dataset::TpchOrdered | Dataset::TpchShuffled => "l_orderkey",
            Dataset::Twitter => "lang",
            Dataset::HackerNews => "parent",
        }
    }

    /// The 8-statement mix: four scan-class, four join-class.
    pub fn statements(&self) -> &'static [Stmt; 8] {
        match self.dataset {
            Dataset::TpchOrdered | Dataset::TpchShuffled => &TPCH_MIX,
            Dataset::Twitter => &TWITTER_MIX,
            Dataset::HackerNews => &HN_MIX,
        }
    }
}

fn generate(dataset: Dataset, size: f64, seed: u64) -> Vec<Value> {
    match dataset {
        Dataset::TpchOrdered => tpch::generate(tpch::TpchConfig { scale: size, seed }).combined(),
        Dataset::TpchShuffled => {
            tpch::generate(tpch::TpchConfig { scale: size, seed }).shuffled(seed)
        }
        Dataset::Twitter => {
            twitter::generate(twitter::TwitterConfig {
                docs: size as usize,
                evolving: true,
                seed,
                ..twitter::TwitterConfig::default()
            })
            .docs
        }
        Dataset::HackerNews => hackernews::generate(hackernews::HnConfig {
            items: size as usize,
            seed,
        }),
    }
}

const fn scan(name: &'static str, sql: &'static str) -> Stmt {
    Stmt {
        name,
        class: Class::Scan,
        sql,
    }
}

const fn join(name: &'static str, sql: &'static str) -> Stmt {
    Stmt {
        name,
        class: Class::Join,
        sql,
    }
}

// Every statement orders its output fully (ties broken by a key), so the
// rows — not just the row set — are comparable across storage modes.

static TPCH_MIX: [Stmt; 8] = [
    // Q6-style selective filter + SUM.
    scan(
        "s1",
        "SELECT SUM(data->>'l_extendedprice'::DECIMAL * data->>'l_discount'::DECIMAL), COUNT(*) FROM t \
         WHERE data->>'l_shipdate'::DATE >= DATE '1994-01-01' AND data->>'l_shipdate'::DATE < DATE '1995-01-01' \
         AND data->>'l_discount'::DECIMAL >= 0.05 AND data->>'l_discount'::DECIMAL <= 0.07 \
         AND data->>'l_quantity'::INT < 24",
    ),
    // Q1-style low-cardinality group-by over most of lineitem.
    scan(
        "s2",
        "SELECT data->>'l_returnflag', data->>'l_linestatus', SUM(data->>'l_quantity'::INT), \
         SUM(data->>'l_extendedprice'::DECIMAL * (1 - data->>'l_discount'::DECIMAL)), \
         AVG(data->>'l_discount'::DECIMAL), COUNT(*) FROM t \
         WHERE data->>'l_shipdate'::DATE <= DATE '1998-09-02' GROUP BY 1, 2 ORDER BY 1, 2",
    ),
    // Filter + top-K.
    scan(
        "s3",
        "SELECT data->>'o_orderkey'::BIGINT, data->>'o_totalprice'::DECIMAL, data->>'o_orderdate'::DATE FROM t \
         WHERE data->>'o_orderdate'::DATE >= DATE '1995-01-01' ORDER BY 2 DESC, 1 LIMIT 20",
    ),
    // LIKE on a path only `part` documents have: tile skipping.
    scan(
        "s4",
        "SELECT COUNT(data->>'p_partkey'::BIGINT) FROM t WHERE data->>'p_name' LIKE '%green%'",
    ),
    // Q3-style 3-way join + top-K.
    join(
        "j1",
        "SELECT o.data->>'o_orderkey'::BIGINT, \
         SUM(l.data->>'l_extendedprice'::DECIMAL * (1 - l.data->>'l_discount'::DECIMAL)) \
         FROM t c, t o, t l \
         WHERE c.data->>'c_custkey'::BIGINT = o.data->>'o_custkey'::BIGINT \
         AND l.data->>'l_orderkey'::BIGINT = o.data->>'o_orderkey'::BIGINT \
         AND o.data->>'o_orderdate'::DATE < DATE '1995-03-15' AND l.data->>'l_shipdate'::DATE > DATE '1995-03-15' \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 10",
    ),
    // Q10 / Figure 5: 3-way join, group by customer.
    join(
        "j2",
        "SELECT c.data->>'c_custkey'::BIGINT, \
         SUM(l.data->>'l_extendedprice'::DECIMAL * (1 - l.data->>'l_discount'::DECIMAL)) \
         FROM t c, t o, t l \
         WHERE l.data->>'l_orderkey'::BIGINT = o.data->>'o_orderkey'::BIGINT \
         AND o.data->>'o_custkey'::BIGINT = c.data->>'c_custkey'::BIGINT \
         AND l.data->>'l_returnflag' = 'R' \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20",
    ),
    // Q12-style 2-way join, tiny group-by.
    join(
        "j3",
        "SELECT l.data->>'l_shipmode', COUNT(*) FROM t o, t l \
         WHERE o.data->>'o_orderkey'::BIGINT = l.data->>'l_orderkey'::BIGINT \
         AND l.data->>'l_shipmode' IN ('MAIL', 'SHIP') \
         AND l.data->>'l_receiptdate'::DATE >= DATE '1994-01-01' AND l.data->>'l_receiptdate'::DATE < DATE '1995-01-01' \
         AND o.data->>'o_orderpriority' IN ('1-URGENT', '2-HIGH') \
         GROUP BY 1 ORDER BY 1",
    ),
    // High-cardinality aggregate over a join: one group per order.
    join(
        "j4",
        "SELECT l.data->>'l_orderkey'::BIGINT, SUM(l.data->>'l_quantity'::INT), COUNT(*) FROM t o, t l \
         WHERE o.data->>'o_orderkey'::BIGINT = l.data->>'l_orderkey'::BIGINT \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20",
    ),
];

static TWITTER_MIX: [Stmt; 8] = [
    scan(
        "s1",
        "SELECT SUM(data->>'retweet_count'::INT), COUNT(*) FROM t \
         WHERE data->>'retweet_count'::INT > 4000 AND data->'user'->>'followers_count'::INT < 500000",
    ),
    scan(
        "s2",
        "SELECT data->>'lang', COUNT(*), AVG(data->>'reply_count'::INT) FROM t \
         WHERE data->>'id'::BIGINT >= 0 GROUP BY 1 ORDER BY 1",
    ),
    scan(
        "s3",
        "SELECT data->>'id'::BIGINT, data->>'retweet_count'::INT FROM t \
         WHERE data->>'lang' = 'en' ORDER BY 2 DESC, 1 LIMIT 20",
    ),
    // A path only delete records have.
    scan(
        "s4",
        "SELECT COUNT(data->'delete'->'status'->>'id'::BIGINT) FROM t \
         WHERE data->'delete'->>'timestamp_ms' LIKE '%77%'",
    ),
    // Tweets of users that also have a delete record, top-K by count.
    join(
        "j1",
        "SELECT a.data->'user'->>'id'::BIGINT, COUNT(*) FROM t a, t d \
         WHERE a.data->'user'->>'id'::BIGINT = d.data->'delete'->'status'->>'user_id'::BIGINT \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 10",
    ),
    // Self-join on the author: verified users' tweets against all tweets.
    join(
        "j2",
        "SELECT b.data->>'lang', COUNT(*), SUM(b.data->>'reply_count'::INT) FROM t a, t b \
         WHERE a.data->'user'->>'id'::BIGINT = b.data->'user'->>'id'::BIGINT \
         AND a.data->'user'->>'verified'::BOOL = TRUE \
         GROUP BY 1 ORDER BY 1",
    ),
    join(
        "j3",
        "SELECT a.data->>'lang', COUNT(*) FROM t a, t b \
         WHERE a.data->'user'->>'id'::BIGINT = b.data->'user'->>'id'::BIGINT \
         AND a.data->>'lang' IN ('ja', 'es') AND b.data->'geo'->>'lat'::FLOAT > 0 \
         GROUP BY 1 ORDER BY 1",
    ),
    // High-cardinality aggregate: one group per author.
    join(
        "j4",
        "SELECT a.data->'user'->>'id'::BIGINT, COUNT(*), SUM(b.data->>'retweet_count'::INT) FROM t a, t b \
         WHERE a.data->'user'->>'id'::BIGINT = b.data->'user'->>'id'::BIGINT \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20",
    ),
];

static HN_MIX: [Stmt; 8] = [
    scan(
        "s1",
        "SELECT SUM(data->>'score'::INT), COUNT(*) FROM t \
         WHERE data->>'score'::INT > 450 AND data->>'date'::DATE >= DATE '2020-01-01'",
    ),
    scan(
        "s2",
        "SELECT data->>'type', COUNT(*), AVG(data->>'score'::INT) FROM t \
         WHERE data->>'id'::BIGINT >= 0 GROUP BY 1 ORDER BY 1",
    ),
    scan(
        "s3",
        "SELECT data->>'id'::BIGINT, data->>'score'::INT FROM t \
         WHERE data->>'type' = 'story' ORDER BY 2 DESC, 1 LIMIT 20",
    ),
    // Only stories have a url.
    scan(
        "s4",
        "SELECT COUNT(data->>'url') FROM t WHERE data->>'url' LIKE '%/777%'",
    ),
    // Comments under high-scoring items, top-K.
    join(
        "j1",
        "SELECT s.data->>'id'::BIGINT, COUNT(*) FROM t c, t s \
         WHERE c.data->>'parent'::BIGINT = s.data->>'id'::BIGINT AND s.data->>'score'::INT > 400 \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 10",
    ),
    // Poll options summed per poll.
    join(
        "j2",
        "SELECT p.data->>'id'::BIGINT, SUM(o.data->>'score'::INT) FROM t o, t p \
         WHERE o.data->>'poll'::BIGINT = p.data->>'id'::BIGINT AND p.data->>'type' = 'poll' \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20",
    ),
    join(
        "j3",
        "SELECT s.data->>'type', COUNT(*) FROM t c, t s \
         WHERE c.data->>'parent'::BIGINT = s.data->>'id'::BIGINT AND s.data->>'descendants'::INT > 150 \
         GROUP BY 1 ORDER BY 1",
    ),
    // High-cardinality aggregate: one group per commented item.
    join(
        "j4",
        "SELECT c.data->>'parent'::BIGINT, COUNT(*) FROM t c, t i \
         WHERE c.data->>'parent'::BIGINT = i.data->>'id'::BIGINT \
         GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let (a, b, c) = w.shares;
            assert!((a + b + c - 1.0).abs() < 1e-12);
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn generators_follow_the_seed() {
        for w in &WORKLOADS {
            let small = Workload {
                size: w.size * 0.02,
                ..*w
            };
            let a = small.generate(7);
            assert_eq!(a, small.generate(7), "{} must repeat", w.name);
            assert_ne!(a, small.generate(8), "{} must follow the seed", w.name);
            assert!(!small.append_stream(7).is_empty());
        }
    }

    #[test]
    fn mixes_have_four_statements_per_class() {
        for w in &WORKLOADS {
            let mix = w.statements();
            let scans = mix.iter().filter(|s| s.class == Class::Scan).count();
            assert_eq!(scans, 4, "{}", w.name);
            for s in mix {
                assert!(!s.sql.contains('\n'), "the line protocol needs one line");
                assert!(s.sql.contains("ORDER BY") || !s.sql.contains("GROUP BY"));
            }
        }
    }
}
