//! Twitter stream analytics — the paper's running example (§2.2, §6.3):
//! schema evolution over time, structurally disjoint delete records, and
//! high-cardinality hashtag/mention arrays extracted into side relations
//! (the `Tiles-*` approach).
//!
//! ```text
//! cargo run --release --example twitter_analytics
//! ```

use json_tiles::data::twitter::{generate, TwitterConfig};
use json_tiles::query::ExecOptions;
use json_tiles::tiles::{Relation, TilesConfig};
use json_tiles::workloads::twitter as tw;
use std::time::Instant;

fn main() {
    // An evolving stream: 2006-style minimal tweets grow replies (2007),
    // retweets (2009), geo tags (2010) — plus ~12% delete records.
    let data = generate(TwitterConfig {
        docs: 30_000,
        evolving: true,
        ..Default::default()
    });
    println!(
        "stream: {} documents ({} deletes, {} tweets mention @ladygaga, {} tagged #COVID)",
        data.docs.len(),
        data.deletes,
        data.ladygaga_mentions,
        data.covid_tweets
    );

    let rel = Relation::load(&data.docs, TilesConfig::default());
    println!(
        "loaded into {} tiles at {:.0}k tuples/sec",
        rel.tiles().len(),
        rel.metrics().tuples_per_sec() / 1e3
    );

    // Build the Tiles-* side relations by shredding the entity arrays.
    let side = tw::build_side_relations(&data.docs, TilesConfig::default());
    println!(
        "side relations: {} hashtag rows, {} mention rows",
        side.hashtags.row_count(),
        side.mentions.row_count()
    );

    let opts = ExecOptions {
        threads: 4,
        ..ExecOptions::default()
    };

    // Q2: deleted tweets per user — only works because reordering clusters
    // the globally-rare delete documents into extractable tiles.
    let r = tw::run_query(2, &rel, opts.clone());
    println!("\ntop deleters (Q2): {} user groups", r.rows());
    for line in r.to_lines().iter().take(3) {
        println!("  {line}");
    }

    // Q4 both ways: probing the array through the binary documents vs
    // joining the shredded side relation.
    let t0 = Instant::now();
    let base = tw::run_query(4, &rel, opts.clone());
    let base_time = t0.elapsed();
    let t0 = Instant::now();
    let star = tw::run_query_star(4, &rel, &side, opts.clone());
    let star_time = t0.elapsed();
    assert_eq!(base.column(0)[0].as_i64(), star.column(0)[0].as_i64());
    println!(
        "\n#COVID tweets (Q4): {} — base variant {:?}, Tiles-* variant {:?}",
        base.column(0)[0].display(),
        base_time,
        star_time
    );

    // Q1: influencers.
    let r = tw::run_query(1, &rel, opts.clone());
    println!("\nmost retweeted influencers (Q1):");
    for line in r.to_lines().iter().take(5) {
        println!("  {line}");
    }

    // The relation-level statistics the optimizer uses (§4.6).
    let stats = rel.stats();
    println!(
        "\nstats: `delete.status.id` in {} docs; distinct users ≈ {:.0}",
        stats.estimate_path_count("delete.status.id"),
        stats.estimate_distinct("user.id").unwrap_or(0.0)
    );
}
