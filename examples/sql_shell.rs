//! A tiny interactive SQL shell over JSON data — the paper's user-facing
//! interface (§4.1): PostgreSQL-style `->`/`->>` access operators with
//! explicit casts, compiled to JSON tiles plans.
//!
//! ```text
//! cargo run --release --example sql_shell
//! # then type queries like:
//! #   SELECT data->>'type', COUNT(*) FROM items GROUP BY 1 ORDER BY 2 DESC;
//! # prefix with EXPLAIN for the plan or EXPLAIN ANALYZE for the executed
//! # per-operator profile; an empty line or "quit" exits; a demo script
//! # runs first
//! ```

use json_tiles::data::hackernews::{generate, HnConfig};
use json_tiles::sql;
use json_tiles::tiles::{Relation, TilesConfig};
use std::io::{BufRead, Write};

fn main() {
    let items = generate(HnConfig {
        items: 20_000,
        seed: 1,
    });
    let rel = Relation::load(&items, TilesConfig::default());
    println!(
        "loaded {} HackerNews-style items into {} tiles — table name: items",
        rel.row_count(),
        rel.tiles().len()
    );

    let demo = [
        "SELECT data->>'type' AS kind, COUNT(*) FROM items GROUP BY kind ORDER BY 2 DESC",
        "SELECT data->>'type', MAX(data->>'score'::INT) FROM items \
         WHERE data->>'score'::INT IS NOT NULL GROUP BY 1 ORDER BY 2 DESC",
        "SELECT COUNT(*) FROM items WHERE data->>'title' LIKE '%42%'",
    ];
    for q in demo {
        println!("\n> {q}");
        run(q, &rel);
    }

    println!("\nenter SQL (empty line to quit):");
    let stdin = std::io::stdin();
    loop {
        print!("sql> ");
        std::io::stdout().flush().expect("flush");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() || line.eq_ignore_ascii_case("quit") {
            break;
        }
        run(line, &rel);
    }
}

fn run(q: &str, rel: &Relation) {
    let t0 = std::time::Instant::now();
    match sql::execute(q, &[("items", rel)], Default::default()) {
        Ok(sql::SqlOutput::Rows(r)) => {
            for line in r.to_lines().iter().take(20) {
                println!("  {line}");
            }
            println!(
                "  ({} rows in {:?}; {} tiles scanned, {} skipped)",
                r.rows(),
                t0.elapsed(),
                r.scan_stats.scanned_tiles,
                r.scan_stats.skipped_tiles
            );
        }
        Ok(sql::SqlOutput::Plan(plan)) => {
            for line in plan.lines() {
                println!("  {line}");
            }
        }
        Ok(sql::SqlOutput::Analyze { rendered, .. }) => {
            for line in rendered.lines() {
                println!("  {line}");
            }
        }
        Err(e) => println!("  error: {e}"),
    }
}
