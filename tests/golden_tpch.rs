//! Golden `EXPLAIN` texts for all 22 TPC-H queries: canonical logical
//! tree, per-pass deltas (with estimated cardinalities from the tile
//! statistics), and the lowered physical plan, against a fixed generated
//! dataset.
//!
//! A diff means planning changed for that query — review it, then
//! regenerate with:
//!
//! ```text
//! JT_BLESS=1 cargo test --test golden_tpch
//! ```

use std::path::PathBuf;

use json_tiles::data;
use json_tiles::query::PlannerOptions;
use json_tiles::tiles::{Relation, TilesConfig};
use json_tiles::workloads::tpch;

fn golden_path(q: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/tpch")
        .join(format!("q{q:02}.golden"))
}

#[test]
fn tpch_explain_goldens() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.04,
        seed: 7,
    });
    let rel = Relation::load(&d.combined(), TilesConfig::default());
    let bless = std::env::var_os("JT_BLESS").is_some();
    let mut failures = Vec::new();
    for q in 1..=tpch::QUERY_COUNT {
        let actual = tpch::explain_query(q, &rel, &PlannerOptions::default());
        let path = golden_path(q);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => {
                failures.push(format!(
                    "Q{q}: plan changed\n--- expected ({})\n{expected}\n--- actual\n{actual}",
                    path.display()
                ));
            }
            Err(e) => failures.push(format!("Q{q}: missing golden {} ({e})", path.display())),
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n{} TPC-H plan golden(s) diverged; review, then regenerate with \
         `JT_BLESS=1 cargo test --test golden_tpch`",
        failures.join("\n\n"),
        failures.len()
    );
}
