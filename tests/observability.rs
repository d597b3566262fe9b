//! Observability integration tests: EXPLAIN ANALYZE profiles, scan
//! accounting identities, and the metrics-registry JSON snapshot, checked
//! against real TPC-H executions.

use json_tiles::data;
use json_tiles::obs;
use json_tiles::query::ExecOptions;
use json_tiles::sql;
use json_tiles::tiles::{Relation, TilesConfig};
use json_tiles::workloads::tpch;

fn combined_relation(scale: f64, seed: u64) -> Relation {
    let d = data::tpch::generate(data::tpch::TpchConfig { scale, seed });
    // Parallel tile formation: partitions split on fixed document ranges
    // and merge in order, so the relation is identical to a sequential
    // load — which the tests below implicitly re-verify.
    Relation::load(&d.combined(), TilesConfig::default())
}

/// Every TPC-H query's profile must satisfy the scan accounting
/// identities: each tile is either scanned or skipped (with exactly one
/// skip reason), and every scanned row is attributed to exactly one
/// evaluation stage.
#[test]
fn tpch_profiles_satisfy_accounting_identities() {
    let rel = combined_relation(0.04, 7);
    for q in 1..=tpch::QUERY_COUNT {
        let r = tpch::run_query(q, &rel, ExecOptions::default());
        let p = &r.profile;
        assert_eq!(p.rows_out, r.rows(), "Q{q}: profile rows_out");
        assert!(!p.scans.is_empty(), "Q{q}: no scans profiled");
        for s in &p.scans {
            assert_eq!(
                s.stats.scanned_tiles + s.stats.skipped_tiles,
                s.stats.total_tiles,
                "Q{q} scan {}: tile accounting gap",
                s.table
            );
            assert_eq!(
                s.stats.skipped_header_stats + s.stats.skipped_bloom,
                s.stats.skipped_tiles,
                "Q{q} scan {}: skip-reason accounting gap",
                s.table
            );
            assert_eq!(
                s.stats.rows_attributed(),
                s.stats.rows_scanned,
                "Q{q} scan {}: row attribution gap",
                s.table
            );
        }
        let totals = p.scan_totals();
        assert_eq!(
            totals.rows_kernel + totals.rows_batched + totals.rows_exact + totals.rows_passthrough,
            totals.rows_scanned,
            "Q{q}: kernel+batched+exact+passthrough must equal rows scanned"
        );
        // The join-heavy queries skip tiles; at least one query must
        // actually exercise the skip path so the identity isn't vacuous.
        assert_eq!(
            r.scan_stats.scanned_tiles + r.scan_stats.skipped_tiles,
            r.scan_stats.total_tiles,
            "Q{q}: merged scan stats tile accounting"
        );
    }
}

/// Thread count must not change results: every TPC-H query at `threads` ∈
/// {2, 4, 8} returns a chunk bit-identical to `threads: 1` (floats
/// compared by bit pattern), and the profile accounting identities hold on
/// the parallel path too. At least one query must actually take a
/// partitioned operator path, and every query with an ORDER BY must record
/// a sort stage, so the assertions aren't vacuous.
#[test]
fn tpch_results_are_bit_identical_across_thread_counts() {
    use json_tiles::query::Scalar;
    let rel = combined_relation(0.04, 7);
    let opts = |threads| ExecOptions {
        threads,
        ..ExecOptions::default()
    };
    let mut partitioned_ops = 0usize;
    let mut sort_stages = 0usize;
    for q in 1..=tpch::QUERY_COUNT {
        let seq = tpch::run_query(q, &rel, opts(1));
        for threads in [2usize, 4, 8] {
            let par = tpch::run_query(q, &rel, opts(threads));
            assert_eq!(
                par.rows(),
                seq.rows(),
                "Q{q} t={threads}: row count changed"
            );
            assert_eq!(
                par.chunk.width(),
                seq.chunk.width(),
                "Q{q} t={threads}: width changed"
            );
            for c in 0..seq.chunk.width() {
                for r in 0..seq.rows() {
                    let (a, b) = (par.chunk.get(r, c), seq.chunk.get(r, c));
                    let same = match (a, b) {
                        (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
                        _ => a == b,
                    };
                    assert!(
                        same,
                        "Q{q}: row {r} col {c}: {a:?} (t={threads}) vs {b:?} (t=1)"
                    );
                }
            }
            if threads != 4 {
                continue;
            }
            // Row accounting must hold regardless of thread count.
            let p = &par.profile;
            assert_eq!(p.rows_out, par.rows(), "Q{q}: parallel profile rows_out");
            for s in &p.scans {
                assert_eq!(
                    s.stats.scanned_tiles + s.stats.skipped_tiles,
                    s.stats.total_tiles,
                    "Q{q} scan {}: tile accounting at threads=4",
                    s.table
                );
                assert_eq!(
                    s.stats.rows_attributed(),
                    s.stats.rows_scanned,
                    "Q{q} scan {}: row attribution at threads=4",
                    s.table
                );
            }
            partitioned_ops += p.joins.iter().filter(|j| j.partitions > 1).count();
            partitioned_ops += p.stages.iter().filter(|s| s.partitions > 1).count();
            // Every sort stage now reports its execution shape: threads
            // and at least one run even on the sequential fallback.
            for s in &p.stages {
                if s.name == "order-by" || s.name == "top-k" {
                    sort_stages += 1;
                    assert!(s.threads >= 1, "Q{q}: sort stage must report threads");
                    assert!(s.partitions >= 1, "Q{q}: sort stage must report runs");
                }
            }
        }
    }
    assert!(
        partitioned_ops > 0,
        "no TPC-H query took a partitioned join/agg path at threads=4"
    );
    assert!(
        sort_stages > 0,
        "no TPC-H query recorded an order-by/top-k stage"
    );
}

/// The logical rewrite passes are semantics-preserving: for every TPC-H
/// query, disabling any single pass yields a result bit-identical to the
/// all-passes plan, at threads 1 and 4. Disabling join-reorder also turns
/// off the executor's runtime greedy ordering, so the declaration-order
/// plan actually executes — the strongest form of the claim.
#[test]
fn planner_passes_preserve_tpch_results() {
    use json_tiles::query::{Pass, PlannerOptions, Scalar};
    let rel = combined_relation(0.04, 7);
    let bit_eq = |a: Scalar, b: Scalar| match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
        (a, b) => a == b,
    };
    for threads in [1usize, 4] {
        let exec = |optimize_joins: bool| ExecOptions {
            threads,
            optimize_joins,
            ..ExecOptions::default()
        };
        for q in 1..=tpch::QUERY_COUNT {
            let base = tpch::run_planned(q, &rel, &PlannerOptions::default(), exec(true));
            for pass in Pass::ALL {
                let popts = PlannerOptions::default().without(pass);
                let alt = tpch::run_planned(q, &rel, &popts, exec(pass != Pass::JoinReorder));
                let label = || format!("Q{q} t={threads} without {}", pass.name());
                assert_eq!(alt.rows(), base.rows(), "{}: row count", label());
                assert_eq!(alt.chunk.width(), base.chunk.width(), "{}: width", label());
                for c in 0..base.chunk.width() {
                    for r in 0..base.rows() {
                        let (a, b) = (alt.chunk.get(r, c), base.chunk.get(r, c));
                        assert!(
                            bit_eq(a.clone(), b.clone()),
                            "{}: row {r} col {c}: {a:?} vs {b:?}",
                            label()
                        );
                    }
                }
            }
        }
    }
}

/// A single-table ORDER BY large enough for the morsel-parallel sort (and,
/// with LIMIT, the bounded-heap top-K path): results must be bit-identical
/// across thread counts and the profile must show the parallel shape.
#[test]
fn large_order_by_is_parallel_and_bit_identical() {
    use json_tiles::query::Scalar;
    let docs: Vec<_> = (0..4000)
        .map(|i: i64| {
            let v = (i * 7919) % 1000; // duplicate-heavy sort key
            let f = ((i * 131) % 997) as f64 * 0.5;
            jt_json::parse(&format!(r#"{{"v": {v}, "f": {f}, "id": {i}}}"#)).unwrap()
        })
        .collect();
    let rel = Relation::load(&docs, TilesConfig::default());
    let run = |sql_text: &str, threads: usize| {
        let out = sql::execute(
            sql_text,
            &[("t", &rel)],
            ExecOptions {
                threads,
                ..ExecOptions::default()
            },
        )
        .expect("valid query");
        let sql::SqlOutput::Rows(r) = out else {
            panic!("plain SELECT must produce rows");
        };
        r
    };
    for (sql_text, want_stage, want_rows) in [
        (
            "SELECT data->>'v'::INT, data->>'f'::FLOAT, data->>'id'::INT FROM t \
             ORDER BY 1 DESC, 2",
            "order-by",
            4000,
        ),
        (
            "SELECT data->>'v'::INT, data->>'f'::FLOAT, data->>'id'::INT FROM t \
             ORDER BY 1 DESC, 2 LIMIT 25",
            "top-k",
            25,
        ),
    ] {
        let seq = run(sql_text, 1);
        assert_eq!(seq.rows(), want_rows);
        for threads in [2usize, 4, 8] {
            let par = run(sql_text, threads);
            assert_eq!(par.rows(), seq.rows(), "t={threads}");
            for c in 0..seq.chunk.width() {
                for r in 0..seq.rows() {
                    let (a, b) = (par.chunk.get(r, c), seq.chunk.get(r, c));
                    let same = match (a, b) {
                        (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
                        _ => a == b,
                    };
                    assert!(same, "row {r} col {c} at t={threads}: {a:?} vs {b:?}");
                }
            }
            let stage = par
                .profile
                .stages
                .iter()
                .find(|s| s.name == want_stage)
                .unwrap_or_else(|| panic!("missing {want_stage} stage at t={threads}"));
            assert_eq!(
                stage.threads, threads,
                "{want_stage} must report its threads"
            );
            assert!(
                stage.partitions > 1,
                "{want_stage} at t={threads} must merge several runs"
            );
        }
    }
}

/// At this scale the combined relation spans several tiles and the
/// join-heavy queries must skip at least one of them — otherwise the skip
/// instrumentation is measuring nothing.
#[test]
fn tpch_skip_path_is_exercised_and_attributed() {
    let d = data::tpch::generate(data::tpch::TpchConfig {
        scale: 0.04,
        seed: 11,
    });
    // Small tiles so the combined relation spans many of them and the
    // table-disjoint tiles are skippable.
    let config = TilesConfig {
        tile_size: 128,
        ..TilesConfig::default()
    };
    let rel = Relation::load(&d.combined(), config);
    assert!(rel.tiles().len() > 1, "need a multi-tile relation");
    let mut skips = 0;
    for q in [3, 4, 10, 12, 18] {
        let r = tpch::run_query(q, &rel, ExecOptions::default());
        skips += r.scan_stats.skipped_tiles;
        assert_eq!(
            r.scan_stats.skipped_header_stats + r.scan_stats.skipped_bloom,
            r.scan_stats.skipped_tiles,
            "Q{q}: every skip needs exactly one evidence class"
        );
    }
    assert!(skips > 0, "join queries should skip disjoint-table tiles");
}

#[test]
fn explain_analyze_reports_execution() {
    let docs: Vec<_> = (0..500)
        .map(|i| jt_json::parse(&format!(r#"{{"v": {}, "s": "g{}"}}"#, i % 50, i % 5)).unwrap())
        .collect();
    let rel = Relation::load(&docs, TilesConfig::default());
    let out = sql::execute(
        "EXPLAIN ANALYZE SELECT data->>'s'::TEXT, COUNT(*) FROM t \
         WHERE data->>'v'::INT < 10 GROUP BY 1 ORDER BY 1",
        &[("t", &rel)],
        ExecOptions::default(),
    )
    .expect("valid query");
    let sql::SqlOutput::Analyze { rendered, result } = out else {
        panic!("EXPLAIN ANALYZE must produce Analyze output");
    };
    assert_eq!(result.rows(), 5);
    assert!(
        rendered.starts_with("EXPLAIN ANALYZE"),
        "header line: {rendered}"
    );
    for needle in [
        "scan t:",
        "rows scanned",
        "aggregate:",
        "order-by:",
        "5 rows",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
    // The rendered row counts must match the executed result, not a
    // re-execution: rows_out of the profile is the returned row count.
    assert_eq!(result.profile.rows_out, result.rows());
    assert_eq!(
        result.profile.scan_totals().rows_scanned,
        result.scan_stats.rows_scanned
    );
}

#[test]
fn explain_returns_plan_without_executing() {
    let docs: Vec<_> = (0..10)
        .map(|i| jt_json::parse(&format!(r#"{{"v": {i}}}"#)).unwrap())
        .collect();
    let rel = Relation::load(&docs, TilesConfig::default());
    let out = sql::execute(
        "EXPLAIN SELECT COUNT(*) FROM t",
        &[("t", &rel)],
        ExecOptions::default(),
    )
    .expect("valid query");
    let sql::SqlOutput::Plan(plan) = out else {
        panic!("EXPLAIN must produce Plan output");
    };
    assert!(plan.contains("scan t"), "plan text: {plan}");
}

/// With the registry enabled, a load + query round trip publishes the
/// documented counter families and the snapshot serializes to JSON that
/// our own parser accepts.
#[test]
fn metrics_snapshot_round_trips_through_json() {
    obs::set_enabled(true);
    let rel = combined_relation(0.02, 13);
    let _ = tpch::run_query(6, &rel, ExecOptions::default());
    let json = obs::global().snapshot().to_json();
    let doc = jt_json::parse(&json).expect("snapshot must be valid JSON");
    let jt_json::Value::Object(fields) = &doc else {
        panic!("snapshot root must be an object");
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing {k}"))
    };
    assert_eq!(
        get("schema"),
        &jt_json::Value::Str("jt-obs/v1".into()),
        "schema tag"
    );
    let jt_json::Value::Object(counters) = get("counters") else {
        panic!("counters must be an object");
    };
    for family in [
        "load.rows",
        "load.tiles_built",
        "load.partitions",
        "load.threads",
        "query.scan.rows_scanned",
    ] {
        assert!(
            counters.iter().any(|(name, _)| name == family),
            "missing counter {family} in snapshot"
        );
    }
}

/// Partition reordering reports what it worked on — distinct shapes in,
/// candidate itemsets mined, survivors matched — whichever entry point
/// (`Value`s or NDJSON text) the load came through, so a slow load can be
/// attributed from `jt metrics` alone.
#[test]
fn reorder_counters_are_published_by_both_loaders() {
    obs::set_enabled(true);
    let docs = data::hackernews::generate(data::hackernews::HnConfig {
        items: 400,
        seed: 21,
    });
    let config = TilesConfig {
        tile_size: 32,
        partition_size: 4,
        ..TilesConfig::default()
    };
    const NAMES: [&str; 3] = [
        "load.reorder.shapes",
        "load.reorder.candidates",
        "load.reorder.survivors",
    ];
    // The registry is process-wide and other tests load concurrently, so
    // only growth is asserted, never an exact value.
    let read = || {
        let snap = obs::global().snapshot();
        NAMES.map(|n| snap.counter(n))
    };
    let before = read();
    let _ = Relation::load(&docs, config);
    let after_values = read();
    let text = data::to_ndjson(&docs);
    Relation::try_load_ondemand(text.as_bytes(), config, 1).expect("ondemand load");
    let after_text = read();
    for (i, name) in NAMES.iter().enumerate() {
        assert!(
            after_values[i] > before[i],
            "{name}: Value load added nothing"
        );
        assert!(
            after_text[i] > after_values[i],
            "{name}: NDJSON load added nothing"
        );
    }
}
