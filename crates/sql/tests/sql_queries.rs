//! End-to-end SQL tests: parse → compile → execute, validated against
//! hand-built `jt-query` plans and brute-force answers.

use jt_core::{Relation, StorageMode, TilesConfig};
use jt_json::Value;
use jt_query::{col, lit, AccessType, Agg, ExecOptions, Query};
use jt_sql::query;

fn sales_docs() -> Vec<Value> {
    (0..400)
        .map(|i| {
            jt_json::parse(&format!(
                r#"{{"id":{i},"region":"{}","amount":"{}.{:02}","qty":{},"day":"2024-{:02}-15","user":{{"vip":{}}}}}"#,
                ["north", "south", "east", "west"][i % 4],
                10 + i % 90,
                i % 100,
                1 + i % 9,
                1 + i % 12,
                i % 5 == 0,
            ))
            .unwrap()
        })
        .collect()
}

fn orders_docs() -> Vec<Value> {
    (0..100)
        .map(|i| {
            jt_json::parse(&format!(
                r#"{{"o_id":{i},"o_region":"{}"}}"#,
                ["north", "south", "east", "west"][i % 4]
            ))
            .unwrap()
        })
        .collect()
}

fn load(docs: &[Value]) -> Relation {
    Relation::load(
        docs,
        TilesConfig {
            tile_size: 128,
            partition_size: 2,
            ..TilesConfig::default()
        },
    )
}

#[test]
fn simple_aggregate() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT COUNT(*), SUM(data->>'qty'::INT) FROM sales",
        &[("sales", &rel)],
    )
    .unwrap();
    assert_eq!(r.column(0)[0].as_i64(), Some(400));
    let brute: i64 = sales_docs()
        .iter()
        .map(|d| d.get("qty").unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(r.column(1)[0].as_i64(), Some(brute));
}

#[test]
fn group_by_alias_order_limit() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'region' AS region, COUNT(*) AS n, SUM(data->>'amount'::DECIMAL) \
         FROM sales WHERE data->>'qty'::INT >= 3 \
         GROUP BY region ORDER BY 3 DESC LIMIT 2",
        &[("sales", &rel)],
    )
    .unwrap();
    assert_eq!(r.rows(), 2);
    // Equivalent hand-built plan.
    let hand = Query::scan("s", &rel)
        .access("region", AccessType::Text)
        .access("qty", AccessType::Int)
        .access("amount", AccessType::Numeric)
        .filter(col("qty").ge(lit(3)))
        .aggregate(
            vec![col("region")],
            vec![Agg::count_star(), Agg::sum(col("amount"))],
        )
        .order_by(2, true)
        .limit(2)
        .run();
    assert_eq!(r.to_lines(), hand.to_lines());
}

#[test]
fn join_via_where_equality() {
    let sales = load(&sales_docs());
    let orders = load(&orders_docs());
    let r = query(
        "SELECT o.data->>'o_region', COUNT(*) \
         FROM sales s, orders o \
         WHERE s.data->>'region' = o.data->>'o_region' \
           AND s.data->>'qty'::INT > 5 \
         GROUP BY 1 ORDER BY 1",
        &[("sales", &sales), ("orders", &orders)],
    )
    .unwrap();
    assert_eq!(r.rows(), 4);
    // Brute force: per region, qty>5 sales × region orders.
    let s = sales_docs();
    let o = orders_docs();
    for row in 0..r.rows() {
        let region = r.column(0)[row].as_str().unwrap().to_owned();
        let count = r.column(1)[row].as_i64().unwrap();
        let expect = s
            .iter()
            .filter(|d| {
                d.get("region").unwrap().as_str() == Some(&region)
                    && d.get("qty").unwrap().as_i64().unwrap() > 5
            })
            .count()
            * o.iter()
                .filter(|d| d.get("o_region").unwrap().as_str() == Some(&region))
                .count();
        assert_eq!(count, expect as i64, "region {region}");
    }
}

#[test]
fn nested_access_and_bool_cast() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT COUNT(*) FROM t WHERE data->'user'->>'vip'::BOOL = TRUE",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.column(0)[0].as_i64(), Some(80));
}

#[test]
fn date_literals_and_extract() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT EXTRACT(YEAR FROM data->>'day'::DATE), COUNT(*) FROM t \
         WHERE data->>'day'::DATE >= DATE '2024-06-01' GROUP BY 1",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.column(0)[0].as_i64(), Some(2024));
    let brute = sales_docs()
        .iter()
        .filter(|d| d.get("day").unwrap().as_str().unwrap() >= "2024-06-01")
        .count();
    assert_eq!(r.column(1)[0].as_i64(), Some(brute as i64));
}

#[test]
fn having_and_like_and_in() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'region' AS g, COUNT(*) FROM t \
         WHERE data->>'region' LIKE '%th' AND data->>'region' IN ('north','south','east') \
         GROUP BY g HAVING COUNT(*) > 10 ORDER BY g",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.rows(), 2, "north and south end with 'th'");
    assert_eq!(r.column(0)[0].as_str(), Some("north"));
    assert_eq!(r.column(0)[1].as_str(), Some("south"));
}

#[test]
fn having_with_unselected_aggregate() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'region', COUNT(*) FROM t GROUP BY 1 HAVING SUM(data->>'qty'::INT) > 400 ORDER BY 1",
        &[("t", &rel)],
    )
    .unwrap();
    // Hidden aggregate is computed but not projected.
    assert!(r.rows() >= 1);
    assert_eq!(r.chunk.width(), 2, "only the selected columns survive");
}

#[test]
fn scalar_select_without_aggregation() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'id'::INT, data->>'region' FROM t WHERE data->>'id'::INT < 3 ORDER BY 1",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.rows(), 3);
    assert_eq!(r.column(0)[2].as_i64(), Some(2));
}

#[test]
fn identical_results_across_modes() {
    let docs = sales_docs();
    let sql = "SELECT data->>'region' AS g, COUNT(*), AVG(data->>'amount'::DECIMAL) \
               FROM t WHERE data->>'qty'::INT <> 4 GROUP BY g ORDER BY g";
    let mut expected: Option<Vec<String>> = None;
    for mode in [
        StorageMode::JsonText,
        StorageMode::Jsonb,
        StorageMode::Sinew,
        StorageMode::Tiles,
    ] {
        let rel = Relation::load(&docs, TilesConfig::with_mode(mode));
        let r = jt_sql::query_with(sql, &[("t", &rel)], ExecOptions::default()).unwrap();
        let lines = r.to_lines();
        match &expected {
            None => expected = Some(lines),
            Some(e) => assert_eq!(e, &lines, "{mode:?}"),
        }
    }
}

#[test]
fn bare_count_star_counts_every_row() {
    // A scan with no JSON access must still carry its row count.
    let docs = sales_docs();
    let orders = load(&orders_docs());
    for mode in [
        StorageMode::JsonText,
        StorageMode::Jsonb,
        StorageMode::Sinew,
        StorageMode::Tiles,
    ] {
        let config = TilesConfig {
            tile_size: 128,
            partition_size: 2,
            ..TilesConfig::with_mode(mode)
        };
        let rel = Relation::load(&docs, config);
        let tables = [("t", &rel), ("o", &orders)];
        for threads in [1, 2] {
            let count = |sql: &str| {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let r = jt_sql::query_with(sql, &tables, opts).unwrap();
                r.column(0)[0].as_i64()
            };
            let at = format!("{mode:?} threads={threads}");
            assert_eq!(count("SELECT COUNT(*) FROM t"), Some(400), "{at}");
            assert_eq!(
                count("SELECT COUNT(*) FROM t WHERE data->>'qty'::INT >= 0"),
                Some(400),
                "{at}"
            );
            assert_eq!(count("SELECT COUNT(*) FROM t, o"), Some(40_000), "{at}");
        }
    }
}

#[test]
fn non_finite_floats_answer_alike_in_every_mode() {
    // JSON has no NaN or infinity: every mode must store them as null.
    let docs: Vec<Value> = (0..40)
        .map(|i| {
            let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5][i % 4];
            Value::Object(vec![
                ("id".into(), Value::int(i as i64)),
                ("x".into(), Value::float(x)),
                ("xs".into(), Value::Array(vec![Value::float(x)])),
            ])
        })
        .collect();
    let sql = "SELECT data->>'id'::INT AS id, data->>'x'::FLOAT, data->'xs'->>0 \
               FROM t ORDER BY id";
    let mut expected: Option<Vec<String>> = None;
    for mode in [
        StorageMode::JsonText,
        StorageMode::Jsonb,
        StorageMode::Sinew,
        StorageMode::Tiles,
    ] {
        let rel = Relation::load(&docs, TilesConfig::with_mode(mode));
        let count = query("SELECT COUNT(data->>'x'::FLOAT) FROM t", &[("t", &rel)]).unwrap();
        assert_eq!(
            count.column(0)[0].as_i64(),
            Some(10),
            "{mode:?}: finite only"
        );
        let lines = query(sql, &[("t", &rel)]).unwrap().to_lines();
        match &expected {
            None => expected = Some(lines),
            Some(e) => assert_eq!(e, &lines, "{mode:?}"),
        }
    }
}

#[test]
fn tpch_q10_figure5_style() {
    // The Figure 5 query, in SQL, over the combined TPC-H relation.
    let data = jt_data::tpch::generate(jt_data::tpch::TpchConfig {
        scale: 0.05,
        seed: 11,
    });
    let combined = data.combined();
    let rel = load(&combined);
    let r = query(
        "SELECT c.data->>'c_custkey'::BIGINT AS ck, \
                SUM(l.data->>'l_extendedprice'::DECIMAL * (1 - l.data->>'l_discount'::DECIMAL)) \
         FROM customer c, orders o, lineitem l \
         WHERE l.data->>'l_orderkey'::BIGINT = o.data->>'o_orderkey'::BIGINT \
           AND o.data->>'o_custkey'::BIGINT = c.data->>'c_custkey'::BIGINT \
         GROUP BY ck ORDER BY 2 DESC LIMIT 10",
        &[("customer", &rel), ("orders", &rel), ("lineitem", &rel)],
    )
    .unwrap();
    assert!(r.rows() > 0);
    // Revenues are positive and sorted descending.
    let revs: Vec<f64> = r.column(1).iter().map(|s| s.as_f64().unwrap()).collect();
    assert!(revs.windows(2).all(|w| w[0] >= w[1]));
    assert!(revs.iter().all(|&v| v > 0.0));
}

#[test]
fn order_by_limit_takes_top_k_and_matches_full_sort() {
    // 2000 rows with a duplicate-heavy key: big enough for the parallel
    // sort, and LIMIT 10 is deep in top-K territory.
    let docs: Vec<Value> = (0..2000)
        .map(|i: i64| {
            jt_json::parse(&format!(
                r#"{{"k":{},"f":{}.5,"id":{i}}}"#,
                (i * 37) % 200,
                (i * 13) % 500
            ))
            .unwrap()
        })
        .collect();
    let rel = load(&docs);
    let tables: &[(&str, &Relation)] = &[("t", &rel)];
    let base = "SELECT data->>'k'::INT, data->>'f'::FLOAT, data->>'id'::INT FROM t \
                ORDER BY 1 DESC, 2";
    let full = query(base, tables).unwrap();
    for threads in [1usize, 2, 8] {
        let limited = jt_sql::query_with(
            &format!("{base} LIMIT 10"),
            tables,
            ExecOptions {
                threads,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(limited.rows(), 10);
        // Top-K must equal full-sort-then-truncate, row for row.
        for r in 0..10 {
            for c in 0..full.chunk.width() {
                assert_eq!(
                    limited.chunk.get(r, c),
                    full.chunk.get(r, c),
                    "row {r} col {c} at threads={threads}"
                );
            }
        }
        let stage = limited
            .profile
            .stages
            .iter()
            .find(|s| s.name == "top-k")
            .expect("ORDER BY + LIMIT 10 over 2000 rows must take the top-K path");
        assert!(stage.threads >= 1 && stage.partitions >= 1);
    }
    // EXPLAIN advertises the pushed-down bound.
    let out = jt_sql::execute(
        &format!("EXPLAIN {base} LIMIT 10"),
        tables,
        ExecOptions::default(),
    )
    .unwrap();
    let jt_sql::SqlOutput::Plan(plan) = out else {
        panic!("EXPLAIN must produce a plan");
    };
    assert!(
        plan.contains("order-by keys=2 (top-k bound 10)"),
        "plan must show the top-K bound:\n{plan}"
    );
    assert!(
        plan.contains("limit 10"),
        "plan keeps the limit line:\n{plan}"
    );
}

#[test]
fn offset_matches_full_sort_then_slice() {
    let docs: Vec<Value> = (0..2000)
        .map(|i: i64| jt_json::parse(&format!(r#"{{"k":{},"id":{i}}}"#, (i * 37) % 200)).unwrap())
        .collect();
    let rel = load(&docs);
    let tables: &[(&str, &Relation)] = &[("t", &rel)];
    let base = "SELECT data->>'k'::INT, data->>'id'::INT FROM t ORDER BY 1 DESC, 2";
    let full = query(base, tables).unwrap();

    // LIMIT n OFFSET m must equal full-sort-then-slice rows m..m+n, at
    // every thread count (the top-K bound becomes n+m under the hood).
    for threads in [1usize, 2, 8] {
        let paged = jt_sql::query_with(
            &format!("{base} LIMIT 10 OFFSET 25"),
            tables,
            ExecOptions {
                threads,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(paged.rows(), 10);
        for r in 0..10 {
            for c in 0..full.chunk.width() {
                assert_eq!(
                    paged.chunk.get(r, c),
                    full.chunk.get(25 + r, c),
                    "row {r} col {c} at threads={threads}"
                );
            }
        }
    }

    // OFFSET without LIMIT: the remainder of the full sort.
    let tail = query(&format!("{base} OFFSET 1990"), tables).unwrap();
    assert_eq!(tail.rows(), 10);
    for r in 0..10 {
        assert_eq!(tail.chunk.get(r, 0), full.chunk.get(1990 + r, 0));
    }

    // OFFSET past the result is empty, not an error.
    let past = query(&format!("{base} LIMIT 5 OFFSET 5000"), tables).unwrap();
    assert_eq!(past.rows(), 0);

    // OFFSET on an unsorted query just skips leading rows.
    let unsorted = query("SELECT data->>'id'::INT FROM t OFFSET 1995", tables).unwrap();
    assert_eq!(unsorted.rows(), 5);

    // EXPLAIN: the top-K bound absorbs the offset, and the offset is shown.
    let out = jt_sql::execute(
        &format!("EXPLAIN {base} LIMIT 10 OFFSET 25"),
        tables,
        ExecOptions::default(),
    )
    .unwrap();
    let jt_sql::SqlOutput::Plan(plan) = out else {
        panic!("EXPLAIN must produce a plan");
    };
    assert!(
        plan.contains("order-by keys=2 (top-k bound 35)"),
        "top-K bound must be limit+offset:\n{plan}"
    );
    assert!(plan.contains("offset 25"), "plan shows offset:\n{plan}");
    assert!(plan.contains("limit 10"), "plan keeps limit:\n{plan}");
}

#[test]
fn error_reporting() {
    let rel = load(&sales_docs());
    let tables: &[(&str, &Relation)] = &[("t", &rel)];
    for bad in [
        "SELECT data->>'x' FROM missing",
        "SELECT nope FROM t",
        "SELECT data->>'x' FROM t GROUP BY 9",
        "SELECT data->>'x', COUNT(*) FROM t GROUP BY 1 ORDER BY zz",
        "SELECT data->>'a' FROM t HAVING COUNT(*) > 1",
        "SELECT COUNT(*) FROM t WHERE data->>'x' LIKE '%a%b%'",
    ] {
        assert!(query(bad, tables).is_err(), "should fail: {bad}");
    }
}

#[test]
fn order_by_expression_appends_hidden_sort_slot() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'id'::INT, data->>'qty'::INT FROM t \
         WHERE data->>'id'::INT < 30 \
         ORDER BY data->>'id'::INT + data->>'qty'::INT DESC, 1",
        &[("t", &rel)],
    )
    .unwrap();
    // The sort expression rides along as a hidden slot; the visible
    // output stays two columns wide.
    assert_eq!(r.chunk.width(), 2);
    let mut expect: Vec<(i64, i64)> = sales_docs()
        .iter()
        .filter_map(|d| {
            let id = d.get("id").unwrap().as_i64().unwrap();
            (id < 30).then(|| (id, d.get("qty").unwrap().as_i64().unwrap()))
        })
        .collect();
    expect.sort_by(|a, b| (b.0 + b.1).cmp(&(a.0 + a.1)).then(a.0.cmp(&b.0)));
    let got: Vec<(i64, i64)> = (0..r.rows())
        .map(|i| {
            (
                r.column(0)[i].as_i64().unwrap(),
                r.column(1)[i].as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn order_by_select_alias_desc() {
    let rel = load(&sales_docs());
    let r = query(
        "SELECT data->>'region' AS region, SUM(data->>'qty'::INT) AS total \
         FROM t GROUP BY region ORDER BY total DESC",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.rows(), 4);
    let totals: Vec<i64> = (0..4).map(|i| r.column(1)[i].as_i64().unwrap()).collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "descending totals: {totals:?}"
    );
    let hand = Query::scan("t", &rel)
        .access("region", AccessType::Text)
        .access("qty", AccessType::Int)
        .aggregate(vec![col("region")], vec![Agg::sum(col("qty"))])
        .order_by(1, true)
        .run();
    assert_eq!(r.to_lines(), hand.to_lines());
}

#[test]
fn order_by_expression_on_aggregate_output() {
    let rel = load(&sales_docs());
    // The sort key mixes two aggregates; neither alias nor ordinal names
    // it, so it compiles into a hidden slot in aggregate-output context.
    let r = query(
        "SELECT data->>'region' AS region, SUM(data->>'qty'::INT) AS total, COUNT(*) AS n \
         FROM t GROUP BY region ORDER BY total - n DESC, region",
        &[("t", &rel)],
    )
    .unwrap();
    assert_eq!(r.chunk.width(), 3);
    let diffs: Vec<i64> = (0..r.rows())
        .map(|i| r.column(1)[i].as_i64().unwrap() - r.column(2)[i].as_i64().unwrap())
        .collect();
    assert!(
        diffs.windows(2).all(|w| w[0] >= w[1]),
        "descending total-n: {diffs:?}"
    );
}
