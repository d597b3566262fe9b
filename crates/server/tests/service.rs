//! End-to-end tests of the TCP query service: protocol framing, deadlines,
//! panic isolation, backpressure, generation publishing, and graceful
//! shutdown with checkpointing.

use jt_core::{Relation, TilesConfig};
use jt_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn docs(range: std::ops::Range<i64>) -> Vec<jt_json::Value> {
    range
        .map(|i| jt_json::parse(&format!("{{\"v\":{i},\"k\":{}}}", i % 7)).unwrap())
        .collect()
}

fn start(config: ServerConfig, rows: std::ops::Range<i64>) -> Server {
    let rel = Relation::load(&docs(rows), TilesConfig::default());
    Server::start(vec![("t".to_string(), rel)], config).expect("bind")
}

/// A tiny protocol client: one request line in, one framed response out.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// `Ok(lines)` for `ok <n>` responses, `Err(message)` for `err` ones.
type Response = Result<Vec<String>, String>;

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Response {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut header = String::new();
        self.reader.read_line(&mut header).expect("recv header");
        let header = header.trim_end();
        if let Some(msg) = header.strip_prefix("err ") {
            return Err(msg.to_string());
        }
        let n: usize = header
            .strip_prefix("ok ")
            .unwrap_or_else(|| panic!("bad header {header:?}"))
            .parse()
            .expect("numeric payload count");
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let mut l = String::new();
            self.reader.read_line(&mut l).expect("recv payload");
            lines.push(l.trim_end().to_string());
        }
        Ok(lines)
    }
}

#[test]
fn sql_round_trip_and_ping() {
    let server = start(ServerConfig::default(), 0..100);
    let mut c = Client::connect(&server);
    assert_eq!(c.request(".ping"), Ok(vec!["pong".to_string()]));

    let rows = c
        .request("SELECT COUNT(data->>'v'::INT) FROM t")
        .expect("count query succeeds");
    assert_eq!(rows, vec!["100".to_string()]);

    let rows = c
        .request("SELECT data->>'k'::INT, COUNT(*) FROM t GROUP BY 1 ORDER BY 1")
        .expect("group query succeeds");
    assert_eq!(rows.len(), 7);

    // Parse errors come back as err without killing the connection.
    assert!(c.request("SELECT FROM WHERE").is_err());
    assert_eq!(
        c.request("SELECT COUNT(data->>'v'::INT) FROM t")
            .expect("still alive"),
        vec!["100".to_string()]
    );
    server.shutdown();
}

#[test]
fn explain_round_trip_over_line_protocol() {
    let server = start(ServerConfig::default(), 0..100);
    let mut c = Client::connect(&server);

    // EXPLAIN: a multi-line `ok <n>` payload with the logical tree, the
    // rewrite-pass deltas, and the physical plan. Nothing executes.
    let plan = c
        .request("EXPLAIN SELECT data->>'k'::INT, COUNT(*) FROM t WHERE data->>'v'::INT < 50 GROUP BY 1 ORDER BY 2 DESC LIMIT 3")
        .expect("explain succeeds");
    assert!(plan.len() > 5, "multi-line payload, got {plan:?}");
    let text = plan.join("\n");
    assert!(text.contains("=== logical plan ==="), "got:\n{text}");
    assert!(
        text.contains("=== pass predicate-pushdown ==="),
        "got:\n{text}"
    );
    assert!(text.contains("=== physical plan ==="), "got:\n{text}");
    assert!(text.contains("limit 3"), "bound visible in tree:\n{text}");

    // EXPLAIN ANALYZE: per-operator profile (with estimated cardinalities)
    // followed by the result rows.
    let analyze = c
        .request("EXPLAIN ANALYZE SELECT COUNT(data->>'v'::INT) FROM t WHERE data->>'v'::INT < 50")
        .expect("explain analyze succeeds");
    let text = analyze.join("\n");
    assert!(text.contains("EXPLAIN ANALYZE (total"), "got:\n{text}");
    assert!(text.contains("est "), "estimates rendered:\n{text}");
    assert_eq!(
        analyze.last().map(String::as_str),
        Some("50"),
        "rows follow the profile"
    );

    // The connection stays usable for plain queries afterwards.
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    server.shutdown();
}

#[test]
fn deadline_exceeded_queries_fail_without_harming_others() {
    let server = start(ServerConfig::default(), 0..100);
    let mut slow = Client::connect(&server);
    // 1ms deadline, 2s cooperative sleep: must come back quickly with the
    // deadline classification, not after the full sleep.
    assert_eq!(slow.request(".timeout 1"), Ok(vec![]));
    let t0 = std::time::Instant::now();
    assert_eq!(slow.request(".sleep 2000"), Err("deadline exceeded".into()));
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "deadline did not cut the sleep short"
    );

    // Clearing the timeout restores normal service on the same connection.
    assert_eq!(slow.request(".timeout 0"), Ok(vec![]));
    assert!(slow.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());

    // Other connections never saw a deadline.
    let mut fast = Client::connect(&server);
    assert!(fast.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    server.shutdown();
}

#[test]
fn panicking_query_is_isolated() {
    let server = start(ServerConfig::default(), 0..50);
    let mut c = Client::connect(&server);
    let err = c.request(".panic boom").expect_err("panic surfaces as err");
    assert!(err.contains("panic") && err.contains("boom"), "got {err:?}");
    // The same connection and new connections keep working: the panic
    // consumed neither the worker nor the listener.
    assert_eq!(
        c.request("SELECT COUNT(data->>'v'::INT) FROM t")
            .expect("same connection"),
        vec!["50".to_string()]
    );
    let mut c2 = Client::connect(&server);
    assert_eq!(
        c2.request("SELECT COUNT(data->>'v'::INT) FROM t")
            .expect("new connection"),
        vec!["50".to_string()]
    );
    server.shutdown();
}

#[test]
fn full_queue_rejects_instead_of_buffering() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = start(config, 0..10);
    // Occupy the only worker with a sleeping query on its own connection.
    let mut busy = Client::connect(&server);
    busy.writer.write_all(b".sleep 1500\n").expect("send");
    // Wait for the worker to actually pick it up: the queue slot must be
    // free so the next submit queues rather than rejects.
    std::thread::sleep(Duration::from_millis(300));
    // Fill the single queue slot.
    let mut queued = Client::connect(&server);
    queued.writer.write_all(b".sleep 1500\n").expect("send");
    std::thread::sleep(Duration::from_millis(100));
    // Admission is now impossible: immediate rejection, no waiting.
    let mut rejected = Client::connect(&server);
    let t0 = std::time::Instant::now();
    let err = rejected
        .request("SELECT COUNT(data->>'v'::INT) FROM t")
        .expect_err("queue is full");
    assert!(err.contains("queue full"), "got {err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "rejection must not block"
    );
    server.shutdown();
}

#[test]
fn append_flush_and_generation_reporting() {
    let server = start(ServerConfig::default(), 0..10);
    let mut c = Client::connect(&server);
    assert_eq!(
        c.request(".generation t"),
        Ok(vec!["t generation 1 rows 10 pending 0".to_string()])
    );
    // Appends buffer invisibly...
    assert_eq!(
        c.request(".append t {\"v\":100,\"k\":1}"),
        Ok(vec!["pending 1".to_string()])
    );
    assert_eq!(
        c.request("SELECT COUNT(data->>'v'::INT) FROM t")
            .expect("pinned"),
        vec!["10".to_string()]
    );
    // ...until a flush publishes the next generation.
    assert_eq!(
        c.request(".flush t"),
        Ok(vec!["t generation 2".to_string()])
    );
    assert_eq!(
        c.request("SELECT COUNT(data->>'v'::INT) FROM t")
            .expect("new generation"),
        vec!["11".to_string()]
    );
    assert_eq!(
        c.request(".generation t"),
        Ok(vec!["t generation 2 rows 11 pending 0".to_string()])
    );
    // Unknown tables are reported, not fatal.
    assert!(c.request(".append nope {}").is_err());
    assert!(c.request(".generation nope").is_err());
    server.shutdown();
}

/// Lines as a client might write them: odd whitespace, `\u` escapes with a
/// surrogate pair, number spellings, a duplicate key, permuted keys, and
/// non-ASCII text.
const CLIENT_LINES: [&str; 7] = [
    "{ \"v\" : 100 ,\t\"k\" : 1, \"name\" : \"plain\" }",
    r#"{"k":2,"v":101,"name":"caf\u00e9"}"#,
    r#"{"v":102,"k":3,"name":"\ud83d\ude00 grin","x":1.50}"#,
    r#"{"v":103,"k":4,"x":1E2,"name":"\u0041BC"}"#,
    r#"{"v":104,"k":5,"x":-0,"name":"zero"}"#,
    r#"{"v":105,"v":106,"k":6,"name":"dup"}"#,
    r#"{"name":"日本語","k":0,"v":107,"x":"1.50"}"#,
];

#[test]
fn noncanonical_appends_answer_like_a_bulk_load() {
    let server = start(ServerConfig::default(), 0..10);
    let mut c = Client::connect(&server);
    let pending = |c: &mut Client| c.request(".generation t").expect("generation")[0].clone();

    // A malformed line is refused and leaves the buffer as it was.
    let bad = c.request(".append t {\"v\":1,").expect_err("truncated");
    assert!(bad.starts_with("bad json"), "got {bad:?}");
    assert_eq!(pending(&mut c), "t generation 1 rows 10 pending 0");
    for (i, line) in CLIENT_LINES.iter().enumerate() {
        let want = format!("pending {}", i + 1);
        assert_eq!(c.request(&format!(".append t {line}")), Ok(vec![want]));
    }
    assert!(c.request(".append t {\"v\":1}}").is_err(), "trailing data");
    assert_eq!(pending(&mut c), "t generation 1 rows 10 pending 7");
    assert_eq!(
        c.request(".flush t"),
        Ok(vec!["t generation 2".to_string()])
    );

    // The same lines loaded in bulk after the base documents.
    let mut ndjson: String = docs(0..10)
        .iter()
        .map(|d| jt_json::to_string(d) + "\n")
        .collect();
    for line in CLIENT_LINES {
        ndjson.push_str(line);
        ndjson.push('\n');
    }
    let (bulk, _) =
        Relation::try_load_ondemand(ndjson.as_bytes(), TilesConfig::default(), 1).unwrap();
    for sql in [
        "SELECT COUNT(*), SUM(data->>'v'::INT) FROM t",
        "SELECT data->>'v'::INT, data->>'name', data->>'x' FROM t ORDER BY 1",
        "SELECT data->>'k'::INT, COUNT(*) FROM t WHERE data->>'x' IS NOT NULL GROUP BY 1 ORDER BY 1",
    ] {
        let want = jt_sql::query(sql, &[("t", &bulk)]).unwrap().to_lines();
        assert_eq!(c.request(sql), Ok(want), "{sql}");
    }
    server.shutdown();
}

#[test]
fn metrics_snapshot_counts_outcomes() {
    // The obs registry is process-global and other tests run concurrently
    // in this binary, so assert only on monotonic deltas.
    jt_obs::set_enabled(true);
    let server = start(ServerConfig::default(), 0..50);
    let mut c = Client::connect(&server);
    let before = jt_obs::global().snapshot();
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    assert!(c.request(".panic kaboom").is_err());
    assert_eq!(c.request(".timeout 1"), Ok(vec![]));
    assert_eq!(c.request(".sleep 500"), Err("deadline exceeded".into()));
    // Outcome counters are bumped after the response write; a follow-up
    // request on the same connection is a barrier that guarantees the
    // previous request's accounting finished.
    assert_eq!(c.request(".ping"), Ok(vec!["pong".to_string()]));
    let after = jt_obs::global().snapshot();
    assert!(
        after.counter("server.queries.admitted") >= before.counter("server.queries.admitted") + 3
    );
    assert!(after.counter("server.queries.ok") > before.counter("server.queries.ok"));
    assert!(after.counter("server.queries.panicked") > before.counter("server.queries.panicked"));
    assert!(after.counter("server.queries.timeout") > before.counter("server.queries.timeout"));
    // And the registry is reachable over the wire too.
    assert_eq!(c.request(".timeout 0"), Ok(vec![]));
    let lines = c.request(".metrics").expect("metrics json");
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("server.queries.admitted"));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("jt-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let checkpoint = dir.join("t.jt");
    let config = ServerConfig {
        checkpoints: vec![("t".to_string(), checkpoint.clone())],
        ..ServerConfig::default()
    };
    let server = start(config, 0..20);
    let addr = server.addr();

    // A slow query in flight when shutdown begins must still complete.
    let inflight = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        };
        client.request(".sleep 700")
    });
    std::thread::sleep(Duration::from_millis(200));

    // Append a doc that only the shutdown checkpoint will publish.
    let mut c = Client::connect(&server);
    assert_eq!(
        c.request(".append t {\"v\":999,\"k\":0}"),
        Ok(vec!["pending 1".to_string()])
    );
    assert_eq!(c.request(".shutdown"), Ok(vec![]));

    server.shutdown();
    assert_eq!(
        inflight.join().expect("in-flight client"),
        Ok(vec!["slept 700ms".to_string()])
    );
    // The checkpoint contains the final generation, pending rows included.
    let reopened = Relation::open(&checkpoint).expect("checkpoint readable");
    assert_eq!(reopened.row_count(), 21);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_new_queries_after_shutdown_trigger() {
    let server = start(ServerConfig::default(), 0..10);
    let mut c = Client::connect(&server);
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    server.trigger_shutdown();
    // The connection reader notices the flag within its poll interval and
    // closes; either an error response or a clean EOF is acceptable.
    std::thread::sleep(Duration::from_millis(300));
    let gone = c
        .writer
        .write_all(b"SELECT COUNT(data->>'v'::INT) FROM t\n")
        .is_err()
        || {
            let mut header = String::new();
            matches!(c.reader.read_line(&mut header), Ok(0) | Err(_)) || header.starts_with("err")
        };
    assert!(gone, "connection should refuse work after shutdown");
    server.shutdown();
}
