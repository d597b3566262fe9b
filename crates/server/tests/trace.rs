//! End-to-end tests of query tracing: every pool-bound request lands in
//! the query log with a monotonic id, a classified outcome, and phase
//! durations that sum to at most the total; slow queries are pinned; the
//! ring evicts oldest-first; and the `server.queries.<outcome>` counters
//! reconcile with the log.
//!
//! The obs registry is process-global and the test harness runs tests in
//! this binary concurrently, so every test that reads counters or gauges
//! serializes on [`REGISTRY`].

use jt_server::{QueryOutcome, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

static REGISTRY: Mutex<()> = Mutex::new(());

fn start(config: ServerConfig, rows: std::ops::Range<i64>) -> Server {
    let docs: Vec<_> = rows
        .map(|i| jt_json::parse(&format!("{{\"v\":{i},\"k\":{}}}", i % 7)).unwrap())
        .collect();
    let rel = jt_core::Relation::load(&docs, jt_core::TilesConfig::default());
    Server::start(vec![("t".to_string(), rel)], config).expect("bind")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

type Response = Result<Vec<String>, String>;

impl Client {
    fn connect(server: &Server) -> Client {
        Self::connect_addr(server.addr())
    }

    fn connect_addr(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
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
fn every_outcome_lands_in_log_with_phase_accounting() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    jt_obs::set_enabled(true);
    let config = ServerConfig {
        slow_threshold: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    };
    let server = start(config, 0..50);
    let mut c = Client::connect(&server);

    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    assert!(c.request("SELECT FROM WHERE").is_err()); // sql error
    assert!(c.request(".panic kaboom").is_err());
    // Deadline chosen above the slow threshold so the timed-out query
    // also exercises slow-log pinning.
    assert_eq!(c.request(".timeout 100"), Ok(vec![]));
    assert_eq!(c.request(".sleep 500"), Err("deadline exceeded".into()));
    assert_eq!(c.request(".timeout 0"), Ok(vec![]));
    assert!(c
        .request("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE data->>'v'::INT < 10")
        .is_ok());
    // Each trace is retained before its answer is written, so the log is
    // complete as soon as the last answer arrives.
    let traces = server.traces();
    assert_eq!(traces.len(), 5, "every pool-bound request logged");

    // Ids are strictly increasing in arrival order.
    for pair in traces.windows(2) {
        assert!(pair[0].id < pair[1].id, "monotonic trace ids");
    }
    // Phase accounting: disjoint sub-intervals of the admission→response
    // window can never sum past the total.
    for t in &traces {
        assert!(
            t.phase_sum() <= t.total,
            "phases exceed total in #{}: {}",
            t.id,
            t.summary()
        );
        assert!(t.total > Duration::ZERO);
        assert_eq!(t.generation, 1, "pinned generation recorded");
        assert!(!t.client.is_empty());
    }

    let outcomes: Vec<QueryOutcome> = traces.iter().map(|t| t.outcome).collect();
    assert_eq!(
        outcomes,
        vec![
            QueryOutcome::Ok,
            QueryOutcome::Err,
            QueryOutcome::Panicked,
            QueryOutcome::Timeout,
            QueryOutcome::Ok,
        ]
    );
    // Error text is captured for the failing outcomes.
    assert!(traces[1].error.as_deref().unwrap().starts_with("sql:"));
    assert!(traces[2].error.as_deref().unwrap().contains("kaboom"));
    assert_eq!(traces[3].error.as_deref(), Some("deadline exceeded"));

    // SQL traces carry planner pass timings and an execution profile;
    // the EXPLAIN ANALYZE one reports its row count.
    assert!(!traces[0].passes.is_empty(), "per-pass planner timings");
    assert!(traces[0].profile_json.as_deref().unwrap().contains("scans"));
    assert_eq!(traces[4].rows, 1);

    // The timed-out sleep crossed the slow threshold and got pinned.
    let slow = server.slow_traces();
    assert!(slow.iter().any(|t| t.outcome == QueryOutcome::Timeout));
    assert!(
        slow.iter().all(|t| t.total >= Duration::from_millis(60)),
        "only traces at/over the threshold are pinned"
    );
    server.shutdown();
}

#[test]
fn rejected_queries_are_traced_and_counters_reconcile_with_log() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    jt_obs::set_enabled(true);
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = start(config, 0..10);
    let before = jt_obs::global().snapshot();

    // Fill the single worker and the single queue slot with sleeps, then
    // overflow: the third concurrent query must be rejected at admission.
    let addr = server.addr();
    let busy: Vec<_> = (0..2)
        .map(|_| {
            let h = std::thread::spawn(move || Client::connect_addr(addr).request(".sleep 400"));
            std::thread::sleep(Duration::from_millis(100));
            h
        })
        .collect();
    let mut c = Client::connect(&server);
    let rejected = c.request(".sleep 1");
    assert!(
        rejected.unwrap_err().starts_with("rejected:"),
        "third query refused at admission"
    );
    for h in busy {
        assert!(h.join().unwrap().is_ok(), "busy sleeps complete");
    }
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());

    // Every answer is in, so every trace is retained, and counters are
    // bumped before the log push.
    let traces = server.traces();
    // The rejected query is in the log too, with zeroed work phases.
    assert_eq!(traces.len(), 4);
    let r = traces
        .iter()
        .find(|t| t.outcome == QueryOutcome::Rejected)
        .expect("rejection traced");
    assert_eq!(r.queue_wait, Duration::ZERO);
    assert_eq!(r.execute, Duration::ZERO);
    assert!(r.error.is_some());

    // Outcome counters reconcile with the query log: same totals, bumped
    // exactly once per trace at response time.
    let after = jt_obs::global().snapshot();
    for (outcome, name) in [
        (QueryOutcome::Ok, "server.queries.ok"),
        (QueryOutcome::Err, "server.queries.err"),
        (QueryOutcome::Rejected, "server.queries.rejected"),
        (QueryOutcome::Timeout, "server.queries.timeout"),
        (QueryOutcome::Panicked, "server.queries.panicked"),
    ] {
        let logged = traces.iter().filter(|t| t.outcome == outcome).count() as u64;
        assert_eq!(
            after.counter(name) - before.counter(name),
            logged,
            "{name} counter matches query-log outcomes"
        );
    }

    server.shutdown();
    // Shutdown leaves no stale load gauges behind (the queue was drained
    // with mem::take and the workers have joined).
    let settled = jt_obs::global().snapshot();
    assert_eq!(settled.gauge("server.queue.depth"), 0);
    assert_eq!(settled.gauge("server.active_queries"), 0);
}

#[test]
fn trace_is_retained_before_its_answer_is_written() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig {
        log_capacity: 2048,
        ..ServerConfig::default()
    };
    let server = start(config, 0..50);
    // Concurrent clients keep the connection threads busy, so a trace
    // retained after its answer is written would be caught missing.
    std::thread::scope(|s| {
        for client in 0..8 {
            let server = &server;
            s.spawn(move || {
                let mut c = Client::connect(server);
                for i in 0..200 {
                    let sql = format!(
                        "SELECT COUNT(*) FROM t WHERE data->>'v'::INT < {} OR {client} < 0",
                        i % 50
                    );
                    assert_eq!(c.request(&sql), Ok(vec![(i % 50).to_string()]));
                    // No barrier: the answer alone proves the trace is logged.
                    let id = server
                        .traces()
                        .iter()
                        .rev()
                        .find(|t| t.query == sql)
                        .map(|t| t.id)
                        .unwrap_or_else(|| panic!("no trace right after answering {sql}"));
                    let json = c.request(&format!(".trace {id}")).expect("trace json");
                    assert!(json[0].contains(&format!("\"id\":{id},")), "{}", json[0]);
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn recent_ring_evicts_oldest_first() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig {
        log_capacity: 4,
        ..ServerConfig::default()
    };
    let server = start(config, 0..10);
    let mut c = Client::connect(&server);
    for i in 0..6 {
        assert!(c
            .request(&format!(
                "SELECT COUNT(data->>'v'::INT) FROM t WHERE data->>'v'::INT < {i}"
            ))
            .is_ok());
    }
    let traces = server.traces();
    assert_eq!(traces.len(), 4, "ring holds only the configured capacity");
    let ids: Vec<u64> = traces.iter().map(|t| t.id).collect();
    assert_eq!(ids, vec![3, 4, 5, 6], "oldest evicted first");
    // `.log` serves the same view over the wire, newest last.
    let lines = c.request(".log").expect("log");
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("#3 "), "got {:?}", lines[0]);
    let last2 = c.request(".log 2").expect("log 2");
    assert_eq!(last2.len(), 2);
    assert!(last2[0].starts_with("#5 "));
    server.shutdown();
}

#[test]
fn protocol_log_slow_trace_and_prom_commands() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    jt_obs::set_enabled(true);
    let config = ServerConfig {
        slow_threshold: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    };
    let server = start(config, 0..50);
    let mut c = Client::connect(&server);
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    assert_eq!(c.request(".sleep 120"), Ok(vec!["slept 120ms".to_string()]));

    // `.log` one summary line per query, outcome and phases inline.
    let log = c.request(".log").expect("log");
    assert_eq!(log.len(), 2);
    assert!(log[0].contains(" ok "), "got {:?}", log[0]);
    assert!(log[0].contains("SELECT COUNT"), "query text in summary");
    assert!(log[0].contains("queue "), "phase breakdown in summary");

    // `.slow` holds only the sleep that crossed the threshold.
    let slow = c.request(".slow").expect("slow");
    assert_eq!(slow.len(), 1);
    assert!(slow[0].contains(".sleep 120"));

    // `.trace <id>` serves the full JSON record for either trace.
    let id: u64 = log[1]
        .strip_prefix('#')
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .parse()
        .expect("summary leads with the trace id");
    let json = c.request(&format!(".trace {id}")).expect("trace json");
    assert_eq!(json.len(), 1);
    assert!(json[0].starts_with("{\"schema\":\"jt-trace/v1\""));
    assert!(json[0].contains("\"outcome\":\"ok\""));
    assert!(c.request(".trace 999999").is_err(), "unknown id is an err");

    // `.metrics prom` speaks the Prometheus text exposition format.
    let prom = c.request(".metrics prom").expect("prom");
    let text = prom.join("\n");
    assert!(text.contains("# TYPE jt_server_queries_ok counter"));
    assert!(text.contains("# TYPE jt_server_query_wall_ns histogram"));
    assert!(text.contains("jt_server_query_wall_ns_bucket{le=\"+Inf\"}"));
    assert!(c.request(".metrics bogus").is_err());
    server.shutdown();
}

#[test]
fn disabled_log_refuses_commands_but_queries_still_run() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig {
        log_capacity: 0,
        ..ServerConfig::default()
    };
    let server = start(config, 0..10);
    let mut c = Client::connect(&server);
    assert!(c.request("SELECT COUNT(data->>'v'::INT) FROM t").is_ok());
    assert!(c.request(".log").unwrap_err().contains("disabled"));
    assert!(c.request(".trace 1").unwrap_err().contains("disabled"));
    assert!(server.traces().is_empty());
    server.shutdown();
}
