//! # jt-server — concurrent query service over JSON tiles
//!
//! `jt serve` turns a set of loaded relations into a long-running query
//! service with the robustness properties a shared analytics endpoint
//! needs:
//!
//! * **Snapshot-isolated generations (§4.9, §3.2):** every admitted query
//!   pins the current [`Generation`] of each table — an immutable
//!   `Arc<Relation>` — and runs against it for its whole lifetime.
//!   Appends buffer on the side; a background publish builds the next
//!   generation (carrying tiles over, folding in §4.7 recomputations,
//!   forming new tiles) and swaps one `Arc`, never blocking readers.
//! * **Admission control:** a bounded worker pool with a bounded queue.
//!   When the queue is full the client gets an immediate
//!   `err rejected: queue full` instead of the server growing without
//!   bound.
//! * **Deadlines and cancellation:** each query carries a
//!   [`jt_query::CancelToken`]; the executor checks it at morsel
//!   boundaries, so a deadline-exceeding query stops within one morsel
//!   and answers `err deadline exceeded`.
//! * **Panic isolation:** queries run under `catch_unwind`; a panicking
//!   query answers `err panic: …` and affects no other query.
//! * **Graceful shutdown:** SIGINT (or the `.shutdown` command) stops
//!   admissions, completes in-flight queries, aborts queued ones with an
//!   error response, and checkpoints each table's current generation with
//!   the atomic v2 save.
//!
//! ## Wire protocol
//!
//! Line-delimited text over TCP. Every request is one line; every
//! response is a header line — `ok <n>` (with `<n>` payload lines
//! following) or `err <message>` — so a client can always parse responses
//! without knowing the request. Plain lines are SQL; `.`-prefixed lines
//! are service commands:
//!
//! ```text
//! .ping                     liveness check
//! .append <table> <json>    buffer one document for the next generation
//! .flush [table]            publish pending docs as a new generation now
//! .generation [table]       report generation id / rows / pending rows
//! .timeout <ms>             per-connection query deadline (0 clears)
//! .sleep <ms>               cooperative test query (respects deadline)
//! .panic <msg>              deliberately panicking test query
//! .metrics [prom]           jt-obs registry snapshot as JSON, or in the
//!                           Prometheus text exposition format
//! .log [n]                  last n query traces (default: all retained)
//! .slow [n]                 last n traces pinned by the slow threshold
//! .trace <id>               one trace as full `jt-trace/v1` JSON
//! .shutdown                 begin graceful shutdown
//! ```
//!
//! ## Query tracing
//!
//! Every pool-executed request (SQL, `.sleep`, `.panic`) — including ones
//! rejected at admission — produces one [`QueryTrace`]: client address,
//! request text, pinned generation, per-phase durations (queue wait,
//! planning with per-pass detail, execution, rendering the response), rows,
//! and an outcome (`ok`/`err`/`rejected`/`timeout`/`panicked`). Traces land
//! in a bounded ring buffer ([`QueryLog`]) before the response is written;
//! ones at or over the configured slow threshold are additionally pinned
//! into a separate bounded slow log. The outcome also increments exactly one
//! `server.queries.<outcome>` counter at response time, so the metrics
//! and the query log reconcile.

mod generation;
mod pool;
mod querylog;

pub use generation::{Catalog, Generation, TableState};
pub use jt_obs::{QueryOutcome, QueryTrace};
pub use pool::{JobMode, Pool, Rejected};
pub use querylog::QueryLog;

use jt_core::Relation;
use jt_query::{CancelToken, ExecOptions};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Default per-query deadline (`.timeout` overrides per connection;
    /// `None` = no deadline).
    pub default_timeout: Option<Duration>,
    /// Pending appended rows at which the maintenance thread publishes a
    /// new generation on its own.
    pub append_threshold: usize,
    /// `(table, path)` pairs checkpointed on graceful shutdown with the
    /// atomic v2 save.
    pub checkpoints: Vec<(String, PathBuf)>,
    /// Execution options template; `cancel` is replaced per query.
    pub exec: ExecOptions,
    /// Query-log ring capacity; 0 disables trace retention entirely
    /// (trace ids keep incrementing, outcome counters keep counting).
    pub log_capacity: usize,
    /// Slow-log ring capacity (traces pinned past eviction).
    pub slow_log_capacity: usize,
    /// Total-duration threshold at or over which a trace is pinned into
    /// the slow log (`None` disables slow capture; `--slow-ms` sets it).
    pub slow_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 32,
            default_timeout: None,
            append_threshold: 4096,
            checkpoints: Vec::new(),
            exec: ExecOptions::default(),
            log_capacity: 256,
            slow_log_capacity: 64,
            slow_threshold: None,
        }
    }
}

/// State shared by the accept loop, connection threads, workers, and the
/// maintenance thread.
struct Shared {
    catalog: Catalog,
    pool: Mutex<Option<Pool>>,
    shutdown: AtomicBool,
    config: ServerConfig,
    log: QueryLog,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running query service. Dropping the handle without calling
/// [`Server::shutdown`] leaves threads running; call `shutdown` (or
/// [`Server::run_until`] from a CLI) for a clean exit.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    maintenance_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn the worker pool, the maintenance thread, and the accept
    /// loop. Returns once the listener is live; [`Server::addr`] reports
    /// the actual bound address (useful with port 0).
    pub fn start(
        tables: impl IntoIterator<Item = (String, Relation)>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let pool = Pool::new(config.workers, config.queue_capacity);
        let log = QueryLog::new(
            config.log_capacity,
            config.slow_log_capacity,
            config.slow_threshold,
        );
        let shared = Arc::new(Shared {
            catalog: Catalog::new(tables),
            pool: Mutex::new(Some(pool)),
            shutdown: AtomicBool::new(false),
            config,
            log,
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let maintenance_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || maintenance_loop(&shared))
        };
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            maintenance_thread: Some(maintenance_thread),
            connections,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Retained query traces, oldest first (what `.log` serves).
    pub fn traces(&self) -> Vec<Arc<QueryTrace>> {
        self.shared.log.recent(usize::MAX)
    }

    /// Traces pinned by the slow threshold, oldest first (`.slow`).
    pub fn slow_traces(&self) -> Vec<Arc<QueryTrace>> {
        self.shared.log.slow(usize::MAX)
    }

    /// Flag the server to shut down without waiting for it (what the
    /// `.shutdown` command does internally).
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been triggered (by SIGINT via
    /// [`Server::run_until`], `.shutdown`, or [`Server::trigger_shutdown`]).
    pub fn shutdown_triggered(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Block until `stop` becomes true (e.g. the SIGINT flag from
    /// [`install_sigint_handler`]) or a client issues `.shutdown`, then
    /// perform the graceful shutdown.
    pub fn run_until(self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) && !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain in-flight queries, abort
    /// queued ones (each still gets an `err` response), join every
    /// connection, and checkpoint the configured tables with the atomic
    /// v2 save.
    pub fn shutdown(mut self) {
        self.trigger_shutdown();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Drain in-flight, abort queued. Connection threads blocked on a
        // submitted query wake up when its job runs or aborts.
        if let Some(pool) = self.pool_take() {
            pool.shutdown();
        }
        let conns = std::mem::take(&mut *self.connections.lock().expect("connections poisoned"));
        for h in conns {
            let _ = h.join();
        }
        let _ = self.maintenance_thread.take().map(|h| h.join());
        // Checkpoint on a background thread with the borrowing atomic
        // save — generations are immutable, so this needs no flush.
        let shared = Arc::clone(&self.shared);
        let checkpointer = std::thread::spawn(move || {
            for (table, path) in &shared.config.checkpoints {
                let Some(state) = shared.catalog.table(table) else {
                    continue;
                };
                // Fold any still-pending appends into a final generation
                // so the checkpoint loses nothing.
                state.publish();
                let generation = state.snapshot();
                if let Err(e) = generation.relation.save_snapshot(path) {
                    eprintln!("checkpoint {table} -> {}: {e}", path.display());
                } else {
                    jt_obs::counter_add!("server.checkpoints", 1);
                }
            }
        });
        let _ = checkpointer.join();
    }

    fn pool_take(&self) -> Option<Pool> {
        self.shared.pool.lock().expect("pool slot poisoned").take()
    }
}

/// Background generation publisher: periodically folds buffered appends
/// (and tiles whose outliers crossed the §4.7 threshold) into a fresh
/// generation per table.
fn maintenance_loop(shared: &Shared) {
    while !shared.shutting_down() {
        std::thread::sleep(Duration::from_millis(20));
        for table in shared.catalog.tables() {
            let due = table.pending_rows() >= shared.config.append_threshold.max(1)
                || table
                    .snapshot()
                    .relation
                    .tiles()
                    .iter()
                    .any(|t| t.needs_recompute());
            if due {
                table.publish();
            }
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
                connections
                    .lock()
                    .expect("connections poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// An `ok <n>` header plus payload lines, as sent.
fn ok_text(lines: &[String]) -> String {
    let mut out = format!("ok {}\n", lines.len());
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// An `err <message>` line, as sent (newlines collapsed so the response
/// stays one line).
fn err_text(message: &str) -> String {
    format!("err {}\n", message.replace('\n', " "))
}

fn write_ok(stream: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    stream.write_all(ok_text(lines).as_bytes())
}

fn write_err(stream: &mut TcpStream, message: &str) -> std::io::Result<()> {
    stream.write_all(err_text(message).as_bytes())
}

/// The response a pool job hands back to its connection thread.
enum JobReply {
    Ok(Vec<String>),
    Err(String),
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // A finite read timeout lets the reader poll the shutdown flag
    // between lines instead of blocking in read(2) forever.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let client = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Connection-scoped deadline override (`.timeout`).
    let mut timeout = shared.config.default_timeout;

    loop {
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // client closed
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if shared.shutting_down() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let request = line.trim().to_string();
        if request.is_empty() {
            continue;
        }
        match dispatch(&request, shared, &mut timeout, &mut writer, &client)? {
            Flow::Continue => {}
            Flow::Close => return Ok(()),
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn dispatch(
    request: &str,
    shared: &Arc<Shared>,
    timeout: &mut Option<Duration>,
    writer: &mut TcpStream,
    client: &str,
) -> std::io::Result<Flow> {
    // Inline commands answered by the connection thread itself.
    if let Some(rest) = request.strip_prefix('.') {
        let (cmd, args) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "ping" => {
                write_ok(writer, &["pong".to_string()])?;
                return Ok(Flow::Continue);
            }
            "timeout" => {
                match args.parse::<u64>() {
                    Ok(0) => {
                        *timeout = None;
                        write_ok(writer, &[])?;
                    }
                    Ok(ms) => {
                        *timeout = Some(Duration::from_millis(ms));
                        write_ok(writer, &[])?;
                    }
                    Err(_) => write_err(writer, "usage: .timeout <ms>")?,
                }
                return Ok(Flow::Continue);
            }
            "append" => {
                let (table, json) = match args.split_once(char::is_whitespace) {
                    Some((t, j)) if !j.trim().is_empty() => (t, j.trim()),
                    _ => {
                        write_err(writer, "usage: .append <table> <json>")?;
                        return Ok(Flow::Continue);
                    }
                };
                let Some(state) = shared.catalog.table(table) else {
                    write_err(writer, &format!("unknown table {table}"))?;
                    return Ok(Flow::Continue);
                };
                match state.append_line(json.as_bytes()) {
                    Ok(pending) => {
                        jt_obs::counter_add!("server.appends", 1);
                        write_ok(writer, &[format!("pending {pending}")])?;
                    }
                    Err(e) => write_err(writer, &format!("bad json: {e:?}"))?,
                }
                return Ok(Flow::Continue);
            }
            "flush" => {
                let mut lines = Vec::new();
                let mut missing = None;
                for table in shared.catalog.tables() {
                    if !args.is_empty() && table.name() != args {
                        continue;
                    }
                    missing = Some(());
                    match table.publish() {
                        Some(id) => lines.push(format!("{} generation {id}", table.name())),
                        None => lines.push(format!("{} unchanged", table.name())),
                    }
                }
                if !args.is_empty() && missing.is_none() {
                    write_err(writer, &format!("unknown table {args}"))?;
                } else {
                    write_ok(writer, &lines)?;
                }
                return Ok(Flow::Continue);
            }
            "generation" => {
                let mut lines = Vec::new();
                let mut found = false;
                for table in shared.catalog.tables() {
                    if !args.is_empty() && table.name() != args {
                        continue;
                    }
                    found = true;
                    let g = table.snapshot();
                    lines.push(format!(
                        "{} generation {} rows {} pending {}",
                        table.name(),
                        g.id,
                        g.relation.row_count(),
                        table.pending_rows()
                    ));
                }
                if !args.is_empty() && !found {
                    write_err(writer, &format!("unknown table {args}"))?;
                } else {
                    write_ok(writer, &lines)?;
                }
                return Ok(Flow::Continue);
            }
            "metrics" => {
                match args {
                    "" => {
                        let json = jt_obs::global().snapshot().to_json();
                        write_ok(writer, &[json])?;
                    }
                    "prom" => {
                        let text = jt_obs::global().snapshot().to_prometheus();
                        let lines: Vec<String> = text.lines().map(str::to_string).collect();
                        write_ok(writer, &lines)?;
                    }
                    _ => write_err(writer, "usage: .metrics [prom]")?,
                }
                return Ok(Flow::Continue);
            }
            "log" | "slow" => {
                if !shared.log.enabled() {
                    write_err(writer, "query log disabled (log capacity 0)")?;
                    return Ok(Flow::Continue);
                }
                if cmd == "slow" && shared.log.slow_threshold().is_none() {
                    write_err(writer, "slow log disabled (no --slow-ms threshold)")?;
                    return Ok(Flow::Continue);
                }
                let n = if args.is_empty() {
                    usize::MAX
                } else {
                    match args.parse::<usize>() {
                        Ok(n) => n,
                        Err(_) => {
                            write_err(writer, &format!("usage: .{cmd} [n]"))?;
                            return Ok(Flow::Continue);
                        }
                    }
                };
                let traces = if cmd == "log" {
                    shared.log.recent(n)
                } else {
                    shared.log.slow(n)
                };
                let lines: Vec<String> = traces.iter().map(|t| t.summary()).collect();
                write_ok(writer, &lines)?;
                return Ok(Flow::Continue);
            }
            "trace" => {
                if !shared.log.enabled() {
                    write_err(writer, "query log disabled (log capacity 0)")?;
                    return Ok(Flow::Continue);
                }
                match args.parse::<u64>() {
                    Ok(id) => match shared.log.get(id) {
                        Some(t) => write_ok(writer, &[t.to_json()])?,
                        None => {
                            write_err(writer, &format!("no trace {id} (evicted or not assigned)"))?
                        }
                    },
                    Err(_) => write_err(writer, "usage: .trace <id>")?,
                }
                return Ok(Flow::Continue);
            }
            "shutdown" => {
                write_ok(writer, &[])?;
                shared.shutdown.store(true, Ordering::SeqCst);
                return Ok(Flow::Close);
            }
            // `.sleep` / `.panic` are pool-executed test queries; fall
            // through to admission below.
            "sleep" | "panic" => {}
            other => {
                write_err(writer, &format!("unknown command .{other}"))?;
                return Ok(Flow::Continue);
            }
        }
    }

    // Pool-executed work: SQL, `.sleep`, `.panic`. Pin the snapshot,
    // build the cancel token, and open the trace at admission time.
    let t_admit = Instant::now();
    let cancel = match timeout {
        Some(d) => CancelToken::with_deadline(*d),
        None => CancelToken::new(),
    };
    let snapshots = shared.catalog.snapshot_all();
    let generation = snapshots.iter().map(|(_, g)| g.id).max().unwrap_or(0);
    let mut trace = QueryTrace::begin(shared.log.next_id(), client, request, generation);
    let request_owned = request.to_string();
    let exec_template = shared.config.exec.clone();
    let (tx, rx) = mpsc::channel::<(JobReply, QueryTrace)>();

    let t_submit = Instant::now();
    let submitted = {
        let pool_slot = shared.pool.lock().expect("pool slot poisoned");
        let Some(pool) = pool_slot.as_ref() else {
            drop(pool_slot);
            trace.outcome = QueryOutcome::Rejected;
            trace.error = Some("shutting down".to_string());
            let reply = JobReply::Err("rejected: shutting down".to_string());
            finish(shared, writer, trace, t_admit, &reply)?;
            return Ok(Flow::Continue);
        };
        // The job gets its own copy of the trace; the original stays
        // behind to cover the rejected / no-reply paths.
        let job_trace = trace.clone();
        pool.submit(move |mode| {
            let mut trace = job_trace;
            trace.queue_wait = t_submit.elapsed();
            let reply = match mode {
                JobMode::Abort => {
                    trace.outcome = QueryOutcome::Err;
                    trace.error = Some("aborted: server shutting down".to_string());
                    JobReply::Err("aborted: server shutting down".to_string())
                }
                JobMode::Run => run_query(
                    &request_owned,
                    &snapshots,
                    exec_template,
                    &cancel,
                    &mut trace,
                ),
            };
            // The connection may have vanished; a dead receiver is fine.
            let _ = tx.send((reply, trace));
        })
    };
    match submitted {
        Ok(()) => {
            jt_obs::counter_add!("server.queries.admitted", 1);
            match rx.recv() {
                Ok((reply, job_trace)) => finish(shared, writer, job_trace, t_admit, &reply)?,
                // Worker died before replying (outer catch_unwind ate a
                // panic in the response path) — tell the client.
                Err(_) => {
                    trace.outcome = QueryOutcome::Err;
                    trace.error = Some("internal: query produced no reply".to_string());
                    let reply = JobReply::Err("internal: query produced no reply".to_string());
                    finish(shared, writer, trace, t_admit, &reply)?;
                }
            }
        }
        Err(reason) => {
            trace.outcome = QueryOutcome::Rejected;
            trace.error = Some(reason.to_string());
            let reply = JobReply::Err(format!("rejected: {reason}"));
            finish(shared, writer, trace, t_admit, &reply)?;
        }
    }
    Ok(Flow::Continue)
}

/// Render the reply, stamp the respond/total phases, bump exactly one
/// `server.queries.<outcome>` counter, retain the trace, and only then
/// write the reply — a client holding an answer can always fetch its
/// trace. Every pool-bound request — admitted or not — ends here exactly
/// once, which is what keeps the outcome counters and the query log
/// reconciled.
fn finish(
    shared: &Shared,
    writer: &mut TcpStream,
    mut trace: QueryTrace,
    t_admit: Instant,
    reply: &JobReply,
) -> std::io::Result<()> {
    let t_render = Instant::now();
    let text = match reply {
        JobReply::Ok(lines) => ok_text(lines),
        JobReply::Err(msg) => err_text(msg),
    };
    trace.respond = t_render.elapsed();
    trace.total = t_admit.elapsed();
    match trace.outcome {
        QueryOutcome::Ok => jt_obs::counter_add!("server.queries.ok", 1),
        QueryOutcome::Err => jt_obs::counter_add!("server.queries.err", 1),
        QueryOutcome::Rejected => jt_obs::counter_add!("server.queries.rejected", 1),
        QueryOutcome::Timeout => jt_obs::counter_add!("server.queries.timeout", 1),
        QueryOutcome::Panicked => jt_obs::counter_add!("server.queries.panicked", 1),
    }
    if jt_obs::enabled() {
        jt_obs::global()
            .histogram("server.query.wall_ns")
            .record(trace.total.as_nanos().min(u64::MAX as u128) as u64);
    }
    shared.log.push(trace);
    writer.write_all(text.as_bytes())
}

/// Execute one pool job: SQL or a `.sleep`/`.panic` test query. Runs on a
/// worker thread; panics are caught and classified here so the reply
/// always reaches the client. Fills the trace's plan/execute phases,
/// per-pass timings, rows, profile, and outcome; queue wait was stamped
/// by the caller and respond/total are stamped at response time.
fn run_query(
    request: &str,
    snapshots: &[(String, Arc<Generation>)],
    exec_template: ExecOptions,
    cancel: &CancelToken,
    trace: &mut QueryTrace,
) -> JobReply {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(args) = request.strip_prefix(".sleep") {
            let ms: u64 = args.trim().parse().unwrap_or(0);
            let t0 = Instant::now();
            let deadline = t0 + Duration::from_millis(ms);
            // Cooperative sleep: poll the token like the executor does at
            // morsel boundaries.
            while Instant::now() < deadline {
                if let Err(e) = cancel.check() {
                    trace.execute = t0.elapsed();
                    return abort_reply(&e, trace);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            trace.execute = t0.elapsed();
            trace.outcome = QueryOutcome::Ok;
            trace.rows = 1;
            return JobReply::Ok(vec![format!("slept {ms}ms")]);
        }
        if let Some(args) = request.strip_prefix(".panic") {
            let msg = args.trim();
            panic!(
                "{}",
                if msg.is_empty() {
                    "requested panic"
                } else {
                    msg
                }
            );
        }
        let refs: Vec<(&str, &Relation)> = snapshots
            .iter()
            .map(|(n, g)| (n.as_str(), g.relation.as_ref()))
            .collect();
        let mut opts = exec_template;
        opts.cancel = cancel.clone();
        let mut timing = jt_sql::SqlTiming::default();
        let reply = match jt_sql::try_execute_traced(request, &refs, opts, &mut timing) {
            Ok(jt_sql::SqlOutput::Rows(r)) => {
                trace.outcome = QueryOutcome::Ok;
                trace.rows = r.rows() as u64;
                trace.profile_json = Some(r.profile.to_json());
                JobReply::Ok(r.to_lines())
            }
            Ok(jt_sql::SqlOutput::Plan(plan)) => {
                trace.outcome = QueryOutcome::Ok;
                let lines: Vec<String> = plan.lines().map(str::to_string).collect();
                trace.rows = lines.len() as u64;
                JobReply::Ok(lines)
            }
            Ok(jt_sql::SqlOutput::Analyze { rendered, result }) => {
                trace.outcome = QueryOutcome::Ok;
                trace.rows = result.rows() as u64;
                trace.profile_json = Some(result.profile.to_json());
                let mut lines: Vec<String> = rendered.lines().map(str::to_string).collect();
                lines.extend(result.to_lines());
                JobReply::Ok(lines)
            }
            Err(jt_sql::ExecuteError::Sql(e)) => {
                trace.outcome = QueryOutcome::Err;
                trace.error = Some(format!("sql: {e}"));
                JobReply::Err(format!("sql: {e}"))
            }
            Err(jt_sql::ExecuteError::Aborted(e)) => abort_reply(&e, trace),
        };
        trace.plan = timing.plan;
        trace.execute = timing.execute;
        trace.passes = timing.passes.iter().map(|p| (p.name, p.wall)).collect();
        reply
    }));
    match outcome {
        Ok(reply) => reply,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic>".to_string()
            };
            trace.outcome = QueryOutcome::Panicked;
            trace.error = Some(format!("panic: {msg}"));
            JobReply::Err(format!("panic: {msg}"))
        }
    }
}

/// Map an execution abort to its protocol error message and trace outcome
/// (deadline → `timeout`, client cancellation → `err`).
fn abort_reply(e: &jt_query::ExecError, trace: &mut QueryTrace) -> JobReply {
    let msg = match e {
        jt_query::ExecError::DeadlineExceeded => "deadline exceeded".to_string(),
        jt_query::ExecError::Cancelled => "cancelled".to_string(),
    };
    trace.outcome = match e {
        jt_query::ExecError::DeadlineExceeded => QueryOutcome::Timeout,
        jt_query::ExecError::Cancelled => QueryOutcome::Err,
    };
    trace.error = Some(msg.clone());
    JobReply::Err(msg)
}

/// Install a process-wide SIGINT handler that only sets a flag
/// (async-signal-safe), and return that flag. The CLI passes it to
/// [`Server::run_until`] so Ctrl-C produces a graceful drain +
/// checkpoint instead of an abrupt exit. On non-Unix platforms this
/// returns a flag that never fires.
pub fn install_sigint_handler() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            extern "C" fn on_sigint(_sig: i32) {
                FLAG.store(true, Ordering::SeqCst);
            }
            // `signal` is provided by libc, which std already links. SIGINT
            // is 2 on every Unix we target.
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            unsafe {
                signal(SIGINT, on_sigint as *const () as usize);
            }
        }
    }
    &FLAG
}
