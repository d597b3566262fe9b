//! Per-query traces — the record type behind the server's query log.
//!
//! A [`QueryTrace`] is the end-to-end story of one query through a serving
//! process: who asked, what they asked, which generation the query pinned,
//! how long each phase took (queue wait, planning, execution, response
//! write), how many rows came back, and how it ended ([`QueryOutcome`]).
//! The server keeps recent traces in a bounded ring buffer and pins
//! slow ones separately (see `jt-server`); this module only defines the
//! record, its phase-accounting invariant, and its two renderings:
//!
//! * [`QueryTrace::summary`] — one human-oriented line for `.log`/`.slow`;
//! * [`QueryTrace::to_json`] — the full `jt-trace/v1` document for
//!   `.trace <id>`, including planner pass timings and (when the query
//!   executed) the spliced-in `ExecProfile` JSON.
//!
//! **Phase accounting invariant:** `queue_wait + plan + execute + respond
//! <= total`. The four phases are disjoint sub-intervals of the
//! admission-to-rendered-response window measured by `total`, so their sum can
//! never exceed it (the remainder is untimed bookkeeping: channel hops,
//! snapshot pinning, outcome classification).

use crate::json_string;
use std::time::Duration;

/// How a traced query ended. Exactly one outcome per trace, classified at
/// response time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered with an `ok` response.
    Ok,
    /// Answered with an `err` response: parse/compile failure, unknown
    /// command, cancellation, or an abort during shutdown.
    Err,
    /// Refused at admission (queue full or shutting down); never ran.
    Rejected,
    /// Aborted by its deadline (`err deadline exceeded`).
    Timeout,
    /// The query panicked; the worker survived and answered `err panic:`.
    Panicked,
}

impl QueryOutcome {
    /// Stable lowercase label used in the JSON document, the summary
    /// line, and the `server.queries.<outcome>` counter names.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Err => "err",
            QueryOutcome::Rejected => "rejected",
            QueryOutcome::Timeout => "timeout",
            QueryOutcome::Panicked => "panicked",
        }
    }
}

/// The full record of one query through a serving process.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Monotonically increasing per-process trace id (1-based).
    pub id: u64,
    /// Client address (`ip:port`), `"?"` when unknown.
    pub client: String,
    /// The request line: SQL text or a pool-executed `.`-command.
    pub query: String,
    /// Highest generation id pinned at admission (0 when no table).
    pub generation: u64,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// The `err` message, when there was one.
    pub error: Option<String>,
    /// Rows in the response payload.
    pub rows: u64,
    /// Admission to worker pickup.
    pub queue_wait: Duration,
    /// Parse + logical plan + rewrite passes + lowering.
    pub plan: Duration,
    /// Physical execution.
    pub execute: Duration,
    /// Rendering the response into its wire text. The socket write comes
    /// after the trace is retained and is not timed.
    pub respond: Duration,
    /// Admission to response rendered; upper bound on the phase sum.
    pub total: Duration,
    /// Per-rewrite-pass planner timings, in pass order.
    pub passes: Vec<(&'static str, Duration)>,
    /// `ExecProfile::to_json()` of the execution, when the query ran to
    /// completion (spliced verbatim into [`QueryTrace::to_json`]).
    pub profile_json: Option<String>,
}

impl QueryTrace {
    /// A fresh trace with zeroed phases and an `Err` placeholder outcome
    /// (every path that answers the client overwrites it).
    pub fn begin(
        id: u64,
        client: impl Into<String>,
        query: impl Into<String>,
        generation: u64,
    ) -> QueryTrace {
        QueryTrace {
            id,
            client: client.into(),
            query: query.into(),
            generation,
            outcome: QueryOutcome::Err,
            error: None,
            rows: 0,
            queue_wait: Duration::ZERO,
            plan: Duration::ZERO,
            execute: Duration::ZERO,
            respond: Duration::ZERO,
            total: Duration::ZERO,
            passes: Vec::new(),
            profile_json: None,
        }
    }

    /// Sum of the four timed phases. The accounting invariant is
    /// `phase_sum() <= total` (checked by the server's integration tests).
    pub fn phase_sum(&self) -> Duration {
        self.queue_wait + self.plan + self.execute + self.respond
    }

    /// One human-oriented line: what `.log` and `.slow` print.
    ///
    /// ```text
    /// #12 ok 1.24 ms (queue 3.10 us, plan 210.00 us, exec 980.00 us, respond 8.00 us) rows=7 gen=2 client=127.0.0.1:4242 :: SELECT ...
    /// ```
    pub fn summary(&self) -> String {
        const QUERY_PREVIEW: usize = 120;
        let mut query: &str = &self.query;
        let mut ellipsis = "";
        if query.len() > QUERY_PREVIEW {
            let mut cut = QUERY_PREVIEW;
            while !query.is_char_boundary(cut) {
                cut -= 1;
            }
            query = &query[..cut];
            ellipsis = "…";
        }
        let err = match &self.error {
            Some(e) => format!(" error={e:?}"),
            None => String::new(),
        };
        format!(
            "#{} {} {} (queue {}, plan {}, exec {}, respond {}) rows={} gen={} client={}{} :: {}{}",
            self.id,
            self.outcome.as_str(),
            fmt_dur(self.total),
            fmt_dur(self.queue_wait),
            fmt_dur(self.plan),
            fmt_dur(self.execute),
            fmt_dur(self.respond),
            self.rows,
            self.generation,
            self.client,
            err,
            query,
            ellipsis,
        )
    }

    /// The full `jt-trace/v1` JSON document, on one line (the server's
    /// payload lines cannot contain newlines). Durations are nanoseconds;
    /// `profile` is the spliced `ExecProfile` document when present.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":\"jt-trace/v1\",\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"client\":");
        json_string(&mut out, &self.client);
        out.push_str(",\"query\":");
        json_string(&mut out, &self.query);
        out.push_str(",\"generation\":");
        out.push_str(&self.generation.to_string());
        out.push_str(",\"outcome\":\"");
        out.push_str(self.outcome.as_str());
        out.push('"');
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            json_string(&mut out, e);
        }
        out.push_str(",\"rows\":");
        out.push_str(&self.rows.to_string());
        for (name, d) in [
            ("queue_wait_ns", self.queue_wait),
            ("plan_ns", self.plan),
            ("execute_ns", self.execute),
            ("respond_ns", self.respond),
            ("total_ns", self.total),
        ] {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&ns(d).to_string());
        }
        out.push_str(",\"passes\":{");
        for (i, (name, d)) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            out.push(':');
            out.push_str(&ns(*d).to_string());
        }
        out.push('}');
        if let Some(profile) = &self.profile_json {
            out.push_str(",\"profile\":");
            out.push_str(profile);
        }
        out.push('}');
        out
    }
}

/// Saturating nanoseconds of a duration.
fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Wall-time with a unit keeping ~3 significant digits (mirrors the
/// `EXPLAIN ANALYZE` renderer in `jt-query`).
fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::begin(7, "127.0.0.1:9", "SELECT COUNT(*) FROM t", 3);
        t.outcome = QueryOutcome::Ok;
        t.rows = 1;
        t.queue_wait = Duration::from_micros(5);
        t.plan = Duration::from_micros(120);
        t.execute = Duration::from_micros(800);
        t.respond = Duration::from_micros(10);
        t.total = Duration::from_micros(1000);
        t.passes = vec![
            ("predicate-pushdown", Duration::from_micros(30)),
            ("join-reorder", Duration::from_micros(40)),
        ];
        t.profile_json = Some("{\"total_ns\":800000}".to_string());
        t
    }

    #[test]
    fn phase_sum_respects_invariant() {
        let t = sample();
        assert!(t.phase_sum() <= t.total);
        assert_eq!(t.phase_sum(), Duration::from_micros(935));
    }

    #[test]
    fn summary_is_one_line_with_all_fields() {
        let t = sample();
        let s = t.summary();
        assert!(!s.contains('\n'));
        assert!(s.starts_with("#7 ok 1.00 ms"), "got {s}");
        assert!(s.contains("queue 5.00 us"));
        assert!(s.contains("plan 120.00 us"));
        assert!(s.contains("exec 800.00 us"));
        assert!(s.contains("rows=1"));
        assert!(s.contains("gen=3"));
        assert!(s.contains("client=127.0.0.1:9"));
        assert!(s.ends_with(":: SELECT COUNT(*) FROM t"));
    }

    #[test]
    fn summary_truncates_long_queries_on_char_boundary() {
        let mut t = sample();
        t.query = format!("SELECT '{}'", "é".repeat(200));
        let s = t.summary();
        assert!(s.ends_with('…'));
        assert!(s.len() < t.query.len() + 200);
    }

    #[test]
    fn summary_includes_error_when_present() {
        let mut t = sample();
        t.outcome = QueryOutcome::Timeout;
        t.error = Some("deadline exceeded".to_string());
        let s = t.summary();
        assert!(s.contains("#7 timeout"));
        assert!(s.contains("error=\"deadline exceeded\""));
    }

    #[test]
    fn json_is_one_line_with_spliced_profile() {
        let t = sample();
        let j = t.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"schema\":\"jt-trace/v1\",\"id\":7"));
        assert!(j.contains("\"outcome\":\"ok\""));
        assert!(j.contains("\"plan_ns\":120000"));
        assert!(j.contains("\"total_ns\":1000000"));
        assert!(j.contains("\"passes\":{\"predicate-pushdown\":30000,\"join-reorder\":40000}"));
        assert!(j.contains("\"profile\":{\"total_ns\":800000}"));
        assert!(!j.contains("\"error\""), "no error key when None");
    }

    #[test]
    fn json_escapes_query_and_error() {
        let mut t = sample();
        t.query = "SELECT \"x\"\n".to_string();
        t.error = Some("bad \\ thing".to_string());
        t.profile_json = None;
        let j = t.to_json();
        assert!(j.contains("\"query\":\"SELECT \\\"x\\\"\\n\""));
        assert!(j.contains("\"error\":\"bad \\\\ thing\""));
        assert!(!j.contains("\"profile\""));
    }

    #[test]
    fn outcome_labels_are_stable() {
        for (o, s) in [
            (QueryOutcome::Ok, "ok"),
            (QueryOutcome::Err, "err"),
            (QueryOutcome::Rejected, "rejected"),
            (QueryOutcome::Timeout, "timeout"),
            (QueryOutcome::Panicked, "panicked"),
        ] {
            assert_eq!(o.as_str(), s);
        }
    }
}
