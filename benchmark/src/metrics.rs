//! The benchmark's metric vocabulary — the single source `BENCHMARK.json`
//! is checked against — and the container a run fills and prints.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// `(name, unit, direction, bound)`: what a user of the system sees. The
/// bound is the share of the parent's median by which the metric may
/// worsen before a change counts as a regression. Each sits near three
/// times the spread ten runs at ten seeds showed on a 2-vCPU box (2-13% for
/// the timings, under 3% for the stored ratio); `README.md` has the numbers.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("ingest_mb_s", "MB/s", Higher, 0.25),
    ("stored_bytes_per_input_byte", "ratio", Lower, 0.10),
    ("scan_geomean_ms", "ms", Lower, 0.25),
    ("join_geomean_ms", "ms", Lower, 0.25),
    ("read_qps", "1/s", Higher, 0.25),
    ("read_p50_ms", "ms", Lower, 0.25),
    ("read_p99_ms", "ms", Lower, 0.25),
    ("append_ack_p50_ms", "ms", Lower, 0.25),
    ("append_ack_p99_ms", "ms", Lower, 0.25),
    ("flush_p50_ms", "ms", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.25),
];

/// `(name, unit, direction)`: single-layer numbers from the traced pass.
/// The layer is the crate the prefix names; `README.md` maps each to the
/// end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // jt-json: the structural index alone, one thread.
    ("json.index_ms", "ms", Lower),
    ("json.index_mb_s", "MB/s", Higher),
    // jt-core ingestion phases (wall clock; they sum to the load wall).
    ("core.index_ms", "ms", Lower),
    ("core.shape_ms", "ms", Lower),
    ("core.materialize_ms", "ms", Lower),
    ("core.distinct_shapes", "count", Lower),
    ("core.shape_dedup_ratio", "ratio", Higher),
    ("ingest.unattributed_pct", "%", Lower),
    // jt-mining (CPU time summed over load threads).
    ("mining.mine_ms", "ms", Lower),
    ("mining.fpgrowth_calls", "count", Lower),
    ("mining.itemsets", "count", Lower),
    ("mining.maximal_kept_ratio", "ratio", Higher),
    // jt-core tile formation (CPU time summed over load threads).
    ("core.reorder_ms", "ms", Lower),
    ("core.reorder_moves", "count", Higher),
    ("core.reorder_share_pct", "%", Lower),
    ("core.extract_ms", "ms", Lower),
    ("core.partition_build_ms", "ms", Lower),
    ("core.tiles", "count", Lower),
    ("core.extraction_coverage_pct", "%", Higher),
    // jt-jsonb.
    ("jsonb.encode_ms", "ms", Lower),
    ("jsonb.bytes_per_input_byte", "ratio", Lower),
    // jt-core persistence.
    ("core.persist.to_bytes_ms", "ms", Lower),
    ("core.persist.save_ms", "ms", Lower),
    ("core.persist.open_ms", "ms", Lower),
    ("core.persist.stored_over_raw", "ratio", Lower),
    ("core.persist.crc_ms", "ms", Lower),
    ("core.persist.decompress_ms", "ms", Lower),
    // jt-sql and the jt-query planner, per statement.
    ("sql.parse_us", "us", Lower),
    ("sql.plan_us", "us", Lower),
    ("query.optimize_us", "us", Lower),
    ("query.pass.predicate-pushdown_us", "us", Lower),
    ("query.pass.projection-pushdown_us", "us", Lower),
    ("query.pass.join-reorder_us", "us", Lower),
    ("query.pass.bound-propagation_us", "us", Lower),
    // jt-query execution, summed over one round of the statement mix.
    ("query.scan_ms", "ms", Lower),
    ("query.rows_scanned", "count", Lower),
    ("query.rows_out", "count", Lower),
    ("query.tiles_scanned", "count", Lower),
    ("query.tiles_skipped", "count", Higher),
    ("query.tile_skip_ratio", "ratio", Higher),
    ("query.rows_kernel_share", "ratio", Higher),
    ("query.join_build_ms", "ms", Lower),
    ("query.join_probe_ms", "ms", Lower),
    ("query.join_rows_out", "count", Lower),
    ("query.join_est_over_actual", "ratio", Lower),
    ("query.agg_ms", "ms", Lower),
    ("query.sort_ms", "ms", Lower),
    ("query.stage_merge_ms", "ms", Lower),
    ("query.parallel_speedup_scan", "ratio", Higher),
    ("query.parallel_speedup_join", "ratio", Higher),
    // jt-server: QueryTrace phases of the reader's statements.
    ("server.queue_wait_p50_us", "us", Lower),
    ("server.queue_wait_p99_us", "us", Lower),
    ("server.plan_p50_us", "us", Lower),
    ("server.execute_p50_ms", "ms", Lower),
    ("server.execute_p99_ms", "ms", Lower),
    ("server.respond_p50_us", "us", Lower),
    ("server.phase_sum_share", "ratio", Higher),
    ("server.wire_overhead_p50_us", "us", Lower),
    ("server.queries_ok", "count", Higher),
    ("server.queries_err", "count", Lower),
    ("server.queries_rejected", "count", Lower),
    ("server.queries_timeout", "count", Lower),
    ("server.appends", "count", Higher),
    ("server.generations_published", "count", Higher),
    ("server.generation_swap_us", "us", Lower),
    ("server.read_p50_during_flush_ms", "ms", Lower),
    ("server.read_p50_quiet_ms", "ms", Lower),
    // High-water mark of resident memory once the serve leg has run.
    ("server.peak_rss_mb", "MB", Lower),
    // The load generator itself: is the open loop keeping its schedule?
    ("loadgen.append_lag_p99_ms", "ms", Lower),
    ("loadgen.append_rate_achieved", "1/s", Higher),
    // Traced focus-leg metric against the same leg untraced, same run.
    ("trace_overhead_pct", "%", Lower),
];

/// Unit of a known metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
    /// Free-form qualifier for the human table (e.g. the percentile really
    /// reported when the sample could not support p99).
    pub note: String,
}

/// Metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Record `name`. Panics on a name outside the vocabulary or a
    /// non-finite value: both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                note,
            },
        );
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of the
    /// measurement (`f64`'s shortest round-trip form, never exponent
    /// notation, so any JSON reader takes it).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Aligned `name value unit n=samples note` lines for stderr.
    pub fn table(&self) -> String {
        let width = self.0.keys().map(|k| k.len()).max().unwrap_or(0);
        self.0
            .iter()
            .map(|(name, m)| {
                format!(
                    "  {name:<width$}  {:>14.4} {:<6} n={}{}{}\n",
                    m.value,
                    m.unit,
                    m.samples,
                    if m.note.is_empty() { "" } else { "  " },
                    m.note
                )
            })
            .collect()
    }
}

#[cfg(test)]
/// True for names the benchmark contract accepts: they start with a letter
/// or digit and use at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn json_round_trips_through_jt_json() {
        let mut m = Metrics::default();
        m.set("ingest_mb_s", 12.503_417, 5);
        m.set("core.tiles", 26.0, 1);
        let doc = json_tiles::json::parse(&m.to_json()).expect("valid JSON");
        let v = doc
            .pointer(&["ingest_mb_s", "value"])
            .and_then(|v| v.as_f64());
        assert_eq!(v, Some(12.503_417));
        let u = doc
            .pointer(&["core.tiles", "unit"])
            .and_then(|v| v.as_str());
        assert_eq!(u, Some("count"));
    }
}
