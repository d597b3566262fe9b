//! Snapshot-isolated tile generations (§4.9).
//!
//! The paper's insert path makes a tile "visible to scanners only once it
//! is fully created" (§3.2) and recomputes tiles whose tuples drifted from
//! the extracted schema (§4.7) — both without blocking readers. The server
//! realizes that with immutable *generations*: a [`Generation`] is an
//! `Arc<Relation>` plus a monotonically increasing id. Queries pin the
//! current generation once at admission and run against it for their whole
//! lifetime; appends buffer NDJSON lines on the side, and a publish builds
//! the next generation (carried tiles + recomputations + tiles the
//! on-demand loader forms from the buffered lines) and swaps the `Arc` —
//! readers on the old generation are completely undisturbed.

use jt_core::Relation;
use jt_json::{OnDemandDoc, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Appended documents not yet visible: validated NDJSON lines, each
/// newline-terminated, plus their count.
#[derive(Debug, Default)]
struct Pending {
    ndjson: Vec<u8>,
    rows: usize,
}

impl Pending {
    fn push(&mut self, line: &[u8]) {
        self.ndjson.extend_from_slice(line);
        self.ndjson.push(b'\n');
        self.rows += 1;
    }
}

/// One immutable, fully visible version of a table.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Monotonically increasing per-table version (starts at 1).
    pub id: u64,
    /// The tiles. Shared with every query that pinned this generation.
    pub relation: Arc<Relation>,
}

/// One served table: the current generation plus the buffered appends that
/// will form the next one.
#[derive(Debug)]
pub struct TableState {
    name: String,
    current: RwLock<Arc<Generation>>,
    pending: Mutex<Pending>,
    /// Serializes publishes so two concurrent publishers cannot each build
    /// from the same base generation and lose the other's documents.
    publish_lock: Mutex<()>,
    next_id: AtomicU64,
}

impl TableState {
    /// Wrap `relation` as generation 1 of table `name`.
    pub fn new(name: impl Into<String>, relation: Relation) -> TableState {
        TableState {
            name: name.into(),
            current: RwLock::new(Arc::new(Generation {
                id: 1,
                relation: Arc::new(relation),
            })),
            pending: Mutex::new(Pending::default()),
            publish_lock: Mutex::new(()),
            next_id: AtomicU64::new(2),
        }
    }

    /// The table's catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pin the current generation. The returned `Arc` keeps every tile of
    /// this version alive for as long as the caller holds it, regardless
    /// of how many newer generations get published meanwhile.
    pub fn snapshot(&self) -> Arc<Generation> {
        self.current
            .read()
            .expect("generation lock poisoned")
            .clone()
    }

    /// Buffer documents for the next generation, printed as NDJSON lines.
    /// Invisible to queries until [`TableState::publish`] runs. Returns the
    /// pending count.
    pub fn append(&self, docs: impl IntoIterator<Item = Value>) -> usize {
        let mut pending = self.pending.lock().expect("pending lock poisoned");
        for d in docs {
            pending.push(jt_json::to_string(&d).as_bytes());
        }
        pending.rows
    }

    /// Buffer one client-sent protocol line (which holds no `\n`) as it
    /// is, once the structural index accepts it as exactly one JSON
    /// document; no tree is built. Returns the pending count, or the parse
    /// error with the buffer unchanged.
    pub(crate) fn append_line(&self, line: &[u8]) -> Result<usize, jt_json::Error> {
        OnDemandDoc::parse(line)?;
        let mut pending = self.pending.lock().expect("pending lock poisoned");
        pending.push(line);
        Ok(pending.rows)
    }

    /// Buffered documents not yet visible to queries.
    pub fn pending_rows(&self) -> usize {
        self.pending.lock().expect("pending lock poisoned").rows
    }

    /// Build and atomically install the next generation: the current
    /// tiles (with §4.7 recomputations folded in) plus tiles formed from
    /// the buffered appends. Returns the new generation id, or `None` if
    /// there was nothing to do (no pending documents, no tile in need of
    /// recomputation). Queries running against older generations are
    /// untouched; new admissions pin the new generation.
    ///
    /// Panics if the loader fails on the buffered lines: each one was
    /// validated on entry, so that is a loader bug, not bad input.
    pub fn publish(&self) -> Option<u64> {
        let _guard = self.publish_lock.lock().expect("publish lock poisoned");
        let pending = std::mem::take(&mut *self.pending.lock().expect("pending lock poisoned"));
        let base = self.snapshot();
        let needs_recompute = base.relation.tiles().iter().any(|t| t.needs_recompute());
        if pending.rows == 0 && !needs_recompute {
            return None;
        }
        let t0 = Instant::now();
        let relation = base
            .relation
            .with_appended(&pending.ndjson)
            .unwrap_or_else(|e| panic!("publishing {}: {e}", self.name));
        let next = Generation {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            relation: Arc::new(relation),
        };
        let id = next.id;
        *self.current.write().expect("generation lock poisoned") = Arc::new(next);
        if jt_obs::enabled() {
            jt_obs::global()
                .histogram("server.generation.swap_ns")
                .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            jt_obs::global()
                .gauge("server.generation.id")
                .set(id as i64);
        }
        Some(id)
    }
}

/// The set of tables the server exposes. Fixed at startup; per-table
/// state evolves through generations.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<TableState>,
}

impl Catalog {
    /// Catalog over the given `(name, relation)` pairs.
    pub fn new(tables: impl IntoIterator<Item = (String, Relation)>) -> Catalog {
        Catalog {
            tables: tables
                .into_iter()
                .map(|(n, r)| TableState::new(n, r))
                .collect(),
        }
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&TableState> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// All tables.
    pub fn tables(&self) -> &[TableState] {
        &self.tables
    }

    /// Pin a consistent set of generations, one per table, for a single
    /// query. (Each table's snapshot is individually atomic; cross-table
    /// appends are not transactional, matching the paper's single-table
    /// ingestion model.)
    pub fn snapshot_all(&self) -> Vec<(String, Arc<Generation>)> {
        self.tables
            .iter()
            .map(|t| (t.name().to_string(), t.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jt_core::TilesConfig;

    fn docs(range: std::ops::Range<i64>) -> Vec<Value> {
        range
            .map(|i| jt_json::parse(&format!("{{\"v\":{i}}}")).unwrap())
            .collect()
    }

    #[test]
    fn snapshot_pins_old_generation_across_publish() {
        let rel = Relation::load(&docs(0..100), TilesConfig::default());
        let table = TableState::new("t", rel);
        let pinned = table.snapshot();
        assert_eq!(pinned.id, 1);
        assert_eq!(pinned.relation.row_count(), 100);

        table.append(docs(100..150));
        assert_eq!(table.pending_rows(), 50);
        // Pending rows are invisible until publish.
        assert_eq!(table.snapshot().relation.row_count(), 100);

        let id = table.publish().expect("pending rows force a generation");
        assert_eq!(id, 2);
        assert_eq!(table.pending_rows(), 0);
        assert_eq!(table.snapshot().relation.row_count(), 150);
        // The pinned snapshot still sees exactly the old rows.
        assert_eq!(pinned.relation.row_count(), 100);
        assert_eq!(pinned.id, 1);
    }

    #[test]
    fn publish_without_changes_is_a_noop() {
        let rel = Relation::load(&docs(0..10), TilesConfig::default());
        let table = TableState::new("t", rel);
        assert_eq!(table.publish(), None);
        assert_eq!(table.snapshot().id, 1);
    }

    #[test]
    fn catalog_lookup_and_snapshot_all() {
        let catalog = Catalog::new(vec![
            (
                "a".to_string(),
                Relation::load(&docs(0..5), TilesConfig::default()),
            ),
            (
                "b".to_string(),
                Relation::load(&docs(0..7), TilesConfig::default()),
            ),
        ]);
        assert!(catalog.table("a").is_some());
        assert!(catalog.table("missing").is_none());
        let snap = catalog.snapshot_all();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1.relation.row_count(), 5);
        assert_eq!(snap[1].1.relation.row_count(), 7);
    }
}
