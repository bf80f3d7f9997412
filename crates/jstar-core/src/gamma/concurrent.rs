//! Concurrent store — the paper's `ConcurrentSkipListSet` default for
//! parallel code, realised as a lock-free reservation table.

use super::reservation::{hash_values, ReservationTable, SwappableTable};
use super::{InsertOutcome, StagedImport, TableStore};
use crate::query::Probe;
use crate::schema::TableDef;
use crate::tuple::Tuple;
use std::any::Any;
use std::sync::Arc;

/// The default Gamma store for parallel execution.
///
/// Earlier revisions sharded reader-writer-locked BTrees; every insert
/// still paid one writer-lock acquisition, the last lock on the tuple
/// hot path. Storage is now a reservation table: an insert claims a
/// slot with a single CAS and publishes the tuple afterwards, so
/// workers inserting the same wide equivalence class never serialise on
/// a lock, and readers never observe a partially written tuple.
///
/// Tuples probe by their **key fields** (primary key if declared, else
/// all fields), so duplicate and key-conflict detection happen on the
/// insert's own probe walk. Queries narrow two ways: a query that
/// equality-binds the whole primary key walks the key's probe path
/// (point lookup), and a query that binds the first column walks that
/// column value's chain index — the replacement for the old per-shard
/// ordered range scan. Anything else scans. As in the paper, the
/// concurrent structure trades some sequential efficiency for insert
/// scalability ("the sequential Java data structures are significantly
/// faster than the equivalent concurrent data structures") — ordered
/// traversal is the [`super::BTreeStore`]'s job.
pub struct ConcurrentOrderedStore {
    def: Arc<TableDef>,
    table: SwappableTable,
}

impl ConcurrentOrderedStore {
    /// Creates a store; `capacity` hints the initial slot-table size
    /// (the table grows by doubling segments).
    pub fn new(def: Arc<TableDef>, capacity: usize) -> Self {
        ConcurrentOrderedStore {
            table: SwappableTable::new(ReservationTable::new(capacity * 256, def.arity() > 0)),
            def,
        }
    }

    /// [`ConcurrentOrderedStore::new`] over a table whose first segment
    /// has `slots` slots (see `ReservationTable::with_first_segment`).
    #[cfg(test)]
    fn with_first_segment(def: Arc<TableDef>, slots: usize) -> Self {
        let table = ReservationTable::with_first_segment(slots, def.arity() > 0);
        ConcurrentOrderedStore {
            table: SwappableTable::new(table),
            def,
        }
    }

    fn primary_hash(&self, t: &Tuple) -> u64 {
        hash_values(t.key_fields(&self.def))
    }

    /// The `(primary, secondary)` pair the reservation table places `t`
    /// by: key fields, and the first column for chain narrowing.
    fn hashes(&self, t: &Tuple) -> (u64, u64) {
        let secondary = if self.def.arity() > 0 {
            hash_values([t.get(0)])
        } else {
            0
        };
        (self.primary_hash(t), secondary)
    }
}

impl TableStore for ConcurrentOrderedStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        let (primary, secondary) = self.hashes(&t);
        self.table.get().insert(&self.def, primary, secondary, t)
    }

    /// The reservation table's batch protocol
    /// (`ReservationTable::insert_batch`): prefetched probes, one `len`
    /// and one journal reservation per block instead of per tuple.
    fn insert_batch(&self, tuples: &[Tuple], outcomes: &mut Vec<InsertOutcome>) {
        let hashes = |t: &Tuple| self.hashes(t);
        self.table.insert_batch(&self.def, tuples, hashes, outcomes);
    }

    fn contains(&self, t: &Tuple) -> bool {
        self.table.get().contains(self.primary_hash(t), t)
    }

    fn len(&self) -> usize {
        self.table.get().len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        self.table.get().for_each(f);
    }

    fn export_snapshot(&self, f: &mut dyn FnMut(&Tuple)) {
        let table = self.table.get();
        table.for_each_journal_range(0, table.journal_entries(), f);
    }

    fn index_stamp(&self) -> Option<super::IndexStamp> {
        Some(self.table.index_stamp())
    }

    fn for_each_journal_suffix(&self, lo: usize, hi: usize, f: &mut dyn FnMut(&Tuple)) -> usize {
        self.table.for_each_journal_suffix(lo, hi, f)
    }

    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        // Point lookup: the whole primary key is equality-bound, so the
        // matches live on one probe walk.
        if let Some(k) = self.def.key_arity {
            if k > 0 && (0..k).all(|i| q.eq_value(i).is_some()) {
                // lint: allow(expect): the all() guard proved every key field is bound.
                let hash = hash_values((0..k).map(|i| q.eq_value(i).expect("bound")));
                self.table.get().probe_primary(hash, &mut |t| {
                    if q.matches(t) {
                        f(t)
                    } else {
                        true
                    }
                });
                return;
            }
        }
        // First-column narrowing (the successor of the per-shard range
        // scan): walk the column value's chain.
        if self.def.arity() > 0 {
            if let Some(v) = q.eq_value(0) {
                self.table.get().scan_index(hash_values([v]), &mut |t| {
                    if q.matches(t) {
                        f(t)
                    } else {
                        true
                    }
                });
                return;
            }
        }
        self.for_each(&mut |t| if q.matches(t) { f(t) } else { true });
    }

    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        self.table.get().retain(keep);
    }

    fn maybe_compact(&self, max_tombstone_fraction: f64) -> bool {
        self.table.compact_quiescent(
            &self.def,
            max_tombstone_fraction,
            self.def.arity() > 0,
            |t| self.hashes(t),
        )
    }

    fn begin_import(&self, rows: usize) -> Box<dyn StagedImport + '_> {
        // As in `maybe_compact`, a right-sized table built aside — here
        // through the checked batch insert — and swapped in on commit.
        let hashes = |t: &Tuple| self.hashes(t);
        self.table
            .begin_import(&self.def, self.def.arity() > 0, rows, hashes)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::{exercise_store_contract, keyed_def, kt};
    use crate::query::Query;
    use crate::schema::TableId;

    #[test]
    fn satisfies_store_contract() {
        let store = ConcurrentOrderedStore::new(keyed_def(), 8);
        exercise_store_contract(&store);
    }

    #[test]
    fn insert_batch_matches_per_tuple_outcomes() {
        use crate::gamma::testutil::{assert_batch_matches_loop, batch_edge_cases};
        // 16-slot first segments: the 64-tuple batches cross into
        // segments 1 and 2. Probes take the key's probe walk (`a` bound)
        // and the first-column chain (the key is the first column).
        let small = || ConcurrentOrderedStore::with_first_segment(keyed_def(), 16);
        let tuples = batch_edge_cases();
        let by_key = |a: i64| Query::on(TableId(0)).eq(0, a);
        let probes = [by_key(0), by_key(7), by_key(1003), by_key(999_999)];
        for batch in [1, 3, 64, tuples.len()] {
            assert_batch_matches_loop(&small(), &small(), &tuples, batch, &probes);
        }
    }

    #[test]
    fn minimal_capacity_also_works() {
        let store = ConcurrentOrderedStore::new(keyed_def(), 1);
        exercise_store_contract(&store);
    }

    #[test]
    fn concurrent_inserts_preserve_set_semantics() {
        use jstar_check::sync::{AtomicUsize, Ordering};
        let store = Arc::new(ConcurrentOrderedStore::new(keyed_def(), 16));
        let pool = jstar_pool::ThreadPool::new(4);
        let fresh = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                let fresh = &fresh;
                s.spawn(move |_| {
                    for a in 0..500 {
                        if store.insert(kt(a, a, "v")) == InsertOutcome::Fresh {
                            // ord: Relaxed — independent counter bumps; the
                            // scope join orders them before the read below.
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Every tuple inserted by 8 threads, but each distinct tuple is
        // fresh exactly once.
        // ord: Relaxed — read after the scope join, no concurrent writers.
        assert_eq!(fresh.load(Ordering::Relaxed), 500);
        assert_eq!(store.len(), 500);
    }

    #[test]
    fn first_column_queries_narrow_via_the_chain_index() {
        let store = ConcurrentOrderedStore::new(keyed_def(), 4);
        for a in 0..200 {
            store.insert(kt(a, a % 7, "v"));
        }
        let q = Query::on(TableId(0)).eq(1, 3i64);
        let mut count = 0;
        store.query(q.probe(), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, (0..200).filter(|a| a % 7 == 3).count());

        // Key-bound point query takes the probe-walk path.
        let q = Query::on(TableId(0)).eq(0, 42i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got, vec![kt(42, 0, "v")]);
    }

    #[test]
    fn compaction_rebuilds_keyed_store() {
        let store = ConcurrentOrderedStore::new(keyed_def(), 4);
        for a in 0..300 {
            store.insert(kt(a, a, "v"));
        }
        store.retain(&|t| t.int(0) < 60);
        assert!(store.maybe_compact(0.5));
        assert_eq!(store.len(), 60);
        // Point lookup, chain narrowing, dedup and key conflicts all
        // survive the rebuild.
        let q = Query::on(TableId(0)).eq(0, 42i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got, vec![kt(42, 42, "v")]);
        assert_eq!(store.insert(kt(42, 42, "v")), InsertOutcome::Duplicate);
        assert_eq!(store.insert(kt(42, 43, "v")), InsertOutcome::KeyConflict);
        assert_eq!(store.insert(kt(1000, 1, "w")), InsertOutcome::Fresh);
    }

    #[test]
    fn import_snapshot_replaces_contents_and_restores_narrowing() {
        let store = ConcurrentOrderedStore::new(keyed_def(), 4);
        for a in 0..50 {
            store.insert(kt(a, a, "old"));
        }
        let incoming: Vec<Tuple> = (100..160).map(|a| kt(a, a % 7, "new")).collect();
        let mut incoming = incoming;
        let mut import = store.begin_import(incoming.len());
        assert_eq!(import.push(&mut incoming), 0);
        assert_eq!(import.commit(), 0);
        assert_eq!(store.len(), 60);
        assert!(!store.contains(&kt(3, 3, "old")));
        // Point lookup and dedup work on the imported table.
        let q = Query::on(TableId(0)).eq(0, 142i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got, vec![kt(142, 142 % 7, "new")]);
        assert_eq!(
            store.insert(kt(142, 142 % 7, "new")),
            InsertOutcome::Duplicate
        );
        assert_eq!(store.insert(kt(142, 0, "x")), InsertOutcome::KeyConflict);
    }

    #[test]
    fn keyless_tables_narrow_on_first_column() {
        let def = crate::gamma::testutil::set_def();
        let store = ConcurrentOrderedStore::new(def, 4);
        for i in 0..300i64 {
            store.insert(Tuple::new(
                TableId(0),
                vec![
                    crate::value::Value::Int(i % 10),
                    crate::value::Value::Int(i),
                ],
            ));
        }
        let q = Query::on(TableId(0)).eq(0, 4i64);
        let mut count = 0;
        store.query(q.probe(), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 30);
    }
}
