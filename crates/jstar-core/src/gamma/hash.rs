//! Hash-indexed store — the paper's `HashSet`/`ConcurrentHashMap`
//! alternative, "considerably more efficient" when every query binds the
//! indexed fields (§6.2 uses one on PvWatts' year/month).

use super::reservation::{hash_values, ReservationTable, SwappableTable};
use super::{InsertOutcome, StagedImport, TableStore};
use crate::query::Probe;
use crate::schema::TableDef;
use crate::tuple::Tuple;
use std::any::Any;
use std::sync::Arc;

/// A lock-free hash index over chosen fields.
///
/// Storage is a reservation table: inserts claim a slot with one CAS
/// and publish the tuple afterwards, so the tuple hot path takes **no
/// lock** — the predecessor of this design guarded each shard's
/// `HashMap` with a reader-writer lock, and the writer acquisition was
/// the last lock on the engine's put→Gamma path.
///
/// Placement: tuples probe by their *key* identity (primary key fields
/// if declared, the whole tuple otherwise), which keeps duplicate and
/// `->`-conflict detection O(probe window) no matter how many tuples
/// share one index key. Queries that equality-bind every indexed field
/// walk that index key's secondary chain (the moral equivalent of the
/// old design's one-bucket lookup) — or, when the index fields are
/// exactly the primary key, the primary probe walk directly. Other
/// queries fall back to a full scan.
///
/// Primary-key (`->`) conflicts are detected on the probe walk, which
/// visits every tuple sharing the key fields; as before this is only
/// efficient when keys discriminate (true for every paper workload:
/// Done is indexed by its key `vertex`, Edge and PvWatts declare no
/// key).
pub struct HashStore {
    def: Arc<TableDef>,
    index_fields: Vec<usize>,
    table: SwappableTable,
    /// True when `index_fields` is exactly the primary-key prefix, so
    /// the index hash *is* the primary probe hash and indexed queries
    /// can walk the primary path instead of a secondary chain.
    index_is_primary: bool,
}

impl HashStore {
    /// Creates a store indexed on `index_fields`; `capacity` hints the
    /// initial slot-table size (it grows by doubling segments).
    pub fn new(def: Arc<TableDef>, index_fields: Vec<usize>, capacity: usize) -> Self {
        assert!(
            !index_fields.is_empty(),
            "HashStore needs at least one indexed field"
        );
        let index_is_primary = match def.key_arity {
            Some(k) => {
                index_fields.len() == k && index_fields.iter().enumerate().all(|(i, &f)| i == f)
            }
            None => false,
        };
        HashStore {
            table: SwappableTable::new(ReservationTable::new(capacity * 64, !index_is_primary)),
            def,
            index_fields,
            index_is_primary,
        }
    }

    /// [`HashStore::new`] over a table whose first segment has `slots`
    /// slots (see `ReservationTable::with_first_segment`).
    #[cfg(test)]
    pub(crate) fn with_first_segment(
        def: Arc<TableDef>,
        index_fields: Vec<usize>,
        slots: usize,
    ) -> Self {
        let mut store = HashStore::new(def, index_fields, 1);
        let table = ReservationTable::with_first_segment(slots, !store.index_is_primary);
        store.table = SwappableTable::new(table);
        store
    }

    /// The fields this store is indexed on.
    pub fn index_fields(&self) -> &[usize] {
        &self.index_fields
    }

    fn primary_hash(&self, t: &Tuple) -> u64 {
        hash_values(t.key_fields(&self.def))
    }

    fn index_hash(&self, t: &Tuple) -> u64 {
        hash_values(self.index_fields.iter().map(|&i| t.get(i)))
    }

    /// The `(primary, secondary)` pair the reservation table places `t`
    /// by (no secondary chain when the index *is* the primary walk).
    fn hashes(&self, t: &Tuple) -> (u64, u64) {
        let secondary = if self.index_is_primary {
            0
        } else {
            self.index_hash(t)
        };
        (self.primary_hash(t), secondary)
    }
}

impl TableStore for HashStore {
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
        // Fast path: all indexed fields are bound — walk one chain.
        if q.covers_fields(&self.index_fields) {
            let hash = hash_values(
                self.index_fields
                    .iter()
                    // lint: allow(expect): covers_fields() verified these fields are bound.
                    .map(|&i| q.eq_value(i).expect("covered")),
            );
            let mut visit = |t: &Tuple| if q.matches(t) { f(t) } else { true };
            if self.index_is_primary {
                self.table.get().probe_primary(hash, &mut visit);
            } else {
                self.table.get().scan_index(hash, &mut visit);
            }
            return;
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
            !self.index_is_primary,
            |t| self.hashes(t),
        )
    }

    fn begin_import(&self, rows: usize) -> Box<dyn StagedImport + '_> {
        // As in `maybe_compact`, a right-sized table built aside — here
        // through the checked batch insert — and swapped in on commit.
        let hashes = |t: &Tuple| self.hashes(t);
        self.table
            .begin_import(&self.def, !self.index_is_primary, rows, hashes)
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
    use crate::value::Value;

    fn indexed_on_key() -> HashStore {
        HashStore::new(keyed_def(), vec![0], 8)
    }

    #[test]
    fn satisfies_store_contract() {
        exercise_store_contract(&indexed_on_key());
    }

    #[test]
    fn insert_batch_matches_per_tuple_outcomes() {
        use crate::gamma::testutil::{assert_batch_matches_loop, batch_edge_cases, set_def};
        // Keyed, index = primary key (probe-walk queries): 16-slot first
        // segments, so the 64-tuple batches cross into segment 1 and 2.
        let small = || HashStore::with_first_segment(keyed_def(), vec![0], 16);
        let tuples = batch_edge_cases();
        let by_key = |a: i64| Query::on(TableId(0)).eq(0, a);
        let probes = [by_key(0), by_key(7), by_key(1003), by_key(999_999)];
        for batch in [1, 3, 64, tuples.len()] {
            assert_batch_matches_loop(&small(), &small(), &tuples, batch, &probes);
        }
        // Keyless with a secondary chain index on the first column: the
        // batch links every fresh slot into its chain.
        let chained = || HashStore::with_first_segment(set_def(), vec![0], 16);
        let rows: Vec<Tuple> = (0..150i64)
            .map(|i| Tuple::new(TableId(0), vec![Value::Int(i % 5), Value::Int(i % 90)]))
            .collect();
        let probes = [by_key(0), by_key(3), by_key(9)];
        for batch in [7, 64, rows.len()] {
            assert_batch_matches_loop(&chained(), &chained(), &rows, batch, &probes);
        }
    }

    #[test]
    fn point_query_hits_one_bucket() {
        let store = indexed_on_key();
        for a in 0..1000 {
            store.insert(kt(a, a * 2, "v"));
        }
        let q = Query::on(TableId(0)).eq(0, 500i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got, vec![kt(500, 1000, "v")]);
    }

    #[test]
    fn multi_field_index() {
        // Index on (a, b) like the paper's PvWatts (year, month) hashtable.
        let store = HashStore::new(keyed_def(), vec![0, 1], 4);
        store.insert(kt(2023, 1, "jan"));
        store.insert(kt(2024, 1, "jan"));
        let q = Query::on(TableId(0)).eq(0, 2023i64).eq(1, 1i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].str(2), "jan");
    }

    #[test]
    fn unindexed_query_falls_back_to_scan() {
        let store = indexed_on_key();
        for a in 0..100 {
            store.insert(kt(a, a % 5, "v"));
        }
        let q = Query::on(TableId(0)).eq(1, 2i64);
        let mut count = 0;
        store.query(q.probe(), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 20);
    }

    #[test]
    fn concurrent_inserts_dedup() {
        let store = Arc::new(indexed_on_key());
        let pool = jstar_pool::ThreadPool::new(4);
        pool.scope(|s| {
            for _ in 0..6 {
                let store = Arc::clone(&store);
                s.spawn(move |_| {
                    for a in 0..300 {
                        store.insert(kt(a, a, "v"));
                    }
                });
            }
        });
        assert_eq!(store.len(), 300);
    }

    #[test]
    fn compaction_preserves_contents_and_indexes() {
        use crate::gamma::testutil::set_def;
        // Keyless store with a non-primary secondary index, so the
        // rebuild must restore both probe paths and chain links.
        let store = HashStore::new(set_def(), vec![0], 8);
        for i in 0..400i64 {
            store.insert(Tuple::new(
                TableId(0),
                vec![Value::Int(i % 8), Value::Int(i)],
            ));
        }
        store.retain(&|t| t.int(1) < 100);
        assert_eq!(store.len(), 100);
        assert!(!store.maybe_compact(0.9), "fraction 0.75 below 0.9 ceiling");
        assert!(store.maybe_compact(0.5), "0.75 dead > 0.5 threshold");
        assert!(!store.maybe_compact(0.5), "fresh table has no tombstones");
        assert_eq!(store.len(), 100);
        // Indexed point query still narrows correctly after the rebuild.
        let q = Query::on(TableId(0)).eq(0, 3i64).eq(1, 51i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(
            got,
            vec![Tuple::new(TableId(0), vec![Value::Int(3), Value::Int(51)])]
        );
        // Dedup across the rebuild: reinserting survivors is a duplicate.
        assert_eq!(
            store.insert(Tuple::new(TableId(0), vec![Value::Int(3), Value::Int(51)])),
            InsertOutcome::Duplicate
        );
    }

    #[test]
    fn import_snapshot_restores_index_chains() {
        use crate::gamma::testutil::set_def;
        let store = HashStore::new(set_def(), vec![0], 8);
        for i in 0..30i64 {
            store.insert(Tuple::new(TableId(0), vec![Value::Int(0), Value::Int(i)]));
        }
        let incoming: Vec<Tuple> = (0..90i64)
            .map(|i| Tuple::new(TableId(0), vec![Value::Int(i % 3), Value::Int(i)]))
            .collect();
        let mut incoming = incoming;
        let mut import = store.begin_import(incoming.len());
        assert_eq!(import.push(&mut incoming), 0);
        assert_eq!(import.commit(), 0);
        assert_eq!(store.len(), 90);
        // The indexed fast path narrows over the rebuilt chains.
        let q = Query::on(TableId(0)).eq(0, 2i64).eq(1, 50i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(
            got,
            vec![Tuple::new(TableId(0), vec![Value::Int(2), Value::Int(50)])]
        );
    }

    #[test]
    fn duplicate_detection_is_constant_time_per_bucket() {
        // Large single-bucket load: 20k inserts into one (keyless) index
        // bucket must complete quickly — tuples probe by their own
        // identity, so a shared index key cannot make dedup quadratic.
        let def = crate::gamma::testutil::set_def();
        let store = HashStore::new(def, vec![0], 2);
        let t0 = std::time::Instant::now();
        for i in 0..20_000i64 {
            store.insert(Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(i)]));
        }
        assert_eq!(store.len(), 20_000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "bucket inserts must not be quadratic: {:?}",
            t0.elapsed()
        );
        // And the shared index chain still answers the point query.
        let q = Query::on(TableId(0)).eq(0, 1i64).eq(1, 7i64);
        let mut got = 0;
        store.query(q.probe(), &mut |_| {
            got += 1;
            true
        });
        assert_eq!(got, 1);
    }
}
