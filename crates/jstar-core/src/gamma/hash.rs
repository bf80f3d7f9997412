//! The reservation-table store — the default store of every engine mode,
//! and the paper's `HashSet` / `ConcurrentHashMap` alternative,
//! "considerably more efficient" when every query binds the indexed
//! fields (§5, §6.2) — as one structure whose only parameter is its
//! chain.

use super::reservation::{hash_values, ReservationTable, SwappableTable};
use super::{InsertOutcome, StagedImport, TableStore};
use crate::query::Probe;
use crate::schema::TableDef;
use crate::tuple::Tuple;
use std::any::Any;
use std::sync::Arc;

/// A lock-free store chained on chosen columns.
///
/// Storage is a reservation table: an insert claims a slot with one CAS
/// and publishes the tuple afterwards, so the tuple hot path takes **no
/// lock** — workers inserting the same wide equivalence class never
/// serialise, and readers never observe a partially written tuple.
///
/// Placement: tuples probe by their *key* identity (primary key fields
/// if declared, the whole tuple otherwise), which keeps duplicate and
/// `->`-conflict detection O(probe window) no matter how many tuples
/// share one chain value. The **chain** columns additionally hash every
/// tuple into a secondary chain index. A query reads, in this order:
///
/// 1. every key field equality-bound — the primary probe walk;
/// 2. every chain field bound — that value's chain;
/// 3. otherwise a full scan.
///
/// A chain that is exactly the key prefix `0..k` is the primary walk
/// already, so such a store keeps no chain heads; an empty chain means
/// no secondary narrowing. Ordered traversal is not a store's job: a
/// join walk reads the sorted per-column views the index cache keeps.
///
/// Primary-key (`->`) conflicts are detected on the probe walk, which
/// visits every tuple sharing the key fields; this is only efficient
/// when keys discriminate (true for every paper workload: Done is
/// chained on its key `vertex`, Edge and PvWatts declare no key).
pub struct HashStore {
    def: Arc<TableDef>,
    /// The columns hashed into the chain index; empty when there is no
    /// chain to link (none asked for, or the chain is the key).
    chain: Vec<usize>,
    table: SwappableTable,
}

impl HashStore {
    /// Creates a store chained on `chain` (empty: no chain).
    pub fn new(def: Arc<TableDef>, mut chain: Vec<usize>) -> Self {
        let chain_is_key = def
            .key_arity
            .is_some_and(|k| chain.len() == k && chain.iter().enumerate().all(|(i, &f)| i == f));
        if chain_is_key {
            chain.clear();
        }
        // A new table starts at the reservation table's floor; compaction
        // and import size theirs from row counts.
        let table = SwappableTable::new(ReservationTable::new(0, !chain.is_empty()));
        HashStore { def, chain, table }
    }

    /// [`HashStore::new`] over a table whose first segment has `slots`
    /// slots (see `ReservationTable::with_first_segment`).
    #[cfg(test)]
    pub(crate) fn with_first_segment(def: Arc<TableDef>, chain: Vec<usize>, slots: usize) -> Self {
        let mut store = HashStore::new(def, chain);
        let table = ReservationTable::with_first_segment(slots, store.linked());
        store.table = SwappableTable::new(table);
        store
    }

    /// True when the table links a secondary chain.
    fn linked(&self) -> bool {
        !self.chain.is_empty()
    }

    fn primary_hash(&self, t: &Tuple) -> u64 {
        hash_values(t.key_fields(&self.def))
    }

    /// The `(primary, secondary)` pair the reservation table places `t`
    /// by (no secondary when nothing is linked).
    fn hashes(&self, t: &Tuple) -> (u64, u64) {
        let secondary = if self.linked() {
            hash_values(self.chain.iter().map(|&i| t.get(i)))
        } else {
            0
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
        let mut visit = |t: &Tuple| if q.matches(t) { f(t) } else { true };
        // lint: allow(expect): each walk below first checks its fields are bound.
        let bound = |i: usize| q.eq_value(i).expect("bound");
        let table = self.table.get();
        match self.def.key_arity {
            Some(k) if k > 0 && (0..k).all(|i| q.eq_value(i).is_some()) => {
                table.probe_primary(hash_values((0..k).map(bound)), &mut visit)
            }
            _ if self.linked() && q.covers_fields(&self.chain) => {
                let hash = hash_values(self.chain.iter().map(|&i| bound(i)));
                table.scan_index(hash, &mut visit)
            }
            _ => table.for_each(&mut visit),
        }
    }

    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        self.table.get().retain(keep);
    }

    fn maybe_compact(&self, max_tombstone_fraction: f64) -> bool {
        self.table
            .compact_quiescent(&self.def, max_tombstone_fraction, self.linked(), |t| {
                self.hashes(t)
            })
    }

    fn begin_import(&self, rows: usize) -> Box<dyn StagedImport + '_> {
        // As in `maybe_compact`, a right-sized table built aside — here
        // through the checked batch insert — and swapped in on commit.
        let hashes = |t: &Tuple| self.hashes(t);
        self.table
            .begin_import(&self.def, self.linked(), rows, hashes)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One table-driven suite over every chain shape; its per-store checks
/// also run on what `StoreKind::ConcurrentOrdered` builds (`super::concurrent`).
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::gamma::reservation::chain_hops;
    use crate::gamma::testutil::{
        assert_batch_matches_loop, batch_edge_cases, exercise_store_contract, keyed_def,
        keyless_def, kt,
    };
    use crate::query::Query;
    use crate::schema::TableId;

    /// Every chain shape, over the 3-column `K(a, b, c)` rows of
    /// [`kt`]: `(name, keyed, chain)`. The keyed table's key is `a`.
    const SHAPES: [(&str, bool, &[usize]); 4] = [
        ("keyed, chain = key", true, &[0]),
        ("keyed, chained on b", true, &[1]),
        ("keyless, chained on a", false, &[0]),
        ("keyless, no chain", false, &[]),
    ];

    fn build(keyed: bool, chain: &[usize], first_segment: Option<usize>) -> HashStore {
        let def = if keyed { keyed_def() } else { keyless_def() };
        match first_segment {
            Some(slots) => HashStore::with_first_segment(def, chain.to_vec(), slots),
            None => HashStore::new(def, chain.to_vec()),
        }
    }

    /// What a second row under an existing `a` comes back as.
    fn second_row(store: &HashStore) -> InsertOutcome {
        let keyed = store.def.key_arity.is_some();
        [InsertOutcome::Fresh, InsertOutcome::KeyConflict][keyed as usize]
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    /// `q`'s rows (sorted) and the chain links its walk followed.
    pub(in crate::gamma) fn rows_and_hops(store: &HashStore, q: &Query) -> (Vec<Tuple>, usize) {
        let before = chain_hops();
        let mut rows = Vec::new();
        store.query(q.probe(), &mut |t| {
            rows.push(t.clone());
            true
        });
        (sorted(rows), chain_hops() - before)
    }

    /// Each query path returns exactly a filtered scan's rows, and walks
    /// the chain only when no key probe applies and the chain is bound.
    pub(in crate::gamma) fn assert_query_paths(name: &str, store: &HashStore, queries: &[Query]) {
        for q in queries {
            let mut want = Vec::new();
            store.for_each(&mut |t| {
                if q.probe().matches(t) {
                    want.push(t.clone());
                }
                true
            });
            let (got, hops) = rows_and_hops(store, q);
            assert_eq!(got, sorted(want), "{name}: {q:?}");
            let key_bound = store.def.key_arity.is_some() && q.probe().eq_value(0).is_some();
            if store.linked() && !key_bound && q.probe().covers_fields(&store.chain) {
                assert!(hops >= got.len(), "{name}: {q:?} walks the chain");
            } else {
                assert_eq!(hops, 0, "{name}: {q:?} never touches a chain");
            }
        }
    }

    /// Queries over [`kt`] rows binding `a`, `b`, both, neither, and a
    /// range.
    pub(in crate::gamma) fn queries(a: i64, b: i64) -> Vec<Query> {
        let q = || Query::on(TableId(0));
        vec![
            q().eq(0, a),
            q().eq(1, b),
            q().eq(0, a).eq(1, b),
            q().eq(2, "v"),
            q().ge(1, b),
            q().eq(0, 999_999i64),
        ]
    }

    /// The store contract, then every query path over what it left, then
    /// a second row and a duplicate met among many rows.
    pub(in crate::gamma) fn check_contract(name: &str, store: &HashStore) {
        exercise_store_contract(store, store.def.key_arity.is_some());
        assert_query_paths(name, store, &queries(1, 10));
        for a in 100..150 {
            assert_eq!(store.insert(kt(a, a, "v")), InsertOutcome::Fresh, "{name}");
        }
        assert_eq!(store.insert(kt(125, 99, "v")), second_row(store), "{name}");
        let repeat = store.insert(kt(125, 125, "v"));
        assert_eq!(repeat, InsertOutcome::Duplicate, "{name}");
    }

    #[test]
    fn satisfies_store_contract() {
        for (name, keyed, chain) in SHAPES {
            let store = build(keyed, chain, None);
            // Only a chain off the key links chain heads.
            let linked = !chain.is_empty() && (!keyed || chain != [0]);
            assert_eq!(store.table.get().has_chain_heads(), linked, "{name}");
            check_contract(name, &store);
        }
    }

    #[test]
    fn key_conflict_found_among_many() {
        // A `->` conflict and a duplicate met among 50 fresh rows.
        for (name, keyed, chain) in SHAPES.into_iter().filter(|s| s.1) {
            let store = build(keyed, chain, None);
            for a in 0..50 {
                assert_eq!(store.insert(kt(a, a, "v")), InsertOutcome::Fresh, "{name}");
            }
            assert_eq!(
                store.insert(kt(25, 99, "v")),
                InsertOutcome::KeyConflict,
                "{name}"
            );
            assert_eq!(
                store.insert(kt(25, 25, "v")),
                InsertOutcome::Duplicate,
                "{name}"
            );
        }
    }

    #[test]
    fn keyless_store_accepts_same_prefix() {
        for (name, keyed, chain) in SHAPES.into_iter().filter(|s| !s.1) {
            let store = build(keyed, chain, None);
            assert_eq!(store.insert(kt(1, 2, "v")), InsertOutcome::Fresh, "{name}");
            assert_eq!(store.insert(kt(1, 3, "v")), InsertOutcome::Fresh, "{name}");
            assert_eq!(store.len(), 2, "{name}");
        }
    }

    #[test]
    fn point_query_hits_one_bucket() {
        // A key-bound query takes the primary walk even where a chain
        // (here on the non-key `b`) is bound as well; `b` alone walks
        // the chain.
        let store = build(true, &[1], None);
        for a in 0..200 {
            store.insert(kt(a, a % 7, "v"));
        }
        let q = Query::on(TableId(0));
        let (rows, hops) = rows_and_hops(&store, &q.clone().eq(0, 42i64).eq(1, 0i64));
        assert_eq!((rows, hops), (vec![kt(42, 0, "v")], 0));
        let (rows, hops) = rows_and_hops(&store, &q.eq(1, 3i64));
        assert_eq!(rows.len(), (0..200).filter(|a| a % 7 == 3).count());
        assert!(hops >= rows.len());
    }

    #[test]
    fn unindexed_query_falls_back_to_scan() {
        for (name, keyed, chain) in SHAPES {
            let store = build(keyed, chain, None);
            for a in 0..100 {
                store.insert(kt(a, a % 5, if a % 2 == 0 { "v" } else { "w" }));
            }
            let (rows, hops) = rows_and_hops(&store, &Query::on(TableId(0)).eq(2, "w"));
            assert_eq!((rows.len(), hops), (50, 0), "{name}");
        }
    }

    /// Batch and per-tuple inserts agree on the stores `small` builds;
    /// only a keyed store meets a key conflict.
    pub(in crate::gamma) fn check_batch(name: &str, small: &dyn Fn() -> HashStore) {
        let tuples = batch_edge_cases();
        let mut probes = queries(7, 28);
        probes.extend(queries(1003, 3));
        for batch in [1, 3, 64, tuples.len()] {
            assert_batch_matches_loop(&small(), &small(), &tuples, batch, &probes);
        }
        let store = small();
        let mut outcomes = Vec::new();
        store.insert_batch(&tuples, &mut outcomes);
        let conflicts = outcomes.contains(&InsertOutcome::KeyConflict);
        assert_eq!(conflicts, store.def.key_arity.is_some(), "{name}");
        assert_query_paths(name, &store, &probes);
    }

    #[test]
    fn insert_batch_matches_per_tuple_outcomes() {
        // 16-slot first segments: the 64-tuple batches cross into
        // segments 1 and 2, and every fresh slot links into its chain.
        for (name, keyed, chain) in SHAPES {
            check_batch(name, &|| build(keyed, chain, Some(16)));
        }
    }

    /// Eight threads insert the same 500 rows into an empty `store`:
    /// each is fresh exactly once.
    pub(in crate::gamma) fn check_concurrent_inserts(name: &str, store: &HashStore) {
        use jstar_check::sync::{AtomicUsize, Ordering};
        let pool = jstar_pool::ThreadPool::new(4);
        let fresh = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let fresh = &fresh;
                s.spawn(move |_| {
                    for a in 0..500 {
                        if store.insert(kt(a, a % 9, "v")) == InsertOutcome::Fresh {
                            // ord: Relaxed — independent counter bumps; the
                            // scope join orders them before the read below.
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // ord: Relaxed — read after the scope join, no concurrent writers.
        assert_eq!(fresh.load(Ordering::Relaxed), 500, "{name}");
        assert_eq!(store.len(), 500, "{name}");
        assert_query_paths(name, store, &queries(42, 3));
    }

    #[test]
    fn concurrent_inserts_dedup() {
        for (name, keyed, chain) in SHAPES {
            check_concurrent_inserts(name, &build(keyed, chain, None));
        }
    }

    /// Compaction of an empty `store` filled and mostly retained away
    /// keeps every row, query path, dedup and key conflict.
    pub(in crate::gamma) fn check_compaction(name: &str, store: &HashStore) {
        for a in 0..300 {
            store.insert(kt(a, a % 7, "v"));
        }
        store.retain(&|t| t.int(0) < 60);
        assert_eq!(store.len(), 60);
        assert!(!store.maybe_compact(0.9), "{name}: 0.8 dead is below 0.9");
        assert!(store.maybe_compact(0.5), "{name}: 0.8 dead is above 0.5");
        assert!(
            !store.maybe_compact(0.5),
            "{name}: a fresh table has no tombstones"
        );
        assert_eq!(store.len(), 60);
        assert_query_paths(name, store, &queries(42, 3));
        assert_eq!(store.insert(kt(42, 0, "v")), InsertOutcome::Duplicate);
        assert_eq!(store.insert(kt(42, 1, "v")), second_row(store), "{name}");
        assert_eq!(store.insert(kt(1000, 1, "w")), InsertOutcome::Fresh);
    }

    #[test]
    fn compaction_preserves_contents_and_indexes() {
        for (name, keyed, chain) in SHAPES {
            check_compaction(name, &build(keyed, chain, None));
        }
    }

    /// An import into a filled `store` replaces its rows and restores
    /// every query path, dedup and key conflict.
    pub(in crate::gamma) fn check_import(name: &str, store: &HashStore) {
        for a in 0..50 {
            store.insert(kt(a, a, "old"));
        }
        let mut incoming: Vec<Tuple> = (100..160).map(|a| kt(a, a % 7, "v")).collect();
        let mut import = store.begin_import(incoming.len());
        assert_eq!(import.push(&mut incoming), 0);
        assert_eq!(import.commit(), 0);
        assert_eq!(store.len(), 60, "{name}");
        assert!(!store.contains(&kt(3, 3, "old")), "{name}");
        assert_query_paths(name, store, &queries(142, 142 % 7));
        assert_eq!(
            store.insert(kt(142, 142 % 7, "v")),
            InsertOutcome::Duplicate
        );
        assert_eq!(store.insert(kt(142, 0, "x")), second_row(store), "{name}");
    }

    #[test]
    fn import_snapshot_restores_index_chains() {
        for (name, keyed, chain) in SHAPES {
            check_import(name, &build(keyed, chain, None));
        }
    }

    #[test]
    fn multi_field_index() {
        // Chained on (a, b), like the paper's PvWatts (year, month)
        // hashtable: keyless, so only the chain narrows.
        let store = build(false, &[0, 1], None);
        store.insert(kt(2023, 1, "jan"));
        store.insert(kt(2024, 1, "jan"));
        store.insert(kt(2023, 2, "feb"));
        let q = Query::on(TableId(0)).eq(0, 2023i64).eq(1, 1i64);
        assert_eq!(rows_and_hops(&store, &q).0, vec![kt(2023, 1, "jan")]);
        assert_query_paths("keyless, chained on (a, b)", &store, &queries(2023, 1));
    }

    #[test]
    fn duplicate_detection_is_constant_time_per_bucket() {
        // Large single-bucket load: 20k inserts into one (keyless) chain
        // must complete quickly — tuples probe by their own identity, so
        // a shared chain value cannot make dedup quadratic.
        let store = build(false, &[0], None);
        let t0 = std::time::Instant::now();
        for i in 0..20_000i64 {
            store.insert(kt(1, i, "v"));
        }
        assert_eq!(store.len(), 20_000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "bucket inserts must not be quadratic: {:?}",
            t0.elapsed()
        );
        // And the shared chain still answers the point query.
        let q = Query::on(TableId(0)).eq(0, 1i64).eq(1, 7i64);
        assert_eq!(rows_and_hops(&store, &q).0, vec![kt(1, 7, "v")]);
    }
}
