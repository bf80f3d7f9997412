//! Generation-stamped cache of [`ColumnIndex`] column views — the
//! layer under the leapfrog join lowering that keeps a view for as long
//! as its table stands still.
//!
//! Without it a join walk rebuilds each probe table's sorted column view
//! from a full scan-and-sort of live Gamma on every open, so a program
//! that reopens an unchanged table (a second stage on the same column, a
//! read-side walk after the run, the next class over a table no step has
//! written) would sort it again. This cache keeps each view on its first
//! open and stamps it with an [`IndexStamp`]:
//!
//! * **generation** — the reservation table's claim-journal length at
//!   build time, clamped to the *stable prefix* (the longest prefix with
//!   no append still in flight — see
//!   [`super::reservation::ReservationTable::journal_stable_prefix`]);
//! * **epoch** — bumped by every quiescent table replacement
//!   (compaction, snapshot import);
//! * **tombstones** — lifetime-hint `retain` kills tuples without
//!   touching the journal, so the dead-slot count is stamped too;
//! * **interior** — the journal entries ahead of the newest segment's
//!   (see [`IndexStamp::extends`], the snapshot writer's reuse rule).
//!
//! An open serves the cached view only while the store's stamp equals
//! the one it was built under. Any change — one more claimed row, a
//! tombstone, a compaction — rebuilds the view by the one cold build: a
//! walk of the journal from position 0, cut into pieces on the pool,
//! sorted and cut into groups ([`super::cursor::build_view`]). Every
//! built-in store keeps a claim journal; only custom stores
//! ([`super::StoreKind::Custom`]) report no stamp, and their views are
//! built over [`super::TableStore::for_each`], as one piece, on every
//! open and never cached. One open asks for the stage views a walk needs
//! ([`super::Gamma::open_views`]) and builds its misses one after
//! another, one view per build, each on the pool. A join rule's root,
//! cut from its delta, is no column of a store: the walk builds it
//! itself ([`super::rows_view`]), and the cache never sees it.
//!
//! The LRU bound counts what a view owns
//! ([`ColumnIndex::approx_bytes`]): its five arrays. Tuple payloads
//! belong to the store and are not charged.
//!
//! Concurrency: one mutex per table guards that table's `field → entry`
//! map, and is held only to look an entry up and to insert one — never
//! while a view is built. A miss unlocks, builds, locks again and
//! inserts the view under the stamp its walk covered; the last insert
//! wins. Openers that race on one miss each build their own copy: no
//! thread blocks on another's build, so no deadlock can form (a build on
//! the pool helps run whatever jobs the pool holds, and one of them may
//! open a view itself), and a build that panics leaves nothing behind.
//! A stale insert costs at most one more rebuild, since an entry is
//! served only while its stamp equals the store's. Openers race workers
//! still appending to the journal; the happens-before edge that makes
//! the journal walk sound is the claim journal's own publish protocol
//! (see CONCURRENCY.md protocol 6).

use super::cursor::{build_view, ColumnIndex, Source};
use super::{TableStore, WriteOnceStore};
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Mutex, Ordering};
use jstar_pool::ThreadPool;
use std::collections::HashMap;
use std::sync::Arc;

/// The validity stamp of a cached column view — see the module docs for
/// what each component records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStamp {
    /// Quiescent-replacement count of the backing table.
    pub epoch: u64,
    /// Claim-journal length (an entry *count*; in-flight appends make
    /// the usable bound smaller — a walk records the bound it covered).
    pub generation: usize,
    /// Tombstoned-slot count of the backing table.
    pub tombstones: usize,
    /// Journal entries ahead of the newest segment's, with that
    /// segment's number above them (bits 56..): unchanged means no entry
    /// was claimed before a position already handed out.
    pub interior: u64,
}

impl IndexStamp {
    /// True when everything stamped `earlier` still sits at the journal
    /// positions it had then, so what was read from `[0,
    /// earlier.generation)` stands and the walk of `[earlier.generation,
    /// self.generation)` is exactly what is new. The snapshot writer's
    /// section cache ([`crate::persist::CheckpointWriter`]) appends by
    /// this rule; the column-view cache needs the stamps equal.
    pub fn extends(&self, earlier: &IndexStamp) -> bool {
        self.epoch == earlier.epoch
            && self.tombstones == earlier.tombstones
            && self.interior == earlier.interior
            && self.generation >= earlier.generation
    }
}

/// Point-in-time counter snapshot — the source of
/// `RunReport::{index_cache_hits, index_cache_misses,
/// index_build_tuples}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Opens served from a cached entry whose stamp still equals the
    /// store's.
    pub hits: u64,
    /// Opens that built the view (uncacheable store, empty slot, or a
    /// stamp that moved).
    pub misses: u64,
    /// Tuples sorted by those builds, and by the seals of write-once
    /// tables (see [`super::WriteOnceStore`]), whose views the cache
    /// serves.
    pub build_tuples: u64,
}

struct CacheEntry {
    index: Arc<ColumnIndex>,
    stamp: IndexStamp,
    last_used: u64,
    bytes: usize,
}

/// One table's `field → entry` map.
type Table = Mutex<HashMap<usize, CacheEntry>>;

/// Per-[`super::Gamma`] cache: one `field → entry` map per table store.
pub struct IndexCache {
    max_bytes_per_table: usize,
    tables: Vec<Table>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    build_tuples: AtomicU64,
}

/// Per-table byte bound on cached column views; least-recently-used
/// entries are evicted past it (the most recently built view always
/// survives).
pub const DEFAULT_INDEX_CACHE_MAX_BYTES: usize = 64 << 20;

/// How one open gets one view.
enum Claim {
    /// Served from the cache.
    Hit(Arc<ColumnIndex>),
    /// Built by this open — off the journal up to the stamp's
    /// generation, or over `for_each` without a stamp.
    Build(Option<IndexStamp>),
}

impl IndexCache {
    pub(super) fn new(n_tables: usize, max_bytes: usize) -> IndexCache {
        IndexCache {
            max_bytes_per_table: max_bytes,
            tables: (0..n_tables).map(|_| Mutex::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_tuples: AtomicU64::new(0),
        }
    }

    /// Counter snapshot (monotone over the cache's lifetime).
    pub fn stats(&self) -> IndexCacheStats {
        // ord: Relaxed ×3 — statistics only.
        IndexCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_tuples: self.build_tuples.load(Ordering::Relaxed),
        }
    }

    /// The open path behind [`super::Gamma::open_views`]: the view of
    /// each `(table, field, store)` column, served or built. The misses
    /// are built one after another, each on `pool`
    /// ([`super::cursor::build_view`]) and outside the table locks; a
    /// column named twice is served the first one's view.
    pub(super) fn open_views(
        &self,
        columns: &[(usize, usize, &dyn TableStore)],
        pool: Option<&ThreadPool>,
    ) -> Vec<Arc<ColumnIndex>> {
        let mut out: Vec<Arc<ColumnIndex>> = Vec::with_capacity(columns.len());
        for (i, &(table, field, store)) in columns.iter().enumerate() {
            let earlier = columns[..i]
                .iter()
                .position(|&(t, f, _)| (t, f) == (table, field));
            out.push(match earlier {
                Some(j) => {
                    // ord: Relaxed — statistic only. Served by the
                    // earlier column's view, as a later open would be.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(&out[j])
                }
                None => self.open(table, field, store, pool),
            });
        }
        out
    }

    /// The open path behind [`super::Gamma::open_cursor`]: one view,
    /// served from its entry on a hit, built on `pool` otherwise (one
    /// piece without one) and made the entry.
    pub(super) fn open(
        &self,
        table: usize,
        field: usize,
        store: &dyn TableStore,
        pool: Option<&ThreadPool>,
    ) -> Arc<ColumnIndex> {
        let stamp = match self.claim(table, field, store) {
            Claim::Hit(view) => return view,
            Claim::Build(stamp) => stamp,
        };
        let source = stamp.map_or(Source::Pass(store), |s| {
            Source::Journal(store, s.generation)
        });
        let (view, covered) = build_view(source, field, pool);
        let view = Arc::new(view);
        self.count_build(view.rows.len());
        if let Some(stamp) = stamp {
            // Stamped with the bound the walk covered: an append still
            // in flight leaves the stamp behind the store's, so the next
            // open rebuilds and reads it.
            let stamp = IndexStamp {
                generation: covered,
                ..stamp
            };
            self.insert(table, field, stamp, &view);
        }
        view
    }

    /// A hit while `field`'s entry is stamped as the store is, a build
    /// otherwise.
    fn claim(&self, table: usize, field: usize, store: &dyn TableStore) -> Claim {
        // A write-once table's sealed view is its column-0 view.
        if let (0, Some(store)) = (field, store.as_any().downcast_ref::<WriteOnceStore>()) {
            // ord: Relaxed — statistic only.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Claim::Hit(store.view());
        }
        // A custom store without a claim journal: built every open.
        let Some(stamp) = store.index_stamp() else {
            return Claim::Build(None);
        };
        let mut map = self.tables[table].lock();
        let Some(e) = map.get_mut(&field).filter(|e| e.stamp == stamp) else {
            return Claim::Build(Some(stamp));
        };
        e.last_used = self.tick();
        // ord: Relaxed — statistic only.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Claim::Hit(Arc::clone(&e.index))
    }

    /// Makes `index`, built under `stamp`, the entry of `field`.
    fn insert(&self, table: usize, field: usize, stamp: IndexStamp, index: &Arc<ColumnIndex>) {
        let mut map = self.tables[table].lock();
        let entry = CacheEntry {
            index: Arc::clone(index),
            stamp,
            last_used: self.tick(),
            bytes: index.approx_bytes(),
        };
        map.insert(field, entry);
        evict_over_budget(&mut map, self.max_bytes_per_table);
    }

    /// The next LRU tick.
    fn tick(&self) -> u64 {
        // ord: Relaxed — the tick is advisory; the map mutex orders
        // every entry mutation.
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts the `tuples` rows a write-once table's seal sorted: a build
    /// no open made, so it is no miss.
    pub(super) fn count_seal(&self, tuples: usize) {
        // ord: Relaxed — statistic only.
        self.build_tuples
            .fetch_add(tuples as u64, Ordering::Relaxed);
    }

    /// Counts one build of `tuples` rows.
    fn count_build(&self, tuples: usize) {
        // ord: Relaxed ×2 — statistics only.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_tuples
            .fetch_add(tuples as u64, Ordering::Relaxed);
    }
}

/// Evicts least-recently-used views until the table's total is within
/// `max_bytes` (always keeping at least one view — evicting the one
/// that was just built would turn every open into a rebuild).
fn evict_over_budget(map: &mut HashMap<usize, CacheEntry>, max_bytes: usize) {
    while map.len() > 1 && map.values().map(|e| e.bytes).sum::<usize>() > max_bytes {
        let Some(&victim) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(f, _)| f) else {
            return;
        };
        map.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::cursor::tests::view_of;
    use crate::gamma::testutil::{keyed_def, kt, set_def};
    use crate::gamma::HashStore;
    use crate::schema::TableId;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use jstar_check::sync::{AtomicBool, AtomicUsize};

    /// A 256-slot first segment holds every row these tests insert, so
    /// journal positions stay append-only (under `model-check` too,
    /// whose floor is 16 slots).
    fn store() -> HashStore {
        HashStore::with_first_segment(keyed_def(), vec![0], 256)
    }

    /// The view of `field` over one `for_each` pass of `s` — what a
    /// cold build of the table as it stands is.
    fn cold(s: &HashStore, field: usize) -> ColumnIndex {
        let mut rows = Vec::new();
        s.for_each(&mut |t| {
            rows.push(t.clone());
            true
        });
        view_of(field, &rows)
    }

    #[test]
    fn second_open_is_a_pure_hit() {
        let s = store();
        for i in 0..100 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let a = cache.open(0, 0, &s, None);
        let b = cache.open(0, 0, &s, None);
        assert!(Arc::ptr_eq(&a, &b), "warm open returns the cached Arc");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.build_tuples, 100);
    }

    #[test]
    fn a_grown_table_is_rebuilt_whole_and_matches_cold() {
        // Descending keys: the 20 new rows sort *below* the 80 cached
        // ones. The reopen is a miss that sorts all 100 rows again —
        // never only the 20 — and equals a cold build of the table.
        let s = store();
        for i in 0..80 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let first = cache.open(0, 0, &s, None);
        for i in 80..100 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let reopened = cache.open(0, 0, &s, None);
        assert!(
            !Arc::ptr_eq(&first, &reopened),
            "the grown table is rebuilt"
        );
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (0, 2), "both opens built");
        assert_eq!(st.build_tuples, 80 + 100, "the rebuild sorted every row");
        assert_eq!(*reopened, cold(&s, 0), "rebuilt == cold build");
    }

    #[test]
    fn cached_view_equals_cold_build_after_every_growth() {
        // The reference is a cold build over the same store's
        // `for_each`, compared on every flat array. Field 1 repeats
        // (i % 7), so every round's rows land inside the groups of the
        // round before as well as between them — group-internal order
        // (next column, then journal order) is part of the contract.
        // Once with a string column and once all-integer; the key
        // column is dense either way. Each round's first open rebuilds;
        // its second, with nothing new, is a hit on the same view.
        for packed in [false, true] {
            let s = if packed {
                HashStore::with_first_segment(set_def(), vec![0], 256)
            } else {
                store()
            };
            let cache = IndexCache::new(1, usize::MAX);
            for round in 0..5 {
                for i in round * 30..(round + 1) * 30 {
                    s.insert(if packed {
                        Tuple::new(TableId(0), vec![Value::Int(i), Value::Int((i * 5) % 7)])
                    } else {
                        kt(i, (i * 5) % 7, "v")
                    });
                }
                let cached = cache.open(0, 1, &s, None);
                assert_eq!(
                    *cached,
                    cold(&s, 1),
                    "round {round}: cached view diverged from the cold build"
                );
                assert!(Arc::ptr_eq(&cached, &cache.open(0, 1, &s, None)));
                assert!(cached.int_keys.is_some());
            }
            let st = cache.stats();
            assert_eq!((st.misses, st.hits), (5, 5), "a build and a hit a round");
            assert_eq!(st.build_tuples, 30 + 60 + 90 + 120 + 150);
        }
    }

    #[test]
    fn rebuild_places_rows_inside_groups_below_old_next_values() {
        // Groups x = 0, 1, 2 are ordered by y (their next column). Each
        // round's rows carry y values *below* every one already in their
        // group, and one above: the rebuilt view places them inside the
        // groups, as a cold build does, not at their ends.
        let s = HashStore::with_first_segment(set_def(), vec![0], 256);
        let cache = IndexCache::new(1, usize::MAX);
        for round in 0..4 {
            for x in 0..3 {
                for y in [(3 - round) * 10 + x, (3 - round) * 10 + 5, 100 + round] {
                    s.insert(Tuple::new(TableId(0), vec![Value::Int(x), Value::Int(y)]));
                }
            }
            let cached = cache.open(0, 0, &s, None);
            assert_eq!(
                *cached,
                cold(&s, 0),
                "round {round}: cached view diverged from the cold build"
            );
            let next = cached
                .int_next
                .as_deref()
                .expect("an all-integer next column");
            for g in 0..cached.len() {
                let group = &next[cached.group_range(g)];
                assert!(
                    group.windows(2).all(|w| w[0] <= w[1]),
                    "round {round}: {group:?}"
                );
            }
        }
        let st = cache.stats();
        assert_eq!((st.misses, st.hits), (4, 0), "every grown round rebuilds");
        assert_eq!(st.build_tuples, 9 + 18 + 27 + 36);
    }

    #[test]
    fn a_claim_ahead_of_the_journals_end_invalidates_wholesale() {
        // A 256-slot first segment with 64-slot probe windows: rows spill
        // into the second segment while the first still takes claims, so
        // for a stretch new journal entries land *before* positions the
        // cached view was built from. Every reopen after new rows —
        // across that stretch as on either side of it — rebuilds from
        // position 0 and equals a cold build.
        let s = HashStore::with_first_segment(set_def(), vec![0], 256);
        let cache = IndexCache::new(1, usize::MAX);
        for round in 0..40 {
            for i in round * 30..(round + 1) * 30 {
                s.insert(Tuple::new(
                    TableId(0),
                    vec![Value::Int(i % 17), Value::Int(i)],
                ));
            }
            assert_eq!(
                *cache.open(0, 0, &s, None),
                cold(&s, 0),
                "round {round}: cached view diverged from the cold build"
            );
        }
        assert_ne!(s.index_stamp().expect("journaled").interior, 0);
        let st = cache.stats();
        assert_eq!((st.misses, st.hits), (40, 0), "{st:?}");
    }

    #[test]
    fn retain_invalidates_wholesale() {
        let s = store();
        for i in 0..50 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s, None);
        s.retain(&|t| t.int(0) % 2 == 0);
        let warm = cache.open(0, 0, &s, None);
        let st = cache.stats();
        assert_eq!(st.misses, 2, "tombstones changed — full rebuild");
        assert_eq!(*warm, cold(&s, 0));
    }

    #[test]
    fn compaction_epoch_invalidates_wholesale() {
        let s = store();
        for i in 0..50 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s, None);
        s.retain(&|t| t.int(0) < 10);
        assert!(s.maybe_compact(0.1), "compaction must run");
        let warm = cache.open(0, 0, &s, None);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(*warm, cold(&s, 0));
    }

    /// A journaled store whose journal walk, once `armed`, holds the
    /// first piece that walks it until `open` is set — or panics in it,
    /// when `panics` is set.
    struct Gated {
        inner: HashStore,
        armed: AtomicBool,
        open: AtomicBool,
        panics: AtomicBool,
        walking: AtomicUsize,
    }

    impl Gated {
        /// A store of `rows` rows, disarmed.
        fn new(rows: usize) -> Gated {
            let store = Gated {
                inner: HashStore::with_first_segment(set_def(), vec![0], 256),
                armed: AtomicBool::new(false),
                open: AtomicBool::new(false),
                panics: AtomicBool::new(false),
                walking: AtomicUsize::new(0),
            };
            for i in 0..rows as i64 {
                store.insert(Tuple::new(
                    TableId(0),
                    vec![Value::Int(i % 97), Value::Int(i)],
                ));
            }
            store
        }
    }

    impl TableStore for Gated {
        fn insert(&self, t: Tuple) -> crate::gamma::InsertOutcome {
            self.inner.insert(t)
        }
        fn contains(&self, t: &Tuple) -> bool {
            self.inner.contains(t)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
            self.inner.for_each(f)
        }
        fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
            self.inner.retain(keep)
        }
        fn index_stamp(&self) -> Option<IndexStamp> {
            self.inner.index_stamp()
        }
        fn for_each_journal_suffix(
            &self,
            lo: usize,
            hi: usize,
            f: &mut dyn FnMut(&Tuple),
        ) -> usize {
            // ord: AcqRel/Release/Acquire — the flags publish no data,
            // but pair up with the test thread's.
            if self.armed.swap(false, Ordering::AcqRel) {
                self.walking.fetch_add(1, Ordering::Release);
                assert!(
                    !self.panics.load(Ordering::Acquire),
                    "the gated walk panics"
                );
                while !self.open.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            self.inner.for_each_journal_suffix(lo, hi, f)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn racing_openers_build_without_waiting() {
        // The first opener's build is held inside its fanned-out journal
        // pass. A second opener of the same view, on another thread,
        // builds its own copy and returns while the gate is still shut:
        // it never blocks on the held build. Both views equal the cold
        // build, and the entry serves the next open.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::{Duration, Instant};
        for threads in [2, 4] {
            let rows = 3 * crate::gamma::MIN_PIECE;
            let store = Gated::new(rows);
            let (cache, pool) = (IndexCache::new(1, usize::MAX), ThreadPool::new(threads));
            let open = || cache.open_views(&[(0, 0, &store as &dyn TableStore)], Some(&pool));
            // A cache that made the second opener wait for the first
            // would hang here: past the deadline the gate opens anyway,
            // and the asserts below fail instead.
            let deadline = Instant::now() + Duration::from_secs(20);
            let until = |done: &dyn Fn() -> bool| {
                while !done() && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            };
            store.armed.store(true, Ordering::Release);
            let (first, second) = std::thread::scope(|s| {
                let first = s.spawn(open);
                until(&|| store.walking.load(Ordering::Acquire) > 0);
                let second = s.spawn(|| (open(), !store.open.load(Ordering::Acquire)));
                until(&|| second.is_finished());
                store.open.store(true, Ordering::Release);
                (first.join(), second.join())
            });
            let first = first.expect("first opener");
            let (second, shut) = second.expect("second opener");
            assert!(shut, "{threads} threads: the second opener waited");
            let want = cold(&store.inner, 0);
            assert_eq!(*first[0], want, "{threads} threads");
            assert_eq!(*second[0], want, "{threads} threads");
            let st = cache.stats();
            assert_eq!((st.misses, st.hits), (2, 0), "{threads} threads: {st:?}");
            assert_eq!(st.build_tuples, 2 * rows as u64);
            let third = open();
            assert!(Arc::ptr_eq(&third[0], &first[0]) || Arc::ptr_eq(&third[0], &second[0]));

            // A grown table whose rebuild panics in its walk leaves
            // nothing behind: the next open builds the grown table, and
            // the one after it is a hit.
            store.insert(Tuple::new(TableId(0), vec![Value::Int(-1), Value::Int(-1)]));
            store.panics.store(true, Ordering::Release);
            store.armed.store(true, Ordering::Release);
            assert!(catch_unwind(AssertUnwindSafe(open)).is_err());
            let rebuilt = open();
            assert_eq!(*rebuilt[0], cold(&store.inner, 0), "{threads} threads");
            assert!(Arc::ptr_eq(&open()[0], &rebuilt[0]));
            let st = cache.stats();
            assert_eq!((st.misses, st.hits), (3, 2), "{threads} threads: {st:?}");
        }
    }

    #[test]
    fn lru_evicts_down_to_budget_but_keeps_the_newest() {
        let s = store();
        for i in 0..200 {
            s.insert(kt(i, i, "v"));
        }
        // Budget of one byte: every insert evicts the other entry.
        let cache = IndexCache::new(1, 1);
        let _ = cache.open(0, 0, &s, None);
        let _ = cache.open(0, 1, &s, None);
        let m = cache.tables[0].lock();
        assert_eq!(m.len(), 1, "over budget — LRU evicted");
        assert!(m.contains_key(&1), "newest entry survives");
    }
}
