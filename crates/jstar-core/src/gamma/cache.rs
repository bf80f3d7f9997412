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
//! walk of the journal from position 0 packed into a [`Batch`], one sort
//! and one cut ([`ColumnIndex::from_batch`]). Every built-in store keeps
//! a claim journal; only custom stores ([`super::StoreKind::Custom`])
//! report no stamp, and their views are built over
//! [`super::TableStore::for_each`] on every open and never cached.
//!
//! The LRU bound counts what a view owns
//! ([`ColumnIndex::approx_bytes`]): its six arrays. Tuple payloads
//! belong to the store and are not charged.
//!
//! Concurrency: one mutex per table guards that table's `field → entry`
//! map, and the build runs *under* the lock — racing openers of the same
//! table serialize, and the loser gets a pure hit instead of duplicating
//! the sort. Openers race workers still appending to the journal; the
//! happens-before edge that makes the journal walk sound is the claim
//! journal's own publish protocol (see CONCURRENCY.md protocol 6).

use super::cursor::{Batch, ColumnIndex};
use super::TableStore;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Mutex, Ordering};
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
    /// Tuples sorted by those builds.
    pub build_tuples: u64,
}

struct CacheEntry {
    index: Arc<ColumnIndex>,
    stamp: IndexStamp,
    last_used: u64,
    bytes: usize,
}

/// Per-[`super::Gamma`] cache: one `field → entry` map per table store.
pub struct IndexCache {
    max_bytes_per_table: usize,
    tables: Vec<Mutex<HashMap<usize, CacheEntry>>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    build_tuples: AtomicU64,
}

/// Per-table byte bound on cached column views; least-recently-used
/// entries are evicted past it (the most recently built view always
/// survives).
pub const DEFAULT_INDEX_CACHE_MAX_BYTES: usize = 64 << 20;

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

    /// The open path behind [`super::Gamma::open_cursor`].
    pub(super) fn open(
        &self,
        table: usize,
        field: usize,
        store: &dyn TableStore,
    ) -> Arc<ColumnIndex> {
        let Some(stamp) = store.index_stamp() else {
            // A custom store without a claim journal: built every open.
            self.count_build(store.len());
            return Arc::new(ColumnIndex::build(field, &mut |emit| {
                store.for_each(&mut |t| {
                    emit(t);
                    true
                });
            }));
        };
        let mut map = self.tables[table].lock();
        // ord: Relaxed — the LRU tick is advisory; the map mutex orders
        // every entry mutation.
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = map.get_mut(&field).filter(|e| e.stamp == stamp) {
            e.last_used = tick;
            // ord: Relaxed — statistic only.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&e.index);
        }
        // Miss (no entry, or the stamp moved): the cold build off the
        // journal, stamped with the bound the walk covered — an append
        // still in flight leaves the stamp behind the store's, so the
        // next open rebuilds and reads it.
        let mut batch = Batch::new(field, stamp.generation);
        let covered = store.for_each_journal_suffix(0, stamp.generation, &mut |t| batch.push(t));
        self.count_build(batch.len());
        let index = Arc::new(ColumnIndex::from_batch(batch));
        let bytes = index.approx_bytes();
        map.insert(
            field,
            CacheEntry {
                index: Arc::clone(&index),
                stamp: IndexStamp {
                    generation: covered,
                    ..stamp
                },
                last_used: tick,
                bytes,
            },
        );
        evict_over_budget(&mut map, self.max_bytes_per_table);
        index
    }

    /// Counts one build of `tuples` rows.
    fn count_build(&self, tuples: usize) {
        // ord: Relaxed ×2 — statistics only.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_tuples
            .fetch_add(tuples as u64, Ordering::Relaxed);
    }
}

/// Evicts least-recently-used entries until the table's total is within
/// `max_bytes` (always keeping at least one entry — evicting the view
/// that was just built would turn every open into a rebuild).
fn evict_over_budget(map: &mut HashMap<usize, CacheEntry>, max_bytes: usize) {
    loop {
        if map.len() <= 1 {
            return;
        }
        let total: usize = map.values().map(|e| e.bytes).sum();
        if total <= max_bytes {
            return;
        }
        let Some(&victim) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(f, _)| f) else {
            return;
        };
        map.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::{keyed_def, kt, set_def};
    use crate::gamma::HashStore;
    use crate::schema::TableId;
    use crate::tuple::Tuple;
    use crate::value::Value;

    /// A 256-slot first segment holds every row these tests insert, so
    /// journal positions stay append-only (under `model-check` too,
    /// whose floor is 16 slots).
    fn store() -> HashStore {
        HashStore::with_first_segment(keyed_def(), vec![0], 256)
    }

    /// The view of `field` over one `for_each` pass of `s` — what a
    /// cold build of the table as it stands is.
    fn cold(s: &HashStore, field: usize) -> ColumnIndex {
        ColumnIndex::build(field, &mut |emit| {
            s.for_each(&mut |t| {
                emit(t);
                true
            });
        })
    }

    #[test]
    fn second_open_is_a_pure_hit() {
        let s = store();
        for i in 0..100 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let a = cache.open(0, 0, &s);
        let b = cache.open(0, 0, &s);
        assert!(Arc::ptr_eq(&a, &b), "warm open returns the cached Arc");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.build_tuples, 100);
    }

    #[test]
    fn catch_up_sorts_only_the_suffix_and_matches_cold() {
        // Descending keys: the 20 new rows sort *below* the 80 cached
        // ones. The reopen is a miss that sorts all 100 rows again —
        // never only the 20 — and equals a cold build of the table.
        let s = store();
        for i in 0..80 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let first = cache.open(0, 0, &s);
        for i in 80..100 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let reopened = cache.open(0, 0, &s);
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
    fn cached_index_equals_cold_build_after_every_catch_up() {
        // The reference is a cold build over the same store's
        // `for_each`, compared on every flat array. Field 1 repeats
        // (i % 7), so every round's rows land inside the groups of the
        // round before as well as between them — group-internal order
        // (next column, then journal order) is part of the contract.
        // Once with a string column (dense keys, no cells) and once
        // all-integer (cells). Each round's first open rebuilds; its
        // second, with nothing new, is a hit on the same view.
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
                let cached = cache.open(0, 1, &s);
                assert_eq!(
                    *cached,
                    cold(&s, 1),
                    "round {round}: cached view diverged from the cold build"
                );
                assert!(Arc::ptr_eq(&cached, &cache.open(0, 1, &s)));
                assert_eq!(cached.cells.is_some(), packed);
                assert!(cached.int_keys.is_some());
            }
            let st = cache.stats();
            assert_eq!((st.misses, st.hits), (5, 5), "a build and a hit a round");
            assert_eq!(st.build_tuples, 30 + 60 + 90 + 120 + 150);
        }
    }

    #[test]
    fn catch_up_merges_rows_inside_groups_below_cached_next_values() {
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
            let cached = cache.open(0, 0, &s);
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
                *cache.open(0, 0, &s),
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
        let _ = cache.open(0, 0, &s);
        s.retain(&|t| t.int(0) % 2 == 0);
        let warm = cache.open(0, 0, &s);
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
        let _ = cache.open(0, 0, &s);
        s.retain(&|t| t.int(0) < 10);
        assert!(s.maybe_compact(0.1), "compaction must run");
        let warm = cache.open(0, 0, &s);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(*warm, cold(&s, 0));
    }

    #[test]
    fn lru_evicts_down_to_budget_but_keeps_the_newest() {
        let s = store();
        for i in 0..200 {
            s.insert(kt(i, i, "v"));
        }
        // Budget of one byte: every insert evicts the other entry.
        let cache = IndexCache::new(1, 1);
        let _ = cache.open(0, 0, &s);
        let _ = cache.open(0, 1, &s);
        let m = cache.tables[0].lock();
        assert_eq!(m.len(), 1, "over budget — LRU evicted");
        assert!(m.contains_key(&1), "newest entry survives");
    }
}
