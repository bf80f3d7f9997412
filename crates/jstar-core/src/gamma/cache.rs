//! Generation-stamped cache of [`ColumnIndex`] column views — the
//! incremental-maintenance layer under the leapfrog join lowering.
//!
//! Without it a join walk rebuilds each probe table's sorted column view
//! from a full scan-and-sort of live Gamma on every open, so iterative
//! programs re-sort largely-unchanged tables step after step. This cache
//! keeps each view on its first open and stamps it with an
//! [`IndexStamp`]:
//!
//! * **generation** — the reservation table's claim-journal length at
//!   build time, clamped to the *stable prefix* (the longest prefix with
//!   no append still in flight — see
//!   [`super::reservation::ReservationTable::journal_stable_prefix`]).
//!   The journal is append-only, so a later open catches up by sorting
//!   only the suffix `[stamp.generation, now)` and two-way merging it
//!   into the cached flat arrays — O(new·log new) comparisons plus one
//!   linear copy, instead of O(live·log live).
//! * **epoch** — bumped by every quiescent table replacement
//!   (compaction, snapshot import). Journal positions do not survive a
//!   rebuild, so an epoch mismatch invalidates wholesale.
//! * **tombstones** — lifetime-hint `retain` kills tuples without
//!   touching the journal; a changed tombstone count also invalidates
//!   wholesale (hints run a handful of times per run).
//! * **interior** — a journal position counts through the table's
//!   segments in order, and an older segment goes on taking claims after
//!   a newer one exists, so a claim can land *before* positions already
//!   handed out. The stamp counts the entries ahead of the newest
//!   segment's; while that count stands still every new entry is at the
//!   end, and when it moves the positions have shifted: wholesale again.
//!   (A table still in its first segment — anything up to ~100k rows —
//!   has no interior.)
//!
//! [`IndexStamp::extends`] is that rule; the snapshot writer's section
//! cache ([`crate::persist::CheckpointWriter`]) reuses it unchanged.
//!
//! Catch-up preserves the cold-build contract exactly. A cold build
//! packs the journal in order and sorts each group by its rows' next
//! column, journal order breaking ties. Suffix tuples carry later
//! journal positions than every cached tuple, so merging each one into
//! its group by next-column value, **after** the cached rows with an
//! equal one ([`ColumnIndex::merge_suffix`]), reproduces the order a
//! cold rebuild over the longer journal would emit — new rows land
//! anywhere inside a group, not only at its end — and the same packed
//! mirrors, which the merge copies for cached rows and fills in for new
//! ones. Every built-in store keeps a claim journal; only custom stores
//! ([`super::StoreKind::Custom`]) report no stamp and stay on the cold
//! path.
//!
//! The LRU bound counts what a view owns
//! ([`ColumnIndex::approx_bytes`]): its six arrays. Tuple payloads
//! belong to the store and are not charged.
//!
//! Concurrency: one mutex per table guards that table's `field → entry`
//! map, and the build/catch-up runs *under* the lock — racing openers of
//! the same table serialize, and the loser gets a pure hit instead of
//! duplicating the sort. Openers race workers still appending to the
//! journal; the happens-before edge that makes the suffix walk sound is
//! the claim journal's own publish protocol (see CONCURRENCY.md
//! protocol 6).

use super::cursor::{Batch, ColumnIndex};
use super::TableStore;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Mutex, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

/// The validity stamp of a cached column view — see the module docs for
/// what each component invalidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStamp {
    /// Quiescent-replacement count of the backing table.
    pub epoch: u64,
    /// Claim-journal length (an entry *count*; in-flight appends make
    /// the usable bound smaller — the cache clamps via the suffix walk).
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
    /// positions it had then, so what was built from `[0,
    /// earlier.generation)` stands and the walk of `[earlier.generation,
    /// self.generation)` is exactly what is new.
    pub fn extends(&self, earlier: &IndexStamp) -> bool {
        self.epoch == earlier.epoch
            && self.tombstones == earlier.tombstones
            && self.interior == earlier.interior
            && self.generation >= earlier.generation
    }
}

/// Point-in-time counter snapshot — the source of
/// `RunReport::{index_cache_hits, index_cache_misses,
/// index_catchup_tuples, index_build_tuples}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Opens served from a cached entry (including after a catch-up).
    pub hits: u64,
    /// Opens that built from scratch (uncacheable store, empty slot,
    /// or wholesale invalidation).
    pub misses: u64,
    /// Tuples sorted+merged by journal-suffix catch-ups.
    pub catchup_tuples: u64,
    /// Tuples sorted by full cold builds.
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
    catchup_tuples: AtomicU64,
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
            catchup_tuples: AtomicU64::new(0),
            build_tuples: AtomicU64::new(0),
        }
    }

    /// Counter snapshot (monotone over the cache's lifetime).
    pub fn stats(&self) -> IndexCacheStats {
        // ord: Relaxed ×4 — statistics only.
        IndexCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            catchup_tuples: self.catchup_tuples.load(Ordering::Relaxed),
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
            // Cold path — a custom store without a claim journal.
            // ord: Relaxed ×2 — statistics only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.build_tuples
                .fetch_add(store.len() as u64, Ordering::Relaxed);
            return store.open_cursor(field);
        };
        let mut map = self.tables[table].lock();
        // ord: Relaxed — the LRU tick is advisory; the map mutex orders
        // every entry mutation.
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = map.get_mut(&field) {
            let mut valid = stamp.extends(&e.stamp);
            if valid && stamp.generation > e.stamp.generation {
                // Warm but stale: sort only the journal suffix and
                // merge it into the cached view — unless a worker claimed
                // ahead of the suffix while it was walked (the interior
                // only grows, so equal before and after is equal
                // throughout): the walk then read shifted positions and
                // is dropped for the cold build below.
                let (batch, covered) =
                    suffix_batch(store, field, e.stamp.generation, stamp.generation);
                valid = store.index_stamp().map(|s| s.interior) == Some(stamp.interior);
                if valid {
                    let n = batch.len();
                    if n > 0 {
                        e.index = Arc::new(e.index.merge_suffix(batch));
                        e.bytes = e.index.approx_bytes();
                    }
                    e.stamp.generation = covered;
                    // ord: Relaxed — statistic only.
                    self.catchup_tuples.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            if valid {
                e.last_used = tick;
                // ord: Relaxed — statistic only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.index);
            }
        }
        // Miss (no entry, or wholesale invalidation): full build off the
        // journal — the same walk a catch-up from generation 0 runs.
        let (batch, covered) = suffix_batch(store, field, 0, stamp.generation);
        let n = batch.len();
        let index = match ColumnIndex::try_from_batch(batch) {
            Ok(idx) => Arc::new(idx),
            // Unreachable by construction (the build sorts before it
            // cuts), but a correctness bug here must degrade to the
            // store's own cold build, not corrupt seeks.
            Err(_) => store.open_cursor(field),
        };
        // ord: Relaxed ×2 — statistics only.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_tuples.fetch_add(n as u64, Ordering::Relaxed);
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
}

/// The live tuples at journal positions `[lo, hi)` of `store`, packed
/// in journal order into a [`Batch`] keyed on `field`, plus the stable
/// bound actually covered (`<= hi` — in-flight appends clamp it).
fn suffix_batch(store: &dyn TableStore, field: usize, lo: usize, hi: usize) -> (Batch, usize) {
    let mut batch = Batch::new(field, hi.saturating_sub(lo));
    let covered = store.for_each_journal_suffix(lo, hi, &mut |t| batch.push(t));
    (batch, covered)
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
        assert_eq!(st.catchup_tuples, 0);
    }

    #[test]
    fn catch_up_sorts_only_the_suffix_and_matches_cold() {
        let s = store();
        // Descending keys: the suffix sort and the merge both have real
        // work to do (new values interleave *below* the cached ones).
        for i in 0..80 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s);
        for i in 80..100 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let warm = cache.open(0, 0, &s);
        let st = cache.stats();
        assert_eq!(st.catchup_tuples, 20, "only the suffix was sorted");
        assert_eq!(st.build_tuples, 80);
        let cold = s.open_cursor(0);
        assert_eq!(warm, cold, "caught-up == cold rebuild");
    }

    #[test]
    fn cached_index_equals_cold_build_after_every_catch_up() {
        // The reference is the store's own cold `open_cursor` on the
        // same store, compared on every flat array. Field 1 repeats
        // (i % 7), so every round's suffix lands new tuples *inside*
        // cached groups as well as between them — group-internal order
        // (next column, then journal order) is part of the contract.
        // Once with a string
        // column (dense keys, no cells) and once all-integer (cells
        // merged slice by slice).
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
                    cached,
                    s.open_cursor(1),
                    "round {round}: cached view diverged from the cold build"
                );
                assert_eq!(cached.cells.is_some(), packed);
                assert!(cached.int_keys.is_some());
            }
            let st = cache.stats();
            assert_eq!((st.misses, st.hits), (1, 4), "one build, four catch-ups");
            assert_eq!(st.catchup_tuples, 120);
        }
    }

    #[test]
    fn catch_up_merges_rows_inside_groups_below_cached_next_values() {
        // Groups x = 0, 1, 2 are ordered by y (their next column). Each
        // round's rows carry y values *below* every one already cached
        // in their group, and one above: the merge must place them
        // inside the cached groups, not append them.
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
                cached,
                s.open_cursor(0),
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
        assert_eq!((st.misses, st.hits), (1, 3), "one build, three catch-ups");
        assert_eq!(st.catchup_tuples, 27);
    }

    #[test]
    fn a_claim_ahead_of_the_journals_end_invalidates_wholesale() {
        // A 256-slot first segment with 64-slot probe windows: rows spill
        // into the second segment while the first still takes claims, so
        // for a stretch new journal entries land *before* positions the
        // cached view was built from. Those opens rebuild; the ones on
        // either side of the stretch catch up.
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
                cache.open(0, 0, &s),
                s.open_cursor(0),
                "round {round}: cached view diverged from the cold build"
            );
        }
        assert_ne!(s.index_stamp().expect("journaled").interior, 0);
        let st = cache.stats();
        assert!((2..30).contains(&st.misses), "{st:?}");
        assert_eq!(st.misses + st.hits, 40);
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
        assert_eq!(warm, s.open_cursor(0));
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
        assert_eq!(warm, s.open_cursor(0));
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
