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
//! sorted and cut into groups ([`super::cursor::build_views`]). Every
//! built-in store keeps a claim journal; only custom stores
//! ([`super::StoreKind::Custom`]) report no stamp, and their views are
//! built over [`super::TableStore::for_each`], as one piece, on every
//! open and never cached. One open asks for every view a walk needs at
//! once ([`super::Gamma::open_views`]): the builds its misses need run
//! in one pooled phase, with the join rule's root view beside them.
//!
//! The LRU bound counts what a view owns
//! ([`ColumnIndex::approx_bytes`]): its six arrays. Tuple payloads
//! belong to the store and are not charged.
//!
//! Concurrency: one mutex per table guards that table's `field → entry`
//! map, and is held only to look an entry up and to change it — never
//! while a view is built. A build on the pool helps run whatever jobs
//! the pool holds, and one of them may open a view itself; no thread
//! ever holds a table's lock while it runs one. Racing openers still
//! share one sort: the opener that misses *claims* the entry — marks it
//! in flight, with its stamp and a build number — before it unlocks and
//! builds, and publishes the view into the entry when done. An opener
//! that finds the entry in flight for the stamp it wants waits on the
//! table's condition variable for that build and gets its view, counted
//! as a hit (and in `waits`) — but only after its own claims are
//! published, and only if its thread held no claim when the open began:
//! a thread that does (a pool job it runs while helping its own build
//! opens a view) builds its own copy, uncached. So a waiter holds no
//! claim, every claim holder runs to its publish without waiting on
//! anyone, and no cycle of waits can form — even when a pool job run by
//! a helping builder opens the very view being built.
//! A build that panics withdraws its claims, and their waiters open
//! again. Openers race workers still appending to the journal; the
//! happens-before edge that makes the journal walk sound is the claim
//! journal's own publish protocol (see CONCURRENCY.md protocol 6).

use super::cursor::{build_views, ColumnIndex, Source};
use super::TableStore;
use crate::tuple::Tuple;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Condvar, Mutex, Ordering};
use jstar_pool::ThreadPool;
use std::cell::Cell;
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
    /// Opens that found the view they asked for being built by another
    /// opener and waited for it (counted as hits once served).
    pub waits: u64,
}

struct CacheEntry {
    /// The view, or `None` while the build that claimed the entry is in
    /// flight.
    index: Option<Arc<ColumnIndex>>,
    stamp: IndexStamp,
    /// The build that made the entry, or is making it: a waiter takes
    /// the view of the build it waited for and no other.
    build: u64,
    last_used: u64,
    bytes: usize,
}

/// One table's `field → entry` map, and the condition an opener waiting
/// for another's build sleeps on.
struct Table {
    map: Mutex<HashMap<usize, CacheEntry>>,
    built: Condvar,
}

/// Per-[`super::Gamma`] cache: one `field → entry` map per table store.
pub struct IndexCache {
    max_bytes_per_table: usize,
    tables: Vec<Table>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    build_tuples: AtomicU64,
    waits: AtomicU64,
}

/// Per-table byte bound on cached column views; least-recently-used
/// entries are evicted past it (the most recently built view always
/// survives).
pub const DEFAULT_INDEX_CACHE_MAX_BYTES: usize = 64 << 20;

thread_local! {
    /// Builds this thread has claimed and not yet published: while it
    /// holds one, it waits for no other opener's build (module docs).
    static CLAIMED: Cell<usize> = const { Cell::new(0) };
}

/// How one open gets one view.
enum Claim {
    /// Served from the cache.
    Hit(Arc<ColumnIndex>),
    /// Another opener's build of this very table state is in flight:
    /// wait for that build once this open's own are published.
    Wait(u64),
    /// This open builds it — off the journal up to the stamp's
    /// generation, or over `for_each` without a stamp — and publishes
    /// it under the build number when it claimed the entry.
    Build(Option<IndexStamp>, Option<u64>),
    /// The same column as an earlier one of this open.
    Same(usize),
}

/// The builds one open has claimed and not yet published. Dropped
/// early — a build that panicked — it withdraws their entries, so a
/// waiter builds for itself instead of sleeping forever.
struct Claimed<'c> {
    cache: &'c IndexCache,
    builds: Vec<(usize, usize, u64)>,
}

impl Claimed<'_> {
    fn push(&mut self, table: usize, field: usize, build: u64) {
        CLAIMED.with(|c| c.set(c.get() + 1));
        self.builds.push((table, field, build));
    }

    /// Publishes `index` for `build`: the entry is the view's from now
    /// on, unless a newer claim has taken it meanwhile.
    fn publish(&mut self, build: u64, stamp: IndexStamp, index: &Arc<ColumnIndex>) {
        let Some(at) = self.builds.iter().position(|&(_, _, b)| b == build) else {
            return;
        };
        let (table, field, _) = self.builds.swap_remove(at);
        CLAIMED.with(|c| c.set(c.get() - 1));
        let cache = self.cache;
        let table = &cache.tables[table];
        let mut map = table.map.lock();
        let tick = cache.tick();
        if let Some(e) = map.get_mut(&field).filter(|e| e.build == build) {
            (e.index, e.stamp) = (Some(Arc::clone(index)), stamp);
            (e.last_used, e.bytes) = (tick, index.approx_bytes());
            evict_over_budget(&mut map, cache.max_bytes_per_table);
        }
        table.built.notify_all();
    }
}

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        for &(table, field, build) in &self.builds {
            CLAIMED.with(|c| c.set(c.get() - 1));
            let table = &self.cache.tables[table];
            let mut map = table.map.lock();
            if map.get(&field).is_some_and(|e| e.build == build) {
                map.remove(&field);
            }
            table.built.notify_all();
        }
    }
}

impl IndexCache {
    pub(super) fn new(n_tables: usize, max_bytes: usize) -> IndexCache {
        IndexCache {
            max_bytes_per_table: max_bytes,
            tables: (0..n_tables)
                .map(|_| Table {
                    map: Mutex::new(HashMap::new()),
                    built: Condvar::new(),
                })
                .collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_tuples: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Counter snapshot (monotone over the cache's lifetime).
    pub fn stats(&self) -> IndexCacheStats {
        // ord: Relaxed ×4 — statistics only.
        IndexCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_tuples: self.build_tuples.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
        }
    }

    /// The open path behind [`super::Gamma::open_cursor`]: one view,
    /// served straight from its entry on a hit, built as one piece
    /// otherwise.
    pub(super) fn open(
        &self,
        table: usize,
        field: usize,
        store: &dyn TableStore,
    ) -> Arc<ColumnIndex> {
        let stamp = store.index_stamp();
        if let Some(view) =
            stamp.and_then(|s| self.hit(&mut self.tables[table].map.lock(), field, s))
        {
            return view;
        }
        let (_, mut views) = self.open_views(None, &[(table, field, store)], None);
        views.swap_remove(0)
    }

    /// The view of `field` when its entry holds one built under `stamp`,
    /// counted as a hit.
    fn hit(
        &self,
        map: &mut HashMap<usize, CacheEntry>,
        field: usize,
        stamp: IndexStamp,
    ) -> Option<Arc<ColumnIndex>> {
        let e = map.get_mut(&field).filter(|e| e.stamp == stamp)?;
        let index = Arc::clone(e.index.as_ref()?);
        e.last_used = self.tick();
        // ord: Relaxed — statistic only.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(index)
    }

    /// The open path behind [`super::Gamma::open_views`]: the view of
    /// each `(table, field, store)` column, served or built, and the
    /// view of `root`'s rows, never cached. Every build this open claims
    /// runs with the root's in one pooled phase
    /// ([`super::cursor::build_views`]), outside the table locks; the
    /// views other openers are building are waited for after that.
    pub(super) fn open_views(
        &self,
        root: Option<(&[&Tuple], usize)>,
        columns: &[(usize, usize, &dyn TableStore)],
        pool: Option<&ThreadPool>,
    ) -> (Option<ColumnIndex>, Vec<Arc<ColumnIndex>>) {
        let may_wait = CLAIMED.with(Cell::get) == 0;
        let mut claimed = Claimed {
            cache: self,
            builds: Vec::new(),
        };
        let claims: Vec<Claim> = (columns.iter().enumerate())
            .map(|(i, &(table, field, store))| {
                match columns[..i]
                    .iter()
                    .position(|&(t, f, _)| (t, f) == (table, field))
                {
                    Some(j) => {
                        // ord: Relaxed — statistic only. Served by the
                        // earlier column's view, as a later open would be.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Claim::Same(j)
                    }
                    None => self.claim(table, field, store, may_wait, &mut claimed),
                }
            })
            .collect();
        let misses = claims
            .iter()
            .zip(columns)
            .filter_map(|(claim, &(_, field, store))| {
                let Claim::Build(stamp, _) = claim else {
                    return None;
                };
                let source = stamp.map_or(Source::Pass(store), |s| {
                    Source::Journal(store, s.generation)
                });
                Some((source, field))
            });
        let root_build = root.map(|(rows, field)| (Source::Rows(rows), field));
        let builds: Vec<(Source<'_>, usize)> = root_build.into_iter().chain(misses).collect();
        let mut built = build_views(&builds, pool).into_iter();
        let root = root.and_then(|_| built.next()).map(|(view, _)| view);
        let mut views: Vec<Option<Arc<ColumnIndex>>> = Vec::with_capacity(columns.len());
        for claim in &claims {
            views.push(match claim {
                Claim::Hit(index) => Some(Arc::clone(index)),
                Claim::Build(stamp, build) => built.next().map(|(view, covered)| {
                    self.count_build(view.rows.len());
                    let view = Arc::new(view);
                    if let (Some(stamp), Some(build)) = (stamp, build) {
                        let stamp = IndexStamp {
                            generation: covered,
                            ..*stamp
                        };
                        claimed.publish(*build, stamp, &view);
                    }
                    view
                }),
                Claim::Wait(_) | Claim::Same(_) => None,
            });
        }
        drop(claimed);
        let mut out: Vec<Arc<ColumnIndex>> = Vec::with_capacity(columns.len());
        for ((claim, view), &(table, field, store)) in claims.iter().zip(views).zip(columns) {
            let view = match (claim, view) {
                (_, Some(view)) => view,
                (Claim::Same(j), None) => Arc::clone(&out[*j]),
                (Claim::Wait(build), None) => match self.wait(table, field, *build) {
                    Some(view) => view,
                    // The build was withdrawn or overtaken: open anew.
                    None => self
                        .open_views(None, &[(table, field, store)], pool)
                        .1
                        .swap_remove(0),
                },
                (_, None) => unreachable!("every claimed build is built"),
            };
            out.push(view);
        }
        (root, out)
    }

    /// Claims the view of `field` over `store`: a hit while the entry's
    /// stamp equals the store's; a wait when another open is building
    /// that stamp and this thread holds no build of its own (`may_wait`);
    /// a build otherwise — under an entry this open claims, unless
    /// another open's build of the stamp is in flight.
    fn claim(
        &self,
        table: usize,
        field: usize,
        store: &dyn TableStore,
        may_wait: bool,
        claimed: &mut Claimed<'_>,
    ) -> Claim {
        let Some(stamp) = store.index_stamp() else {
            // A custom store without a claim journal: built every open.
            return Claim::Build(None, None);
        };
        let mut map = self.tables[table].map.lock();
        if let Some(index) = self.hit(&mut map, field, stamp) {
            return Claim::Hit(index);
        }
        if let Some(e) = map.get(&field).filter(|e| e.stamp == stamp) {
            // Equal stamps and no view: another open's build is in flight.
            if !may_wait {
                return Claim::Build(Some(stamp), None);
            }
            // ord: Relaxed — statistic only.
            self.waits.fetch_add(1, Ordering::Relaxed);
            return Claim::Wait(e.build);
        }
        let tick = self.tick();
        // Miss (no entry, or the stamp moved): the cold build off the
        // journal is this open's. It is stamped, when published, with
        // the bound the walk covered — an append still in flight leaves
        // the stamp behind the store's, so the next open rebuilds and
        // reads it.
        let entry = CacheEntry {
            index: None,
            stamp,
            build: tick,
            last_used: tick,
            bytes: 0,
        };
        map.insert(field, entry);
        claimed.push(table, field, tick);
        Claim::Build(Some(stamp), Some(tick))
    }

    /// Waits for `build` of `field`'s view to be published; `None` when
    /// it was withdrawn, or a newer claim took its entry.
    fn wait(&self, table: usize, field: usize, build: u64) -> Option<Arc<ColumnIndex>> {
        let table = &self.tables[table];
        let mut map = table.map.lock();
        loop {
            match map.get(&field) {
                Some(e) if e.build == build => {
                    if let Some(index) = &e.index {
                        // ord: Relaxed — statistic only.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(Arc::clone(index));
                    }
                }
                _ => return None,
            }
            table.built.wait(&mut map);
        }
    }

    /// The next LRU tick, which also numbers builds.
    fn tick(&self) -> u64 {
        // ord: Relaxed — the tick is advisory and build numbers need
        // only be distinct; the map mutex orders every entry mutation.
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
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
/// that was just built would turn every open into a rebuild). Entries
/// whose build is in flight hold no bytes and are never evicted.
fn evict_over_budget(map: &mut HashMap<usize, CacheEntry>, max_bytes: usize) {
    loop {
        let views = map.iter().filter(|(_, e)| e.index.is_some());
        let (count, total) = views.fold((0, 0), |(n, b), (_, e)| (n + 1, b + e.bytes));
        if count <= 1 || total <= max_bytes {
            return;
        }
        let views = map.iter().filter(|(_, e)| e.index.is_some());
        let Some(&victim) = views.min_by_key(|(_, e)| e.last_used).map(|(f, _)| f) else {
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

    /// A journaled store whose journal walk, once `armed`, holds every
    /// piece that walks it until `open` is set.
    struct Gated {
        inner: HashStore,
        armed: std::sync::atomic::AtomicBool,
        open: std::sync::atomic::AtomicBool,
        walking: std::sync::atomic::AtomicUsize,
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
            use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
            // ord: Relaxed — armed before the openers' threads spawn;
            // Release/Acquire — the flags publish no data, but pair up.
            if self.armed.load(Relaxed) {
                self.walking.fetch_add(1, Release);
                while !self.open.load(Acquire) {
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
    fn racing_openers_share_one_pooled_build() {
        // The first opener's build is held inside its fanned-out journal
        // pass until the second opener has found it in flight and is
        // waiting for it: one build, one view, and both openers hold it.
        use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
        for threads in [2, 4] {
            let store = Gated {
                inner: HashStore::with_first_segment(set_def(), vec![0], 256),
                armed: false.into(),
                open: false.into(),
                walking: 0.into(),
            };
            let rows = 3 * crate::gamma::MIN_PIECE;
            for i in 0..rows as i64 {
                store.insert(Tuple::new(
                    TableId(0),
                    vec![Value::Int(i % 97), Value::Int(i)],
                ));
            }
            // ord: Relaxed — the spawns below order it; Acquire/Release
            // pair with the gated walk's.
            store.armed.store(true, Relaxed);
            let (cache, pool) = (
                IndexCache::new(1, usize::MAX),
                jstar_pool::ThreadPool::new(threads),
            );
            let open = || {
                cache
                    .open_views(None, &[(0, 0, &store as &dyn TableStore)], Some(&pool))
                    .1
            };
            // A cache that let the second opener build too would never
            // count a wait: past the deadline the gate opens anyway, and
            // the counts below fail instead of the test hanging.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            let until = |done: &dyn Fn() -> bool| {
                while !done() && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            };
            let (first, second) = std::thread::scope(|s| {
                let first = s.spawn(open);
                until(&|| store.walking.load(Acquire) > 0);
                let second = s.spawn(open);
                until(&|| cache.stats().waits > 0);
                store.open.store(true, Release);
                (first.join(), second.join())
            });
            let (first, second) = (first.expect("first opener"), second.expect("second opener"));
            assert!(
                Arc::ptr_eq(&first[0], &second[0]),
                "{threads} threads: one view"
            );
            let st = cache.stats();
            assert_eq!(
                (st.misses, st.hits, st.waits),
                (1, 1, 1),
                "{threads} threads: {st:?}"
            );
            assert_eq!(st.build_tuples, rows as u64);
            assert_eq!(*first[0], cold(&store.inner, 0));
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
        let _ = cache.open(0, 0, &s);
        let _ = cache.open(0, 1, &s);
        let m = cache.tables[0].map.lock();
        assert_eq!(m.len(), 1, "over budget — LRU evicted");
        assert!(m.contains_key(&1), "newest entry survives");
    }
}
