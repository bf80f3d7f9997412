//! The Delta set — JStar's causal priority queue (§5).
//!
//! "The Delta set is organised as a single tree, containing tuples from many
//! tables, sorted lexicographically by the orderby lists of those tables."
//! Here that tree is one ordered map from [`OrderKey`] to the *set* of
//! tuples queued at that key (duplicates are removed on insert — "a
//! priority-queue is not sufficient, because we also need to remove
//! duplicate tuples as they are inserted"). The key's own order is the
//! lexicographic one, a strict prefix first, so the map's first entry is
//! the minimal class: all its tuples form one equivalence class and may
//! execute in parallel.
//!
//! Two front-ends share the map:
//!
//! * [`DeltaTree`] — the single-threaded map used directly by the
//!   sequential engine and by the coordinator of the parallel engine;
//! * [`ShardedInbox`] — per-worker staging buffers that worker threads
//!   append freshly produced tuples into during a parallel step. Each pool
//!   worker owns one shard (routed by its stable
//!   [`jstar_pool::ThreadPool::current_worker_index`]), so staging a tuple
//!   is an uncontended `Vec::push`; the coordinator swaps all shards out in
//!   bulk, one epoch at a time ([`ShardedInbox::swap_epoch`]). The Law of
//!   Causality guarantees staged tuples never belong to the *current* step,
//!   so draining at the step boundary is semantically exact. (The paper's
//!   implementation used one `ConcurrentSkipListMap` keyed by this order,
//!   which all workers mutate concurrently; the sharded design removes that
//!   contention point entirely — the predecessor of this design, a single
//!   shared MPMC `SegQueue`, serialised every worker `put` on one queue
//!   head.)

use crate::fxhash::{FxBuildHasher, FxHasher};
use crate::orderby::OrderKey;
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicUsize, Mutex, Ordering};
use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hasher;

/// Tuple sets throughout the Delta structures use the crate's Fx hasher:
/// dedup hashes every staged tuple, so SipHash setup cost per insert is
/// pure hot-path overhead (candidates are verified by `Eq` regardless).
type TupleSet = HashSet<Tuple, FxBuildHasher>;

/// The single-threaded Delta set: every queued class, keyed and ordered
/// by its [`OrderKey`].
#[derive(Debug, Default)]
pub struct DeltaTree {
    classes: BTreeMap<OrderKey, TupleSet>,
    len: usize,
}

impl DeltaTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a tuple at its order key. Returns false when an identical
    /// tuple already waits at the same position (set semantics).
    pub fn insert(&mut self, key: &OrderKey, tuple: Tuple) -> bool {
        // One descent when the class exists — the common case on a hot
        // workload (Dijkstra re-putting Estimates at an existing
        // distance) — and the key is cloned only to open a new class.
        let fresh = match self.classes.get_mut(key) {
            Some(class) => class.insert(tuple),
            None => {
                self.classes
                    .insert(key.clone(), TupleSet::from_iter([tuple]));
                true
            }
        };
        self.len += fresh as usize;
        fresh
    }

    /// True if the identical tuple is already queued at `key`.
    pub fn contains(&self, key: &OrderKey, tuple: &Tuple) -> bool {
        self.classes.get(key).is_some_and(|c| c.contains(tuple))
    }

    /// Removes and returns the minimal equivalence class: the set of all
    /// queued tuples with the smallest order key, together with that key.
    ///
    /// This is the unit of parallelism of the paper's "simple all-minimums
    /// parallelisation strategy".
    pub fn pop_min_class(&mut self) -> Option<(OrderKey, Vec<Tuple>)> {
        let (key, class) = self.classes.pop_first()?;
        self.len -= class.len();
        Some((key, class.into_iter().collect()))
    }

    /// Visits every queued tuple non-destructively, in no particular
    /// order — the snapshot writer's walk. Order keys are not reported:
    /// they are pure functions of the tuple fields, so a restore
    /// recomputes them by re-injecting through the normal put path.
    pub fn for_each_pending(&self, f: &mut dyn FnMut(&Tuple)) {
        self.classes.values().flatten().for_each(f);
    }

    /// Number of queued tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Merges pre-partitioned staged runs into the map, the per-tuple
    /// work (key comparison, set insertion) parallelised on `pool` when
    /// the batch is large enough to pay for fork/join.
    ///
    /// Each partition holds complete key-prefix groups (the
    /// [`ShardedInbox`] bins by prefix at push time, so two entries with
    /// the same order key can never sit in different partitions). Pool
    /// workers build one map of classes per partition; the coordinator
    /// then moves each built class in whole when the map does not queue
    /// its key yet, and otherwise inserts the class's tuples one by one.
    /// Below `seq_threshold` staged tuples (or without a pool, or with a
    /// single busy partition) the sequential insert loop runs instead.
    ///
    /// The resulting contents — and therefore the
    /// [`DeltaTree::pop_min_class`] sequence — are identical to inserting
    /// every `(key, tuple)` pair sequentially: the map is a canonical
    /// set keyed by position, so the merge order cannot be observed.
    ///
    /// `inserted_by_table[ti]` is incremented once per tuple of table
    /// `ti` actually inserted (duplicates dropped, exactly as
    /// [`DeltaTree::insert`] reports them); returns the total inserted.
    pub fn merge_partitioned(
        &mut self,
        partitions: &mut [Vec<(OrderKey, Tuple)>],
        pool: Option<&ThreadPool>,
        inserted_by_table: &mut [u64],
        seq_threshold: usize,
    ) -> usize {
        let total: usize = partitions.iter().map(Vec::len).sum();
        let busy: Vec<usize> = (0..partitions.len())
            .filter(|&i| !partitions[i].is_empty())
            .collect();
        let pool =
            pool.filter(|p| total >= seq_threshold.max(1) && busy.len() > 1 && p.num_threads() > 1);
        let Some(pool) = pool else {
            let mut inserted = 0usize;
            for part in partitions.iter_mut() {
                inserted += self.insert_run(part, inserted_by_table);
            }
            return inserted;
        };
        let n_tables = inserted_by_table.len();
        let tasks: Vec<_> = busy
            .iter()
            .map(|&i| {
                let mut run = std::mem::take(&mut partitions[i]);
                // One partition's classes, built on a pool worker with no
                // access to the main map, with fresh inserts per table.
                move || {
                    let mut tree = DeltaTree::new();
                    let mut per_table = vec![0u64; n_tables];
                    tree.insert_run(&mut run, &mut per_table);
                    (tree, per_table, run)
                }
            })
            .collect();
        let builts = jstar_pool::parallel_tasks(pool, tasks);
        let mut inserted = 0usize;
        for (i, (tree, per_table, run)) in busy.into_iter().zip(builts) {
            inserted += tree.len;
            for (ti, c) in per_table.iter().enumerate() {
                inserted_by_table[ti] += c;
            }
            for (key, class) in tree.classes {
                match self.classes.entry(key) {
                    Entry::Vacant(e) => {
                        e.insert(class);
                    }
                    Entry::Occupied(mut e) => {
                        let queued = e.get_mut();
                        for t in class {
                            let ti = t.table().index();
                            // Tuples the map already queues at the same
                            // key are duplicates after all: take their
                            // counts back.
                            if !queued.insert(t) {
                                inserted_by_table[ti] -= 1;
                                inserted -= 1;
                            }
                        }
                    }
                }
            }
            // Hand the emptied run buffer back so staging allocations
            // survive the round trip: the next swap steals it into a
            // shard bin instead of re-growing it from zero.
            partitions[i] = run;
        }
        self.len += inserted;
        inserted
    }

    /// The sequential merge: drains one run into the map, counting
    /// fresh inserts per table. Each entry's owned key moves into the
    /// map when it opens a class, and is dropped when the class exists.
    fn insert_run(
        &mut self,
        run: &mut Vec<(OrderKey, Tuple)>,
        inserted_by_table: &mut [u64],
    ) -> usize {
        let mut inserted = 0usize;
        for (key, t) in run.drain(..) {
            let ti = t.table().index();
            if self.classes.entry(key).or_default().insert(t) {
                inserted_by_table[ti] += 1;
                inserted += 1;
            }
        }
        self.len += inserted;
        inserted
    }

    #[cfg(test)]
    fn deep_count(&self) -> usize {
        self.classes.values().map(TupleSet::len).sum()
    }
}

/// One staging shard. Padded to its own cache lines so two workers
/// appending to neighbouring shards never false-share. Each shard holds
/// one buffer per key-prefix partition, so binning happens at push time
/// on the owning worker instead of in a coordinator pass.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    bins: Mutex<Vec<Vec<(OrderKey, Tuple)>>>,
    /// This shard's staged-tuple count. Kept per shard — inside the
    /// cache-padded struct — so a worker's push bumps only memory it
    /// already owns; a single inbox-wide counter would put one shared
    /// cache line back on every worker's put path.
    len: AtomicUsize,
}

impl Shard {
    fn new(partitions: usize) -> Self {
        Shard {
            bins: Mutex::new((0..partitions).map(|_| Vec::new()).collect()),
            len: AtomicUsize::new(0),
        }
    }
}

/// Per-worker staging area for tuples produced during a parallel step.
///
/// Shard `i` is written only by pool worker `i` (routed via
/// [`jstar_pool::ThreadPool::current_worker_index`]); the last shard
/// collects puts from foreign threads (the coordinator between steps,
/// `-noDelta` rule cascades on external threads, injected events). A
/// worker's push is therefore an uncontended mutex acquire — the lock
/// exists only to order the worker's appends against the coordinator's
/// bulk swap at the step boundary, never against other workers.
///
/// **Partition-aware staging**: each shard keeps one bin per key-prefix
/// partition and [`ShardedInbox::push`] routes by a hash of the leading
/// `prefix_len` components of the order key (derived by the engine from
/// the program's orderby schema — deep enough to reach the first
/// tuple-dependent `seq` component, so workloads like Dijkstra whose tuples
/// all share one stratum still spread across partitions by distance).
/// Two entries with equal keys always share a partition, which is what
/// lets [`DeltaTree::merge_partitioned`] hand the partitions to pool
/// workers as disjoint merge units. With `partitions == 1` (the
/// sequential engine) binning is a no-op.
///
/// **Run-length combining**: a push that repeats its bin's last entry is
/// dropped at the shard ([`ShardedInbox::push`]) instead of travelling to
/// the merge to be deduplicated there. The "memory" is the bin itself,
/// which every epoch swap leaves empty — nothing to reset, nothing that
/// outlives an epoch.
#[derive(Debug)]
pub struct ShardedInbox {
    shards: Vec<Shard>,
    /// Partition-count mask (`partitions - 1`, partitions a power of two).
    mask: usize,
    /// Number of leading key components hashed into the partition index.
    prefix_len: usize,
}

impl ShardedInbox {
    /// Creates an inbox with one shard per pool worker plus one overflow
    /// shard for non-worker threads, and a single partition (no binning).
    pub fn new(workers: usize) -> Self {
        ShardedInbox::with_partitioning(workers, 1, 0)
    }

    /// Creates an inbox whose shards bin by a hash of the first
    /// `prefix_len` key components into `partitions` (rounded up to a
    /// power of two) bins.
    pub fn with_partitioning(workers: usize, partitions: usize, prefix_len: usize) -> Self {
        let parts = partitions.max(1).next_power_of_two();
        ShardedInbox {
            shards: (0..workers + 1).map(|_| Shard::new(parts)).collect(),
            mask: parts - 1,
            prefix_len,
        }
    }

    /// Number of key-prefix partitions.
    pub fn partitions(&self) -> usize {
        self.mask + 1
    }

    /// The shard index for threads that are not pool workers.
    pub fn external_shard(&self) -> usize {
        self.shards.len() - 1
    }

    /// The partition a key belongs to: a hash of its leading components.
    #[inline]
    fn partition_of(&self, key: &OrderKey) -> usize {
        if self.mask == 0 {
            return 0;
        }
        let mut h = FxHasher::default();
        key.hash_prefix(self.prefix_len, &mut h);
        (h.finish() as usize) & self.mask
    }

    /// Stages a tuple produced during the current step. `shard` must be
    /// the caller's stable worker index, or [`Self::external_shard`].
    /// Touches *only* the caller's shard (buffer and counter alike) — no
    /// shared cache line, no coordinator pass to bin later.
    ///
    /// **Run-length combining**: a push equal (key and tuple) to the
    /// bin's last entry is dropped here. The Delta set is a set, so the
    /// merge would have dropped the copy anyway — after it had been
    /// counted, swapped, hashed and freed. Rules that put one summary
    /// tuple per input record over a time-ordered log (Fig. 4's
    /// `SumMonth(year, month)` per `PvWatts` row) repeat their previous
    /// put all but a few hundred times in 140,160; an input without such
    /// runs pays one pointer-and-length compare per put. There is no
    /// table to reset: [`Self::swap_epoch`] leaves every bin empty, so
    /// the memory of what was staged never outlives an epoch and a tuple
    /// re-put in a later step (a `-noGamma` event) is staged again.
    ///
    /// `key` may be an [`OrderKey`] or a `Cow` of one (a table's interned
    /// key, borrowed): it is made owned only when the entry is staged.
    pub fn push(&self, shard: usize, key: impl Borrow<OrderKey> + Into<OrderKey>, tuple: Tuple) {
        let p = self.partition_of(key.borrow());
        let sh = &self.shards[shard];
        let mut bins = sh.bins.lock();
        let bin = &mut bins[p];
        if matches!(bin.last(), Some((k, t)) if *t == tuple && k == key.borrow()) {
            return;
        }
        bin.push((key.into(), tuple));
        // Counted while still holding the shard lock: a concurrent
        // [`ShardedInbox::swap_epoch`] subtracts what it drains under
        // the same lock, so an entry can never be drained before its
        // increment lands (an unlocked add here could be overtaken by
        // the subtract and wrap the counter).
        // ord: Relaxed — the shard mutex orders the count against the
        // drain; `len`/`is_empty` readers are advisory polls whose
        // exactness comes from the step boundary's scope join.
        sh.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes the current staging **epoch**: swaps every shard's bins
    /// out into the per-partition runs of `out` (appending; `out` must
    /// have at least [`Self::partitions`] entries) and leaves fresh
    /// (or recycled) bins behind for the next epoch. Returns the number
    /// of entries taken.
    ///
    /// The engine swaps only at the step boundary, once the class has
    /// joined, but the contract holds **while workers are still
    /// pushing** too: each shard's swap happens under that shard's own
    /// mutex, so an entry is either wholly in the closed epoch or wholly
    /// in the next one, and key groups stay intact because the
    /// partition of a key never changes; entries staged after the swap
    /// simply wait for the next epoch.
    pub fn swap_epoch(&self, out: &mut [Vec<(OrderKey, Tuple)>]) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            let mut bins = shard.bins.lock();
            let mut drained = 0usize;
            for (buf, run) in bins.iter_mut().zip(out.iter_mut()) {
                drained += buf.len();
                if run.is_empty() && buf.len() > run.capacity() {
                    // Steal the filled allocation wholesale; the empty
                    // (previous-epoch) buffer becomes the new bin.
                    std::mem::swap(buf, run);
                } else {
                    run.append(buf);
                }
            }
            // ord: Relaxed — under the shard mutex; see `push`.
            shard.len.fetch_sub(drained, Ordering::Relaxed);
            total += drained;
        }
        total
    }

    /// Number of staged tuples (relaxed sum of the per-shard counters).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            // ord: Relaxed — advisory poll; see `push`.
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// True when nothing is staged. One relaxed load per shard (shards =
    /// workers + 1) — the previous implementation locked every shard per
    /// poll. Exact at step boundaries: the fork/join scope join orders
    /// every worker push before the coordinator's read.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            // ord: Relaxed — advisory poll; see `push`.
            .all(|s| s.len.load(Ordering::Relaxed) == 0)
    }

    /// The absorb-time quiescence invariant: once the step boundary has
    /// absorbed the epoch, the inbox must be empty — a staged tuple left
    /// here would miss the next extract, and a checkpoint would silently
    /// leave it out of the snapshot. Violation is an engine bug (not a
    /// recoverable I/O condition), so this panics.
    pub fn assert_quiescent(&self) {
        assert!(
            self.is_empty(),
            "absorb left {} tuples still staged in the inbox",
            self.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::KeyPart;
    use crate::schema::TableId;
    use crate::value::Value;

    fn key(parts: &[KeyPart]) -> OrderKey {
        OrderKey::from_parts(parts.iter().cloned())
    }

    fn tup(table: u32, v: i64) -> Tuple {
        Tuple::new(TableId(table), vec![Value::Int(v)])
    }

    fn skey(strat: u32, s: i64) -> OrderKey {
        key(&[KeyPart::Strat(strat), KeyPart::Int(s)])
    }

    fn empty_runs(inbox: &ShardedInbox) -> Vec<Vec<(OrderKey, Tuple)>> {
        (0..inbox.partitions()).map(|_| Vec::new()).collect()
    }

    /// Closes the staged epoch and inserts it sequentially; returns the
    /// number of tuples actually inserted.
    fn absorb_staged(inbox: &ShardedInbox, tree: &mut DeltaTree) -> usize {
        let mut runs = empty_runs(inbox);
        inbox.swap_epoch(&mut runs);
        tree.merge_partitioned(&mut runs, None, &mut [0u64; 4], usize::MAX)
    }

    #[test]
    fn pop_returns_keys_in_order() {
        let mut tree = DeltaTree::new();
        tree.insert(&skey(0, 5), tup(0, 5));
        tree.insert(&skey(0, 1), tup(0, 1));
        tree.insert(&skey(1, 0), tup(1, 0));
        tree.insert(&skey(0, 3), tup(0, 3));

        let mut seen = Vec::new();
        while let Some((k, class)) = tree.pop_min_class() {
            assert_eq!(class.len(), 1);
            seen.push(k);
        }
        let expected = vec![skey(0, 1), skey(0, 3), skey(0, 5), skey(1, 0)];
        assert_eq!(seen, expected);
        assert!(tree.is_empty());
    }

    #[test]
    fn equal_keys_form_one_class() {
        // "If we had 11 Ship tuples within frame 18, ... 11 fork/join tasks
        // will be created" (§5).
        let mut tree = DeltaTree::new();
        for i in 0..11 {
            tree.insert(&skey(0, 18), tup(0, 100 + i));
        }
        tree.insert(&skey(0, 19), tup(0, 999));
        let (k, class) = tree.pop_min_class().unwrap();
        assert_eq!(k, skey(0, 18));
        assert_eq!(class.len(), 11);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn duplicates_are_removed_on_insert() {
        let mut tree = DeltaTree::new();
        assert!(tree.insert(&skey(0, 1), tup(0, 7)));
        assert!(!tree.insert(&skey(0, 1), tup(0, 7)));
        assert_eq!(tree.len(), 1);
        let (_, class) = tree.pop_min_class().unwrap();
        assert_eq!(class.len(), 1);
    }

    #[test]
    fn contains_checks_exact_position() {
        let mut tree = DeltaTree::new();
        tree.insert(&skey(0, 1), tup(0, 7));
        assert!(tree.contains(&skey(0, 1), &tup(0, 7)));
        assert!(!tree.contains(&skey(0, 2), &tup(0, 7)));
        assert!(!tree.contains(&skey(0, 1), &tup(0, 8)));
    }

    #[test]
    fn prefix_keys_pop_before_extensions() {
        // A table whose orderby is a strict prefix of another's: its tuples
        // are causally earlier.
        let mut tree = DeltaTree::new();
        let short = key(&[KeyPart::Strat(0)]);
        let long = key(&[KeyPart::Strat(0), KeyPart::Int(0)]);
        tree.insert(&long, tup(1, 1));
        tree.insert(&short, tup(0, 0));
        let (k1, _) = tree.pop_min_class().unwrap();
        assert_eq!(k1, short);
        let (k2, _) = tree.pop_min_class().unwrap();
        assert_eq!(k2, long);
    }

    #[test]
    fn len_tracks_inserts_and_pops() {
        let mut tree = DeltaTree::new();
        for i in 0..100 {
            tree.insert(&skey(0, i % 10), tup(0, i));
        }
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.deep_count(), 100);
        let mut drained = 0;
        while let Some((_, class)) = tree.pop_min_class() {
            drained += class.len();
        }
        assert_eq!(drained, 100);
        assert_eq!(tree.len(), 0);
    }

    #[test]
    fn interleaved_insert_and_pop_respects_order() {
        // Dijkstra's pattern: popping distance d inserts d + w.
        let mut tree = DeltaTree::new();
        tree.insert(&skey(0, 0), tup(0, 0));
        let mut last = i64::MIN;
        let mut steps = 0;
        while let Some((k, class)) = tree.pop_min_class() {
            let d = match k.part(1) {
                Some(KeyPart::Int(d)) => d,
                _ => unreachable!(),
            };
            assert!(d >= last, "keys must be non-decreasing");
            last = d;
            steps += 1;
            if steps < 20 {
                for t in class {
                    let v = t.int(0);
                    tree.insert(&skey(0, d + 3), tup(0, v + 1));
                    tree.insert(&skey(0, d + 1), tup(0, v + 2));
                }
            }
        }
        assert!(steps >= 20);
    }

    #[test]
    fn inbox_drains_to_tree_with_dedup() {
        let inbox = ShardedInbox::new(2);
        let ext = inbox.external_shard();
        inbox.push(ext, skey(0, 1), tup(0, 1));
        inbox.push(0, skey(0, 1), tup(0, 1)); // duplicate, different shard
        inbox.push(1, skey(0, 2), tup(0, 2));
        let mut tree = DeltaTree::new();
        let inserted = absorb_staged(&inbox, &mut tree);
        assert_eq!(inserted, 2);
        assert!(inbox.is_empty());
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn push_combines_a_run_of_equal_entries_and_nothing_else() {
        let inbox = ShardedInbox::with_partitioning(1, 4, 2);
        let ext = inbox.external_shard();
        // A run: one entry staged, however long the run.
        for _ in 0..5 {
            inbox.push(ext, skey(0, 1), tup(0, 1));
        }
        assert_eq!(inbox.len(), 1);
        // Same tuple under another key, another tuple under the same
        // key, the same pair on another shard: none of them is a repeat.
        inbox.push(ext, skey(1, 1), tup(0, 1));
        inbox.push(ext, skey(1, 1), tup(0, 2));
        inbox.push(0, skey(1, 1), tup(0, 2));
        assert_eq!(inbox.len(), 4);
        // a, b, a, b under one key: no two neighbours are equal, so all
        // four are staged and the merge does the dedup, as ever.
        let inbox = ShardedInbox::new(0);
        for v in [1, 2, 1, 2] {
            inbox.push(0, skey(0, 0), tup(0, v));
        }
        assert_eq!(inbox.len(), 4);
        let mut tree = DeltaTree::new();
        assert_eq!(absorb_staged(&inbox, &mut tree), 2);
        // A borrowed key is taken as it is, and kept when staged.
        let interned = skey(0, 0);
        inbox.push(0, std::borrow::Cow::Borrowed(&interned), tup(0, 3));
        inbox.push(0, std::borrow::Cow::Borrowed(&interned), tup(0, 3));
        let mut out = empty_runs(&inbox);
        assert_eq!(inbox.swap_epoch(&mut out), 1);
        assert_eq!(out[0], vec![(interned, tup(0, 3))]);
    }

    #[test]
    fn combining_forgets_everything_at_the_epoch_swap() {
        // The same entry staged in two epochs is staged twice: an event
        // tuple (`-noGamma`) re-put in a later step must trigger again.
        let inbox = ShardedInbox::with_partitioning(1, 2, 2);
        for epoch in 0..3 {
            inbox.push(0, skey(0, 7), tup(0, 7));
            inbox.push(0, skey(0, 7), tup(0, 7));
            let mut out = empty_runs(&inbox);
            assert_eq!(inbox.swap_epoch(&mut out), 1, "epoch {epoch}");
            assert!(inbox.is_empty());
        }
    }

    #[test]
    fn swap_epoch_collects_all_shards() {
        let inbox = ShardedInbox::new(3);
        for shard in 0..4 {
            for i in 0..10 {
                inbox.push(shard, skey(0, i), tup(0, (shard as i64) * 100 + i));
            }
        }
        let mut out = empty_runs(&inbox);
        assert_eq!(inbox.swap_epoch(&mut out), 40);
        assert_eq!(out[0].len(), 40);
        assert!(inbox.is_empty());
        // Second swap is a no-op.
        assert_eq!(inbox.swap_epoch(&mut out), 0);
        assert_eq!(out[0].len(), 40);
    }

    #[test]
    fn inbox_len_counter_tracks_push_and_drain() {
        let inbox = ShardedInbox::with_partitioning(2, 4, 2);
        assert!(inbox.is_empty());
        for i in 0..10 {
            inbox.push(0, skey(0, i), tup(0, i));
        }
        assert_eq!(inbox.len(), 10);
        assert!(!inbox.is_empty());
        let mut out = empty_runs(&inbox);
        assert_eq!(inbox.swap_epoch(&mut out), 10);
        assert!(inbox.is_empty());
    }

    #[test]
    fn swap_epoch_keeps_equal_keys_together() {
        let inbox = ShardedInbox::with_partitioning(2, 8, 2);
        for shard in 0..3 {
            for i in 0..40 {
                inbox.push(shard, skey(0, i % 10), tup(0, shard as i64 * 1000 + i));
            }
        }
        let mut parts = empty_runs(&inbox);
        inbox.swap_epoch(&mut parts);
        assert!(inbox.is_empty());
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 120);
        // Every distinct key lands in exactly one partition.
        let mut seen: std::collections::HashMap<OrderKey, usize> = std::collections::HashMap::new();
        for (p, run) in parts.iter().enumerate() {
            for (k, _) in run {
                let prev = seen.insert(k.clone(), p);
                assert!(
                    prev.is_none_or(|q| q == p),
                    "key {k} split across partitions"
                );
            }
        }
    }

    #[test]
    fn merge_partitioned_matches_sequential_inserts() {
        let pool = jstar_pool::ThreadPool::new(4);
        // Build the same batch both ways: partitioned-parallel and plain.
        let entries: Vec<(OrderKey, Tuple)> = (0..2000)
            .map(|i| (skey((i % 3) as u32, i % 40), tup(0, i % 200)))
            .collect();

        let mut seq_tree = DeltaTree::new();
        for (k, t) in &entries {
            seq_tree.insert(k, t.clone());
        }

        let inbox = ShardedInbox::with_partitioning(4, 8, 2);
        for (i, (k, t)) in entries.iter().enumerate() {
            inbox.push(i % 5, k.clone(), t.clone());
        }
        let mut parts = empty_runs(&inbox);
        inbox.swap_epoch(&mut parts);
        let mut par_tree = DeltaTree::new();
        let mut by_table = vec![0u64; 2];
        let inserted = par_tree.merge_partitioned(&mut parts, Some(&pool), &mut by_table, 1);
        assert_eq!(inserted, seq_tree.len());
        assert_eq!(by_table.iter().sum::<u64>() as usize, inserted);
        assert_eq!(par_tree.len(), seq_tree.len());

        // Identical pop sequence: same keys, same class contents.
        loop {
            match (seq_tree.pop_min_class(), par_tree.pop_min_class()) {
                (None, None) => break,
                (Some((ks, mut cs)), Some((kp, mut cp))) => {
                    assert_eq!(ks, kp);
                    cs.sort();
                    cp.sort();
                    assert_eq!(cs, cp);
                }
                other => panic!("trees disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn merge_partitioned_dedups_against_existing_tree_content() {
        let pool = jstar_pool::ThreadPool::new(2);
        let mut tree = DeltaTree::new();
        // Pre-existing content at the same positions as half the batch.
        for i in 0..50 {
            tree.insert(&skey(0, i), tup(0, i));
        }
        let mut parts: Vec<Vec<(OrderKey, Tuple)>> = (0..4).map(|_| Vec::new()).collect();
        let probe = ShardedInbox::with_partitioning(0, 4, 2);
        for i in 0..100 {
            let k = skey(0, i % 50);
            let p = probe.partition_of(&k);
            parts[p].push((k, tup(0, i % 50)));
        }
        let mut by_table = vec![0u64; 1];
        let inserted = tree.merge_partitioned(&mut parts, Some(&pool), &mut by_table, 1);
        assert_eq!(inserted, 0, "everything was already queued");
        assert_eq!(by_table[0], 0);
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn merge_partitioned_sequential_fallback_below_threshold() {
        let pool = jstar_pool::ThreadPool::new(2);
        for seq_threshold in [usize::MAX, 1] {
            let mut parts: Vec<Vec<(OrderKey, Tuple)>> = (0..4).map(|_| Vec::new()).collect();
            for i in 0..20 {
                parts[(i % 4) as usize].push((skey(0, i), tup(0, i)));
            }
            let mut by_table = vec![0u64; 1];
            let mut tree = DeltaTree::new();
            let inserted =
                tree.merge_partitioned(&mut parts, Some(&pool), &mut by_table, seq_threshold);
            assert_eq!(inserted, 20);
            assert_eq!(tree.len(), 20);
            assert!(parts.iter().all(Vec::is_empty), "runs are consumed");
        }
    }

    #[test]
    fn swap_epoch_under_concurrent_pushes_loses_nothing() {
        // Pushers race a swapper: every entry must land in exactly one
        // epoch, and each epoch's runs must keep key groups intact.
        let inbox = std::sync::Arc::new(ShardedInbox::with_partitioning(4, 8, 2));
        let pool = jstar_pool::ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for thread in 0..4i64 {
                let inbox = std::sync::Arc::clone(&inbox);
                let pool = &pool;
                s.spawn(move |_| {
                    let shard = pool
                        .current_worker_index()
                        .unwrap_or_else(|| inbox.external_shard());
                    for i in 0..2000 {
                        inbox.push(shard, skey(0, i % 97), tup(0, thread * 10_000 + i));
                    }
                });
            }
            // The scope owner swaps epochs while pushes are in flight.
            let mut runs: Vec<Vec<(OrderKey, Tuple)>> =
                (0..inbox.partitions()).map(|_| Vec::new()).collect();
            for _ in 0..50 {
                let n = inbox.swap_epoch(&mut runs);
                total.fetch_add(n, Ordering::Relaxed);
                for run in runs.iter_mut() {
                    run.clear();
                }
                std::thread::yield_now();
            }
        });
        // Final epoch: whatever was staged after the last mid-flight swap.
        let mut runs: Vec<Vec<(OrderKey, Tuple)>> =
            (0..inbox.partitions()).map(|_| Vec::new()).collect();
        let n = inbox.swap_epoch(&mut runs);
        total.fetch_add(n, Ordering::Relaxed);
        assert_eq!(total.load(Ordering::Relaxed), 8000);
        assert!(inbox.is_empty());
    }

    #[test]
    fn inbox_is_safe_from_many_worker_threads() {
        let inbox = std::sync::Arc::new(ShardedInbox::new(4));
        let pool = jstar_pool::ThreadPool::new(4);
        pool.scope(|s| {
            for thread in 0..8i64 {
                let inbox = std::sync::Arc::clone(&inbox);
                let pool = &pool;
                s.spawn(move |_| {
                    let shard = pool
                        .current_worker_index()
                        .unwrap_or_else(|| inbox.external_shard());
                    for i in 0..250 {
                        inbox.push(shard, skey(0, i % 50), tup(0, thread * 1000 + i));
                    }
                });
            }
        });
        let mut tree = DeltaTree::new();
        let inserted = absorb_staged(&inbox, &mut tree);
        assert_eq!(inserted, 2000, "all distinct tuples arrive");
        // 50 classes of 40 tuples each.
        let (_, first) = tree.pop_min_class().unwrap();
        assert_eq!(first.len(), 40);
    }

    #[test]
    fn for_each_pending_visits_everything_without_disturbing_the_queue() {
        let mut q = DeltaTree::new();
        for i in 0..30i64 {
            q.insert(&skey(0, i % 3), tup(0, i));
        }
        let mut seen = Vec::new();
        q.for_each_pending(&mut |t| seen.push(t.int(0)));
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
        assert_eq!(q.len(), 30, "walk is non-destructive");
        // Pop order is unaffected by the walk.
        let (_, class) = q.pop_min_class().unwrap();
        assert_eq!(class.len(), 10);
    }

    #[test]
    fn quiescence_assert_accepts_only_an_empty_inbox() {
        let inbox = ShardedInbox::new(2);
        inbox.assert_quiescent();
        inbox.push(inbox.external_shard(), skey(0, 1), tup(0, 1));
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inbox.assert_quiescent()))
                .is_err();
        assert!(panicked, "a staged tuple must trip the invariant");
    }
}

/// Exhaustive interleaving checks for the inbox's epoch protocol. Run
/// with `cargo test -p jstar-core --features model-check`.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use crate::orderby::KeyPart;
    use crate::schema::TableId;
    use crate::value::Value;
    use jstar_check::{thread, Checker};
    use std::sync::Arc;

    fn tup(v: i64) -> Tuple {
        Tuple::new(TableId(0), vec![Value::Int(v)])
    }

    fn skey(s: i64) -> OrderKey {
        OrderKey::from_parts([KeyPart::Strat(0), KeyPart::Int(s)])
    }

    /// An epoch close racing a worker push: every entry must land in
    /// exactly one epoch — either the closed one or the next — and the
    /// shard counter must never go stale negative or lose an entry, in
    /// every interleaving. The engine now swaps only after the class
    /// has joined; this keeps the inbox's concurrent push/swap contract
    /// checked for the callers that do race it.
    #[test]
    fn epoch_close_vs_concurrent_push_loses_nothing() {
        let report = Checker::new().check(|| {
            let inbox = Arc::new(ShardedInbox::with_partitioning(1, 2, 2));
            let pusher = {
                let inbox = Arc::clone(&inbox);
                thread::spawn(move || {
                    inbox.push(0, skey(1), tup(1));
                    inbox.push(0, skey(2), tup(2));
                })
            };
            let swapper = {
                let inbox = Arc::clone(&inbox);
                thread::spawn(move || {
                    let mut runs: Vec<Vec<(OrderKey, Tuple)>> =
                        (0..inbox.partitions()).map(|_| Vec::new()).collect();
                    let n = inbox.swap_epoch(&mut runs);
                    assert_eq!(n, runs.iter().map(Vec::len).sum::<usize>());
                    n
                })
            };
            pusher.join();
            let closed = swapper.join();
            // Whatever the closed epoch missed is still staged intact.
            let mut runs: Vec<Vec<(OrderKey, Tuple)>> =
                (0..inbox.partitions()).map(|_| Vec::new()).collect();
            let rest = inbox.swap_epoch(&mut runs);
            assert_eq!(closed + rest, 2);
            assert!(inbox.is_empty());
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
