//! Write-once tables: a table no rule reads until it has closed keeps its
//! rows as appended runs, and sorts them once, into the column-0 view
//! every read of it then walks.
//!
//! The engine picks such a table out when it is built (see
//! `Engine::new`): it keeps the default store, is not `-noGamma`,
//! triggers no rule, has a tuple-independent order key, and no rule is
//! triggered by a table whose order key equals its own. Then no rule can
//! fire on one of its rows, and once the Delta set's minimum has passed
//! its key no put can reach it — `put_tuple` rejects such a put as a
//! `CausalityViolation`. Fig. 5's `Edge` is one (`order Gen < Edge < Int`
//! closes it before the first `Estimate` fires), and so are the
//! triangle workload's `Edge` and `Triangle`.
//!
//! **Append.** [`WriteOnceStore::append`] pushes a batch onto one run —
//! the engine's staging shard picks it, so each worker has its own — under
//! that run's lock, taken once per batch and by no one else while the
//! engine runs: no hashing, no claim, no journal. A run is packed as the
//! view builder packs a piece (each row's key and next-column value
//! beside its handle), while the appending thread still has the row in
//! cache. Every row is reported [`InsertOutcome::Fresh`]; whether it
//! repeats another row or breaks a `->` key is found when the table is
//! sealed.
//!
//! **Seal.** A seal takes every run (and, when rows arrived after an
//! earlier seal, that seal's rows) as the pieces of one build of the
//! table's view keyed on column 0 ([`super::cursor::build_set`], the
//! view builder with each run as a ready-packed piece), sorted on the
//! pool, under the table's own seals lock; a seal that finds no rows
//! appended since the last one builds nothing. The build keeps the rows
//! a set as it sorts each bucket: rows with equal key and next column
//! are put in row order, so the view's rows are sorted as tuples are,
//! and every row that repeats a row kept beside it, or shares its `->`
//! key with one, is dropped and reported ([`SealReport`]): the engine
//! turns the repeats into `gamma_dups`, and each conflict into a
//! `KeyViolation`. Under a `->` key the row an earlier seal kept stays;
//! otherwise the least row does. The engine
//! seals at the step boundary where the popped class first passes the
//! table's order key — the tables that close there one after another,
//! one view per build — and at its other quiescent points (a
//! checkpoint, the end of a run); a restore builds the imported rows'
//! view before it commits, and a read finding rows that no seal has
//! taken (a read from outside the run) seals them first, as one piece.
//!
//! **Read.** The sealed view is the table's only storage: a query with
//! an equality on column 0 reads that key's group, any other filters
//! every row; a cursor open of column 0 is served the view itself
//! ([`super::Gamma::open_cursor`]), and `for_each`, the journal walk and
//! the stamp walk its rows, so
//! snapshots and content hashes read it like any store. While the
//! engine runs, a rule that reads the table before it has closed is an
//! error (`JStarError::ReadBeforeClose`), checked by the engine.
//!
//! A seal publishes its view with one pointer store and keeps every view
//! it replaced until the store drops: a reader on another thread may
//! still be walking one. Only a table that takes rows after it was
//! sealed — at a checkpoint before it closed — is sealed twice.

use super::cursor::{build_set, Batch, ColumnIndex, Dedup, SealReport, Source};
use super::{rows_view, IndexStamp, InsertOutcome, StagedImport, TableStore};
use crate::query::Probe;
use crate::schema::TableDef;
use crate::tuple::Tuple;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicPtr, AtomicUsize, Mutex, Ordering};
use jstar_pool::ThreadPool;
use std::any::Any;
use std::sync::Arc;

/// One appender's run, packed for the view as it is appended, on cache
/// lines of its own.
#[repr(align(128))]
struct Run(Mutex<Batch>);

impl Run {
    fn new() -> Run {
        Run(Mutex::new(Batch::new(0, 0)))
    }
}

/// What one seal published: the view, and how many seals came before.
struct Sealed {
    view: Arc<ColumnIndex>,
    epoch: u64,
}

/// Every seal's view, oldest first, and what the seals found.
struct Seals {
    published: Vec<Arc<Sealed>>,
    report: SealReport,
}

/// The store of a write-once table: one that keeps the default store,
/// is not `-noGamma`, triggers no rule, and has a constant order key
/// shared with no table that triggers one — the engine picks them out.
/// Puts are appended to one packed run per staging shard and reported
/// [`InsertOutcome::Fresh`]; when the run passes the table's stratum the
/// runs are sealed — sorted on the pool into the column-0 view that is
/// the table's only storage, repeats and `->` conflicts dropped and
/// reported. A read finding rows no seal has taken seals them first.
pub struct WriteOnceStore {
    def: Arc<TableDef>,
    runs: Box<[Run]>,
    /// Rows appended since the last seal, counted under their run's lock.
    pending: AtomicUsize,
    /// The newest seal: one of `seals`' own, which it never drops.
    current: AtomicPtr<Sealed>,
    seals: Mutex<Seals>,
}

impl WriteOnceStore {
    /// An empty store for `def` with `runs` runs (at least one); the
    /// engine gives each staging shard its own.
    pub(crate) fn new(def: Arc<TableDef>, runs: usize) -> WriteOnceStore {
        let first = Arc::new(Sealed {
            view: Arc::new(ColumnIndex::empty()),
            epoch: 0,
        });
        let current = AtomicPtr::new(Arc::as_ptr(&first).cast_mut());
        WriteOnceStore {
            def,
            runs: (0..runs.max(1)).map(|_| Run::new()).collect(),
            pending: AtomicUsize::new(0),
            current,
            seals: Mutex::new(Seals {
                published: vec![first],
                report: SealReport::default(),
            }),
        }
    }

    /// Appends `tuples` to run `run` (modulo the run count), each packed
    /// for the view while the appending thread still has it in cache.
    pub(crate) fn append(&self, run: usize, tuples: &[Tuple]) {
        let mut batch = self.runs[run % self.runs.len()].0.lock();
        tuples.iter().for_each(|t| batch.push(t.clone()));
        // ord: Relaxed — counted under the run's lock, which a seal takes
        // to subtract what it removes, so the count never drops below
        // the rows still in runs. A read that must see these rows is
        // ordered after this append by the caller (the scope join, the
        // staging slot's lock), and coherence then shows it the count.
        self.pending.fetch_add(tuples.len(), Ordering::Relaxed);
    }

    /// True when rows have arrived since the last seal.
    pub(crate) fn has_pending(&self) -> bool {
        // ord: Relaxed — see `append`.
        self.pending.load(Ordering::Relaxed) > 0
    }

    /// The newest seal, sealing first when rows have arrived since.
    fn sealed(&self) -> &Sealed {
        if self.has_pending() {
            self.seal(None);
        }
        self.newest()
    }

    /// The newest seal as it stands.
    fn newest(&self) -> &Sealed {
        // ord: Acquire — pairs with `install`'s Release store, so the
        // view's arrays are visible to a thread whose only edge to the
        // seal is this load.
        let current = self.current.load(Ordering::Acquire);
        // SAFETY: `current` always points at a seal in `seals.published`
        // (installed by `new` or `install`), whose seals are only ever
        // pushed there, never dropped or moved out, until the store
        // drops — so the seal outlives `&self`.
        unsafe { &*current }
    }

    /// The sealed column-0 view, sealing first when rows have arrived
    /// since the last seal.
    pub(crate) fn view(&self) -> Arc<ColumnIndex> {
        Arc::clone(&self.sealed().view)
    }

    /// What seals have found since the last call.
    pub(crate) fn take_report(&self) -> SealReport {
        std::mem::take(&mut self.seals.lock().report)
    }

    /// Seals the rows no seal has taken, if there are any, on `pool`
    /// (one piece a run without one), under the seals lock; returns the
    /// rows of the new view (0 with nothing to seal, and no build).
    pub(crate) fn seal(&self, pool: Option<&ThreadPool>) -> usize {
        let mut seals = self.seals.lock();
        if !self.has_pending() {
            return 0;
        }
        let runs = self.take_runs();
        let kept = Some(self.newest().view.as_ref());
        let (view, report) = build_set(Source::Runs(&runs), self.dedup(kept), pool);
        let rows = view.rows.len();
        seals.report.add(report);
        self.install(&mut seals, view);
        rows
    }

    /// Every run that holds rows, and a batch of the newest seal's rows
    /// when there is any: the pieces of the seal's build. Called under
    /// the seals lock, so no seal is published meanwhile.
    fn take_runs(&self) -> Vec<Mutex<Batch>> {
        let mut taken = Vec::with_capacity(self.runs.len() + 1);
        for run in self.runs.iter() {
            let mut run = run.0.lock();
            if run.len() > 0 {
                // ord: Relaxed — under the run's lock (see `append`).
                self.pending.fetch_sub(run.len(), Ordering::Relaxed);
                taken.push(Mutex::new(std::mem::replace(&mut *run, Batch::new(0, 0))));
            }
        }
        let last = &self.newest().view.rows;
        if !taken.is_empty() && !last.is_empty() {
            let mut batch = Batch::new(0, last.len());
            last.iter().for_each(|t| batch.push(t.clone()));
            taken.push(Mutex::new(batch));
        }
        taken
    }

    /// Makes `view` the newest seal.
    fn install(&self, seals: &mut Seals, view: ColumnIndex) {
        let sealed = Arc::new(Sealed {
            view: Arc::new(view),
            epoch: seals.published.len() as u64,
        });
        // ord: Release — publishes the view's arrays to `newest`'s
        // Acquire load.
        self.current
            .store(Arc::as_ptr(&sealed).cast_mut(), Ordering::Release);
        seals.published.push(sealed);
    }

    /// Replaces the contents with `view`, a view of rows that are a set
    /// already: drops the runs and publishes it as a seal of its own.
    fn replace(&self, view: ColumnIndex) {
        let mut seals = self.seals.lock();
        for run in self.runs.iter() {
            let mut run = run.0.lock();
            // ord: Relaxed — under the run's lock (see `append`).
            self.pending.fetch_sub(run.len(), Ordering::Relaxed);
            *run = Batch::new(0, 0);
        }
        self.install(&mut seals, view);
    }

    /// How this table's rows are kept a set: by their `->` key, or
    /// whole.
    fn dedup<'a>(&self, kept: Option<&'a ColumnIndex>) -> Dedup<'a> {
        Dedup {
            key: self.def.key_arity.unwrap_or(self.def.arity()),
            kept,
        }
    }
}

impl TableStore for WriteOnceStore {
    /// Appends `t` to the last run; always `Fresh` (see the module docs).
    fn insert(&self, t: Tuple) -> InsertOutcome {
        self.append(self.runs.len() - 1, std::slice::from_ref(&t));
        InsertOutcome::Fresh
    }

    /// Appends the batch to the last run; every outcome is `Fresh` (see
    /// the module docs).
    fn insert_batch(&self, tuples: &[Tuple], outcomes: &mut Vec<InsertOutcome>) {
        self.append(self.runs.len() - 1, tuples);
        outcomes.extend(tuples.iter().map(|_| InsertOutcome::Fresh));
    }

    fn contains(&self, t: &Tuple) -> bool {
        let rows = &self.sealed().view.rows;
        rows.binary_search_by(|r| r.fields().cmp(t.fields()))
            .is_ok()
    }

    fn len(&self) -> usize {
        self.sealed().view.rows.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for t in &self.sealed().view.rows {
            if !f(t) {
                return;
            }
        }
    }

    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        let view = &self.sealed().view;
        let rows = match q.eq_value(0) {
            Some(key) => &view.rows[view.group_of(key)],
            None => &view.rows[..],
        };
        for t in rows {
            if q.matches(t) && !f(t) {
                return;
            }
        }
    }

    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        let view = self.view();
        let kept: Vec<&Tuple> = view.rows.iter().filter(|t| keep(t)).collect();
        if kept.len() < view.rows.len() {
            // A subset of sorted rows, in order: built as one piece, it
            // is sealed as it stands.
            self.replace(rows_view(&kept, 0, None));
        }
    }

    /// Collects the rows; [`StagedImport::check`] builds and checks
    /// their view, on the restoring engine's pool, and the commit
    /// installs it.
    fn begin_import(&self, rows: usize) -> Box<dyn StagedImport + '_> {
        Box::new(Import {
            store: self,
            rows: Vec::with_capacity(rows),
            checked: None,
        })
    }

    fn index_stamp(&self) -> Option<IndexStamp> {
        let sealed = self.sealed();
        Some(IndexStamp {
            epoch: sealed.epoch,
            generation: sealed.view.rows.len(),
            tombstones: 0,
            interior: 0,
        })
    }

    fn for_each_journal_suffix(&self, lo: usize, hi: usize, f: &mut dyn FnMut(&Tuple)) -> usize {
        let rows = &self.sealed().view.rows;
        let hi = hi.clamp(lo, rows.len().max(lo));
        rows.get(lo..hi).into_iter().flatten().for_each(f);
        hi
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A snapshot restore into a [`WriteOnceStore`].
struct Import<'a> {
    store: &'a WriteOnceStore,
    rows: Vec<Tuple>,
    /// The view of `rows`, and the rows it found not fresh.
    checked: Option<(ColumnIndex, usize)>,
}

impl Import<'_> {
    /// The view of the rows pushed, kept a set, and how many it dropped.
    fn build(&mut self, pool: Option<&ThreadPool>) -> (ColumnIndex, usize) {
        let rows: Vec<&Tuple> = self.rows.iter().collect();
        let (view, report) = build_set(Source::Rows(&rows), self.store.dedup(None), pool);
        drop(rows);
        self.rows = Vec::new();
        (view, report.rejected())
    }
}

impl StagedImport for Import<'_> {
    fn push(&mut self, rows: &mut Vec<Tuple>) -> usize {
        self.rows.append(rows);
        0
    }

    fn check(&mut self, pool: Option<&ThreadPool>) -> usize {
        let checked = self.build(pool);
        let rejected = checked.1;
        self.checked = Some(checked);
        rejected
    }

    fn commit(mut self: Box<Self>) -> usize {
        let (view, found_now) = match self.checked.take() {
            Some((view, _)) => (view, 0),
            None => self.build(None),
        };
        self.store.replace(view);
        found_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::cursor::tests::view_of;
    use crate::gamma::testutil::{keyed_def, keyless_def, kt};
    use crate::gamma::{Gamma, HashStore, StoreKind};
    use crate::query::Query;
    use crate::schema::{TableDef, TableId};
    use proptest::prelude::*;

    /// The rows of `n` draws over a few keys and payloads — repeats and,
    /// keyed on `a`, `->` conflicts are common.
    fn rows(n: usize, seed: u64) -> Vec<Tuple> {
        let mut state = seed | 1;
        let mut draw = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as i64
        };
        (0..n)
            .map(|_| kt(draw(12), draw(4), ["x", "y"][draw(2) as usize]))
            .collect()
    }

    /// Appends `rows` to `gamma`'s write-once table 0 from `threads`
    /// threads, each its own run, in batches of 7.
    fn append_from(gamma: &Gamma, rows: &[Tuple], threads: usize) {
        let per = rows.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (run, part) in rows.chunks(per).enumerate() {
                s.spawn(move || {
                    for batch in part.chunks(7) {
                        assert!(gamma.append(TableId(0), run, batch));
                    }
                });
            }
        });
    }

    /// Every row of `store`, as a sorted list.
    fn contents(store: &dyn TableStore) -> Vec<Tuple> {
        let mut all = Vec::new();
        store.for_each(&mut |t| {
            all.push(t.clone());
            true
        });
        all.sort();
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A write-once store fed rows with repeats and `->` conflicts —
        /// appended from 1, 2 and 4 threads, sealed on a pool, fed more
        /// rows after that seal (a checkpoint before the table closes),
        /// sealed again and restored through its import — holds what a
        /// `HashStore` fed the same rows holds, each batch in row order:
        /// the same set, `len` and content hash, the same fresh and
        /// duplicate counts, and one conflict for each `KeyConflict`; and
        /// its view is the one-piece view of that set.
        #[test]
        fn write_once_store_matches_a_hash_store(
            keyed in any::<bool>(),
            first in 0usize..300,
            later in 0usize..120,
            seed in any::<u64>(),
        ) {
            let def = if keyed { keyed_def() } else { keyless_def() };
            let defs = [Arc::clone(&def)];
            let hashed = HashStore::new(Arc::clone(&def), vec![0]);
            let (phases, mut want_fresh, mut want_dups, mut want_conflicts) =
                ([rows(first, seed), rows(later, !seed)], 0u64, 0u64, 0usize);
            for phase in &phases {
                let mut sorted = phase.clone();
                sorted.sort();
                for t in sorted {
                    match hashed.insert(t) {
                        InsertOutcome::Fresh => want_fresh += 1,
                        InsertOutcome::Duplicate => want_dups += 1,
                        InsertOutcome::KeyConflict => want_conflicts += 1,
                    }
                }
            }
            let want = contents(&hashed);
            let hash_kinds = [StoreKind::ConcurrentOrdered];
            let reference = Gamma::new(&defs, &hash_kinds);
            want.iter().for_each(|t| {
                reference.insert(t.clone());
            });
            let want_digest = crate::persist::gamma_digest(&defs, &reference);

            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                let gamma = Gamma::with_write_once(&defs, &hash_kinds, &[true], threads)
                    .expect("builds");
                let (mut dups, mut conflicts) = (0, 0);
                for phase in &phases {
                    append_from(&gamma, phase, threads);
                    for (_, report) in gamma.seal(&[TableId(0)], Some(&pool)) {
                        dups += report.dups;
                        conflicts += report.conflicts.len();
                        for t in &report.conflicts {
                            prop_assert!(keyed && !want.contains(t), "{t} was kept");
                        }
                    }
                }
                let store = gamma.write_once(TableId(0)).expect("write-once");
                let appended = (first + later) as u64;
                prop_assert_eq!(appended - dups - conflicts as u64, want_fresh);
                prop_assert_eq!((dups, conflicts), (want_dups, want_conflicts));
                prop_assert_eq!(contents(store), want.clone(), "{} threads", threads);
                prop_assert_eq!(store.len(), want.len());
                prop_assert_eq!(crate::persist::gamma_digest(&defs, &gamma), want_digest);
                prop_assert_eq!(&*store.view(), &view_of(0, &want));

                // A restore: the rows read as the snapshot writer reads
                // them, imported in batches, checked, committed.
                let restored = WriteOnceStore::new(Arc::clone(&def), 1);
                let stamp = store.index_stamp().expect("stamped");
                let mut rows = Vec::new();
                let covered = store.for_each_journal_suffix(0, stamp.generation, &mut |t| {
                    rows.push(t.clone())
                });
                prop_assert_eq!(covered, want.len());
                let mut import = restored.begin_import(rows.len());
                for batch in rows.chunks(50) {
                    prop_assert_eq!(import.push(&mut batch.to_vec()), 0);
                }
                prop_assert_eq!(import.check(Some(&pool)), 0);
                prop_assert_eq!(import.commit(), 0);
                prop_assert_eq!(&*restored.view(), &*store.view());
            }
        }
    }

    #[test]
    fn a_seal_cut_into_pieces_builds_the_one_piece_view() {
        // Enough rows for a pooled build to split them into several
        // buckets, appended to one run per thread: all-integer keys and
        // next values (split into buckets), and a string next column
        // (one bucket of values).
        use crate::gamma::MIN_PIECE;
        use crate::schema::TableDefBuilder;
        use crate::value::Value;
        let b = TableDefBuilder::new("V").col_int("a").col_str("b");
        let text = Arc::new(TableDef {
            id: TableId(0),
            name: b.name,
            columns: b.columns,
            key_arity: b.key_arity,
            orderby: b.orderby,
        });
        let n = 3 * MIN_PIECE as i64 + 17;
        let ints: Vec<Tuple> = (0..n).map(|i| kt(i % 5000, i % 7, "v")).collect();
        let strs: Vec<Tuple> = (0..n)
            .map(|i| {
                Tuple::new(
                    TableId(0),
                    vec![Value::Int(i % 3001), Value::str(format!("{}", i % 5))],
                )
            })
            .collect();
        for (def, rows) in [(keyless_def(), ints), (text, strs)] {
            let mut set = rows.clone();
            set.sort();
            set.dedup();
            for threads in [2, 4] {
                let pool = ThreadPool::new(threads);
                let gamma = Gamma::with_write_once(
                    &[Arc::clone(&def)],
                    &[StoreKind::ConcurrentOrdered],
                    &[true],
                    threads,
                )
                .expect("builds");
                append_from(&gamma, &rows, threads);
                let reports = gamma.seal(&[TableId(0)], Some(&pool));
                let dups = reports.iter().map(|(_, r)| r.dups).sum::<u64>();
                assert_eq!(dups, (rows.len() - set.len()) as u64, "{threads} threads");
                let store = gamma.write_once(TableId(0)).expect("write-once");
                assert_eq!(*store.view(), view_of(0, &set), "{threads} threads");
            }
        }
    }

    #[test]
    fn reads_seal_what_appends_left_and_a_restore_refuses_repeats() {
        let store = WriteOnceStore::new(keyed_def(), 2);
        store.append(0, &[kt(2, 1, "v"), kt(1, 5, "v")]);
        store.append(1, &[kt(1, 5, "v"), kt(3, 0, "w")]);
        // A read finds rows no seal has taken and seals them first.
        assert!(store.contains(&kt(1, 5, "v")));
        assert_eq!(store.len(), 3);
        let report = store.take_report();
        assert_eq!((report.dups, report.conflicts.len()), (1, 0));
        let mut rows = Vec::new();
        store.query(Query::on(TableId(0)).eq(0, 1i64).probe(), &mut |t| {
            rows.push(t.clone());
            true
        });
        assert_eq!(rows, [kt(1, 5, "v")]);
        assert!(store.view().int_keys.is_some());

        // Rows after the seal: the earlier seal's row keeps its key.
        store.insert(kt(1, 0, "v"));
        assert_eq!(store.index_stamp().map(|s| s.epoch), Some(2));
        assert!(store.contains(&kt(1, 5, "v")) && !store.contains(&kt(1, 0, "v")));
        assert_eq!(store.take_report().conflicts, [kt(1, 0, "v")]);

        // Lifetime-hint pruning publishes the subset.
        store.retain(&|t| t.int(0) != 2);
        assert_eq!(contents(&store), [kt(1, 5, "v"), kt(3, 0, "w")]);

        // An import is judged whole before it commits.
        let mut import = store.begin_import(3);
        assert_eq!(import.push(&mut vec![kt(7, 0, "v"), kt(7, 1, "v")]), 0);
        assert_eq!(import.check(None), 1, "a second row under key 7");
        drop(import);
        assert_eq!(store.len(), 2, "nothing committed");
    }

    #[test]
    fn keyless_rows_keep_every_distinct_row() {
        let store = WriteOnceStore::new(keyless_def(), 1);
        store.append(
            0,
            &[kt(1, 0, "b"), kt(1, 0, "a"), kt(1, 0, "b"), kt(0, 9, "z")],
        );
        assert_eq!(
            contents(&store),
            [kt(0, 9, "z"), kt(1, 0, "a"), kt(1, 0, "b")]
        );
        // The view's rows are in tuple order, ties on (key, next) too.
        let view = store.view();
        assert!(view.rows.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(store.take_report().dups, 1);
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use crate::gamma::testutil::{keyless_def, kt};
    use jstar_check::{thread, Checker};

    /// Two appenders, each on its own run, then the coordinator's seal
    /// after both have joined: whatever the interleaving, the seal sees
    /// every appended row exactly once — the repeat the two share is
    /// counted once as a duplicate, never lost and never kept twice.
    #[test]
    fn the_seal_after_the_join_sees_every_appended_row_once() {
        let report = Checker::new().check(|| {
            let store = Arc::new(WriteOnceStore::new(keyless_def(), 2));
            let appenders: Vec<_> = (0..2)
                .map(|run| {
                    let store = Arc::clone(&store);
                    thread::spawn(move || {
                        store.append(run, &[kt(run as i64, 0, "own"), kt(9, 9, "both")]);
                    })
                })
                .collect();
            appenders.into_iter().for_each(|a| a.join());
            assert_eq!(store.seal(None), 3);
            let mut rows = Vec::new();
            store.for_each(&mut |t| {
                rows.push(t.clone());
                true
            });
            assert_eq!(rows, [kt(0, 0, "own"), kt(1, 0, "own"), kt(9, 9, "both")]);
            assert_eq!(store.take_report().dups, 1);
            assert!(!store.has_pending());
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
