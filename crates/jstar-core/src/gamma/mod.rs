//! The Gamma database — "(conceptually) stores all tuples generated by the
//! program" (§5, Fig. 3).
//!
//! Gamma holds one store per table. Stores are pluggable behind the
//! [`TableStore`] trait: this is the paper's *late commitment to data
//! structures* (§1.4) — the same program can run on hash indexes chained
//! on different columns or on app-specific native arrays, chosen per
//! table by [`StoreKind`] without touching program source.
//!
//! Every engine mode builds the same default,
//! [`StoreKind::ConcurrentOrdered`]: a [`HashStore`] chained on the first
//! column, a lock-free claim-then-publish reservation table (see the
//! `reservation` module).

mod cursor;
mod hash;
pub(crate) mod leapfrog;
mod reservation;
mod write_once;

pub use cursor::{ColumnCursor, ColumnIndex};
pub use reservation::IndexStamp;

/// Input positions (rows, journal entries) below which a piece's share
/// of a fork/join costs more than the piece saves.
pub(crate) const MIN_PIECE: usize = 4096;

/// The cores the OS grants this process — pools are sized by
/// `--threads=N`, which users oversubscribe freely, and with one core
/// fanning a pass out only adds scheduling on top of the same serial
/// work. Asked once: the answer comes out of cgroup files, ~20 µs a
/// call.
fn granted_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many pieces a pass over `len` input positions is cut into: one
/// without a pool, else 4 per worker that has a core of its own — a
/// worker that falls behind leaves its later pieces to be stolen — and
/// none smaller than [`MIN_PIECE`]. The snapshot writer's journal encode
/// and every column-view build cut their passes by it.
pub(crate) fn pieces(pool: Option<&ThreadPool>, len: usize) -> usize {
    pool.map_or(1, |p| {
        let workers = p.num_threads().min(granted_cores());
        (4 * workers).min(len / MIN_PIECE).max(1)
    })
}

/// The view of `rows` keyed on `field` — a join rule's root, cut from
/// its delta — built on `pool` (one piece without one); rows equal on
/// key and next column keep their order in `rows`.
pub(crate) fn rows_view(rows: &[&Tuple], field: usize, pool: Option<&ThreadPool>) -> ColumnIndex {
    cursor::build_view(cursor::Source::Rows(rows), field, pool)
}

/// The view of `store`'s `field` as it stands, built on `pool` (one
/// piece without one): off the claim journal up to the stamp's
/// generation, or over one [`TableStore::for_each`] pass for a store
/// without a stamp.
fn store_view(store: &dyn TableStore, field: usize, pool: Option<&ThreadPool>) -> ColumnIndex {
    let source = match store.index_stamp() {
        Some(stamp) => cursor::Source::Journal(store, stamp.generation),
        None => cursor::Source::Pass(store),
    };
    cursor::build_view(source, field, pool)
}

/// Factory closure for [`StoreKind::Custom`].
pub type StoreFactory = Arc<dyn Fn(Arc<TableDef>) -> Arc<dyn TableStore> + Send + Sync>;
use cursor::SealReport;
pub use hash::HashStore;
pub use write_once::WriteOnceStore;

use crate::query::{Probe, Query};
use crate::schema::{TableDef, TableId};
use crate::tuple::Tuple;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Ordering};
use jstar_pool::ThreadPool;
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// Result of inserting a tuple into a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The tuple was new.
    Fresh,
    /// An identical tuple already existed — JStar's set semantics drops it.
    Duplicate,
    /// A *different* tuple with the same primary key already existed:
    /// the `->` invariant is violated.
    KeyConflict,
}

/// A Gamma table store.
///
/// All methods take `&self`: stores are internally synchronised because the
/// parallel engine inserts and queries from many worker threads at once.
pub trait TableStore: Send + Sync {
    /// Inserts a tuple, enforcing set semantics and (when the table declares
    /// `->` and the store supports it) the primary-key invariant.
    fn insert(&self, t: Tuple) -> InsertOutcome;

    /// Inserts a whole batch, appending one outcome per tuple (in order;
    /// a duplicate or `->` conflict *within* the batch is reported on the
    /// later tuple, as a loop over [`TableStore::insert`] would).
    ///
    /// This is how the engine inserts: a chunk of an equivalence class
    /// and a flushed run of staged `-noDelta` puts each arrive in a
    /// single call. [`HashStore`] prefetches the batch's probe lines and
    /// writes its shared `len`/journal counters once per block of 32
    /// tuples instead of once per tuple. The default — custom stores —
    /// just loops over [`TableStore::insert`].
    fn insert_batch(&self, tuples: &[Tuple], outcomes: &mut Vec<InsertOutcome>) {
        outcomes.extend(tuples.iter().map(|t| self.insert(t.clone())));
    }

    /// True if an identical tuple is present.
    fn contains(&self, t: &Tuple) -> bool;

    /// Number of tuples currently stored.
    fn len(&self) -> usize;

    /// True when the store holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every tuple; stop early by returning `false` from `f`.
    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool);

    /// Visits every tuple matching `q`; stop early by returning `false`.
    ///
    /// The one read entry point: a positional query arrives as a probe
    /// without bind slots, a prepared query's call with its bound values
    /// alongside ([`Probe::eq_value`] and [`Probe::matches`] read both).
    /// The default implementation scans and post-filters; indexed stores
    /// override it to narrow first.
    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        self.for_each(&mut |t| if q.matches(t) { f(t) } else { true });
    }

    /// Discards tuples that `keep` rejects. This is the hook for the
    /// paper's manual tuple-lifetime hints (§5 step 4): "we simply retain
    /// all tuples, or use manual lifetime hints from the user to determine
    /// when tuples can be discarded". Stores that do not support discarding
    /// may ignore the call.
    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool);

    /// Physically reclaims storage that [`TableStore::retain`] only
    /// logically discarded, if more than `max_tombstone_fraction` of the
    /// store's ever-occupied capacity is dead. Returns true when a
    /// compaction actually ran.
    ///
    /// **Quiescence contract**: the caller must guarantee no concurrent
    /// access to the store for the duration of the call — the engine
    /// invokes this only from the coordinator's maintain phase, after
    /// the step's fork/join scope has joined and before any new work is
    /// spawned. The default ignores the call: a custom store's `retain`
    /// is expected to free memory itself.
    fn maybe_compact(&self, max_tombstone_fraction: f64) -> bool {
        let _ = max_tombstone_fraction;
        false
    }

    /// Opens a snapshot *restore* into this store: about `rows` rows are
    /// to replace its contents, handed over in batches as the reader
    /// decodes them — see [`StagedImport`]. A snapshot is a set: each
    /// row must come out of the store's own insert `Fresh`, and every
    /// row that does not (a repeat, a second row under a `->` key) is
    /// counted, never dropped silently — the restoring engine reports
    /// such a file as corrupt however well its checksums match.
    ///
    /// A store that can build its replacement aside does so as the
    /// batches arrive, counts as it goes and swaps on commit
    /// ([`HashStore`] fills a right-sized fresh table through its batch
    /// insert). The default — custom stores only — cannot: it only
    /// collects, and on commit empties the store and re-inserts row by
    /// row, counting then.
    ///
    /// **Quiescence contract**: like [`TableStore::maybe_compact`], no
    /// other thread may be using the store when the import is committed
    /// ([`crate::engine::Engine::restore`] runs strictly before any
    /// worker exists).
    fn begin_import(&self, rows: usize) -> Box<dyn StagedImport + '_> {
        Box::new(CollectedImport {
            store: self,
            rows: Vec::with_capacity(rows),
        })
    }

    /// The current [`IndexStamp`] of this store's backing storage, or
    /// `None` when the store keeps no append-only claim journal (custom
    /// stores; every built-in store has one). A column view is built off
    /// the journal up to the stamp's generation, and cut into pieces on
    /// the pool; without a stamp it is built over one
    /// [`TableStore::for_each`] pass, and the store's snapshot sections
    /// are encoded every time.
    /// Returning `Some` commits the store to a working
    /// [`TableStore::for_each_journal_suffix`]: the two hooks describe
    /// the same journal.
    fn index_stamp(&self) -> Option<IndexStamp> {
        None
    }

    /// Visits the live tuples at claim-journal positions `[lo, hi)` in
    /// journal order and returns the bound actually covered: appends
    /// still in flight clamp the walk at the first unpublished entry
    /// (`lo <= returned <= hi`), so a caller that records the returned
    /// bound never permanently skips a tuple. Only meaningful on stores
    /// whose [`TableStore::index_stamp`] returns `Some`; the default
    /// covers nothing.
    fn for_each_journal_suffix(&self, lo: usize, hi: usize, f: &mut dyn FnMut(&Tuple)) -> usize {
        let _ = (hi, f);
        lo
    }

    /// Downcasting hook so rules can reach app-specific stores (the
    /// paper's custom `double[2][100_000_000]` Median store, for example).
    fn as_any(&self) -> &dyn Any;
}

/// A snapshot import under way (see [`TableStore::begin_import`]): the
/// rows pushed so far have been taken — and, where the store can, built
/// into the structure that will replace its contents — but the store
/// itself still holds what it held. The restoring engine commits no
/// table before every table has taken all its rows, so a snapshot that
/// one table refuses leaves all of them as they were. Dropping a staged
/// import abandons it.
pub trait StagedImport {
    /// Takes the next rows (all of `rows`, which is left empty with its
    /// capacity, for the reader to refill). Returns how many of them
    /// were found not `Fresh`: non-zero means the snapshot is corrupt,
    /// and the import should be dropped.
    fn push(&mut self, rows: &mut Vec<Tuple>) -> usize;

    /// Called once every row has been pushed, before any import of the
    /// snapshot commits: the rows found not `Fresh` by a store that can
    /// judge them only all together ([`WriteOnceStore`] sorts them
    /// here, on `pool` when there is one). Non-zero means the snapshot
    /// is corrupt, as for [`StagedImport::push`].
    fn check(&mut self, pool: Option<&ThreadPool>) -> usize {
        let _ = pool;
        0
    }

    /// Replaces the store's contents with the rows pushed. Returns the
    /// rows found not `Fresh` only now — by a store that could not
    /// check without inserting (such a store has been modified all the
    /// same); 0 from one that checked while building aside.
    fn commit(self: Box<Self>) -> usize;
}

/// The import of a store with nothing to build aside with
/// ([`TableStore::begin_import`]'s default, which only custom stores
/// take).
struct CollectedImport<'a, S: ?Sized> {
    store: &'a S,
    rows: Vec<Tuple>,
}

impl<S: TableStore + ?Sized> StagedImport for CollectedImport<'_, S> {
    fn push(&mut self, rows: &mut Vec<Tuple>) -> usize {
        self.rows.append(rows);
        0
    }

    fn commit(self: Box<Self>) -> usize {
        let CollectedImport { store, rows } = *self;
        store.retain(&|_| false);
        let mut rejected = 0;
        for t in rows {
            if store.insert(t) != InsertOutcome::Fresh {
                rejected += 1;
            }
        }
        rejected
    }
}

/// How to build the store for one table.
///
/// The paper's Java runtime (§5) defaults to `TreeSet` for sequential
/// runs and to `ConcurrentSkipListSet` for parallel ones; here both
/// engine modes take [`StoreKind::ConcurrentOrdered`].
#[derive(Clone)]
pub enum StoreKind {
    /// The default in every engine mode: a [`HashStore`] chained on the
    /// first column (no chain at arity 0).
    ConcurrentOrdered,
    /// A [`HashStore`] chained on the named fields (the paper's `HashSet`
    /// / `ConcurrentHashMap` alternative, "considerably more efficient"
    /// when queries always bind those fields).
    Hash { index_fields: Vec<String> },
    /// App-provided store (native arrays, array-of-hashsets, ...).
    Custom(StoreFactory),
}

impl std::fmt::Debug for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreKind::ConcurrentOrdered => write!(f, "ConcurrentOrdered"),
            StoreKind::Hash { index_fields } => write!(f, "Hash(index={index_fields:?})"),
            StoreKind::Custom(_) => write!(f, "Custom"),
        }
    }
}

impl StoreKind {
    /// [`StoreKind::ConcurrentOrdered`] whatever the argument. Kept only
    /// because the spine benchmark's adapter still reads it; the engine
    /// does not call it.
    #[doc(hidden)]
    pub fn default_for(_parallel: bool) -> StoreKind {
        StoreKind::ConcurrentOrdered
    }

    /// Builds the store for `def`, reporting misconfiguration (an
    /// index field the table does not have, an empty index list) as a
    /// [`crate::error::JStarError`] instead of panicking — the
    /// restore-adjacent construction path must never crash on bad
    /// input.
    pub fn try_build(&self, def: Arc<TableDef>) -> crate::error::Result<Arc<dyn TableStore>> {
        use crate::error::JStarError;
        Ok(match self {
            StoreKind::ConcurrentOrdered => {
                let chain = if def.arity() > 0 { vec![0] } else { vec![] };
                Arc::new(HashStore::new(def, chain))
            }
            StoreKind::Hash { index_fields } => {
                if index_fields.is_empty() {
                    return Err(JStarError::Other(format!(
                        "table {}: a Hash store needs at least one index field",
                        def.name
                    )));
                }
                let mut idx = Vec::with_capacity(index_fields.len());
                for n in index_fields {
                    idx.push(def.column_index(n).ok_or_else(|| JStarError::NoSuchField {
                        table: def.name.clone(),
                        field: n.clone(),
                    })?);
                }
                Arc::new(HashStore::new(def, idx))
            }
            StoreKind::Custom(f) => f(def),
        })
    }

    /// Builds the store for `def`, panicking on misconfiguration —
    /// the infallible convenience over [`StoreKind::try_build`].
    pub fn build(&self, def: Arc<TableDef>) -> Arc<dyn TableStore> {
        self.try_build(def).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The Gamma database: one store per table.
pub struct Gamma {
    stores: Vec<Arc<dyn TableStore>>,
    /// The stores of the write-once tables, by `TableId` (see
    /// [`WriteOnceStore`]); `None` for every other table.
    write_once: Vec<Option<Arc<WriteOnceStore>>>,
    /// Column-view opens served by a view already built: a write-once
    /// table's sealed view, or a column the same call opened before.
    view_hits: AtomicU64,
    /// Column-view opens that built the view.
    view_misses: AtomicU64,
    /// Rows sorted by those builds and by write-once seals.
    view_build_tuples: AtomicU64,
}

impl Gamma {
    /// Builds Gamma from per-table store kinds (indexed by `TableId`),
    /// reporting store misconfiguration as an error.
    pub fn try_new(defs: &[Arc<TableDef>], kinds: &[StoreKind]) -> crate::error::Result<Gamma> {
        Gamma::with_write_once(defs, kinds, &[], 1)
    }

    /// [`Gamma::try_new`] with a [`WriteOnceStore`] of `runs` runs for
    /// every table `write_once` marks, in place of its kind's store.
    pub(crate) fn with_write_once(
        defs: &[Arc<TableDef>],
        kinds: &[StoreKind],
        write_once: &[bool],
        runs: usize,
    ) -> crate::error::Result<Gamma> {
        if defs.len() != kinds.len() {
            return Err(crate::error::JStarError::Other(format!(
                "Gamma: {} table defs but {} store kinds",
                defs.len(),
                kinds.len()
            )));
        }
        let mut stores: Vec<Arc<dyn TableStore>> = Vec::with_capacity(defs.len());
        let mut once = Vec::with_capacity(defs.len());
        for (i, (d, k)) in defs.iter().zip(kinds).enumerate() {
            if write_once.get(i) == Some(&true) {
                let store = Arc::new(WriteOnceStore::new(Arc::clone(d), runs));
                stores.push(Arc::clone(&store) as Arc<dyn TableStore>);
                once.push(Some(store));
            } else {
                stores.push(k.try_build(Arc::clone(d))?);
                once.push(None);
            }
        }
        Ok(Gamma {
            stores,
            write_once: once,
            view_hits: AtomicU64::new(0),
            view_misses: AtomicU64::new(0),
            view_build_tuples: AtomicU64::new(0),
        })
    }

    /// The write-once tables, ascending.
    pub(crate) fn write_once_tables(&self) -> impl Iterator<Item = TableId> + '_ {
        (self.write_once.iter().enumerate())
            .filter(|(_, w)| w.is_some())
            .map(|(i, _)| TableId(i as u32))
    }

    /// The store of `table` when it is write-once.
    pub(crate) fn write_once(&self, table: TableId) -> Option<&WriteOnceStore> {
        self.write_once[table.index()].as_deref()
    }

    /// Appends `tuples` to run `run` of `table`'s store when the table is
    /// write-once (every row counts as fresh until it is sealed); false,
    /// and nothing done, for any other table.
    pub(crate) fn append(&self, table: TableId, run: usize, tuples: &[Tuple]) -> bool {
        match self.write_once(table) {
            Some(store) => {
                store.append(run, tuples);
                true
            }
            None => false,
        }
    }

    /// Seals the write-once stores of `tables` that hold rows no seal has
    /// taken, one after another, each on `pool` (see [`WriteOnceStore`]),
    /// counting the rows each build sorted among the view builds', and
    /// hands back what every seal of each of them — this one, and any a
    /// read made since the last call — found.
    pub(crate) fn seal(
        &self,
        tables: &[TableId],
        pool: Option<&ThreadPool>,
    ) -> Vec<(TableId, SealReport)> {
        let mut reports = Vec::with_capacity(tables.len());
        for &table in tables {
            let Some(store) = self.write_once(table) else {
                continue;
            };
            let rows = store.seal(pool);
            // ord: Relaxed — statistic only.
            self.view_build_tuples
                .fetch_add(rows as u64, Ordering::Relaxed);
            reports.push((table, store.take_report()));
        }
        reports
    }

    /// Column-view counters, monotone over Gamma's lifetime: opens served
    /// by a view already built, opens that built one, and the rows sorted
    /// by those builds and by write-once seals — the source of
    /// `RunReport::{index_cache_hits, index_cache_misses,
    /// index_build_tuples}`.
    pub fn view_counts(&self) -> (u64, u64, u64) {
        // ord: Relaxed ×3 — statistics only.
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (
            count(&self.view_hits),
            count(&self.view_misses),
            count(&self.view_build_tuples),
        )
    }

    /// Builds Gamma from per-table store kinds (indexed by `TableId`).
    /// Panics on misconfiguration — see [`Gamma::try_new`].
    pub fn new(defs: &[Arc<TableDef>], kinds: &[StoreKind]) -> Gamma {
        Gamma::try_new(defs, kinds).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The store for `table`.
    pub fn store(&self, table: TableId) -> &Arc<dyn TableStore> {
        &self.stores[table.index()]
    }

    /// Inserts `t` into its table's store.
    pub fn insert(&self, t: Tuple) -> InsertOutcome {
        self.stores[t.table().index()].insert(t)
    }

    /// Batch-inserts same-table tuples (the engine's one insert path);
    /// see [`TableStore::insert_batch`].
    pub fn insert_batch(
        &self,
        table: TableId,
        tuples: &[Tuple],
        outcomes: &mut Vec<InsertOutcome>,
    ) {
        self.stores[table.index()].insert_batch(tuples, outcomes);
    }

    /// True if an identical tuple is present.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.stores[t.table().index()].contains(t)
    }

    /// Runs `q` against the owning table's store.
    pub fn query(&self, q: &Query, f: &mut dyn FnMut(&Tuple) -> bool) {
        self.stores[q.table.index()].query(q.probe(), f);
    }

    /// Collects all matches of `q` (convenience for rule bodies and tests).
    pub fn collect(&self, q: &Query) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.query(q, &mut |t| {
            out.push(t.clone());
            true
        });
        out
    }

    /// Opens a sorted per-column join view over `table` — every
    /// distinct value of `field` ascending, each with its tuples ordered
    /// by their next column (see [`ColumnIndex`]) — shared (`Arc`) by
    /// all workers of one walk, each over its own [`ColumnCursor`].
    /// Column 0 of a write-once table is its sealed view (see
    /// [`WriteOnceStore`]); any other column is built on every open, off
    /// the claim journal ([`TableStore::index_stamp`]) or, for a store
    /// with no stamp, over [`TableStore::for_each`]. The engine counts
    /// each open as one query against the table (plus a
    /// `join_cursor_opens` tick), so the probe ledger stays honest.
    pub fn open_cursor(&self, table: TableId, field: usize) -> Arc<ColumnIndex> {
        self.open_views(&[(table, field)], None).swap_remove(0)
    }

    /// [`Gamma::open_cursor`] for each of `columns`, each view counted a
    /// hit or a miss ([`Gamma::view_counts`]): a column named before in
    /// `columns` shares that view and a write-once table's column 0 is
    /// its sealed view, both hits; any other column is a miss, built on
    /// `pool` and cut into pieces (see [`cursor`]'s module docs), one
    /// piece without a pool, one build after another.
    pub(crate) fn open_views(
        &self,
        columns: &[(TableId, usize)],
        pool: Option<&ThreadPool>,
    ) -> Vec<Arc<ColumnIndex>> {
        let mut out: Vec<Arc<ColumnIndex>> = Vec::with_capacity(columns.len());
        for (i, &(table, field)) in columns.iter().enumerate() {
            let built = match columns[..i].iter().position(|&c| c == (table, field)) {
                Some(j) => Some(Arc::clone(&out[j])),
                None => (self.write_once(table))
                    .filter(|_| field == 0)
                    .map(WriteOnceStore::view),
            };
            let view = match built {
                Some(view) => {
                    // ord: Relaxed — statistic only.
                    self.view_hits.fetch_add(1, Ordering::Relaxed);
                    view
                }
                None => {
                    let view = store_view(self.stores[table.index()].as_ref(), field, pool);
                    // ord: Relaxed ×2 — statistics only.
                    self.view_misses.fetch_add(1, Ordering::Relaxed);
                    self.view_build_tuples
                        .fetch_add(view.rows.len() as u64, Ordering::Relaxed);
                    Arc::new(view)
                }
            };
            out.push(view);
        }
        out
    }

    /// Total number of stored tuples across all tables.
    pub fn total_len(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }
}

/// Primary-key conflict test: true when `a` and `b` have equal key
/// fields but differ elsewhere.
pub(crate) fn pk_conflict(def: &TableDef, a: &Tuple, b: &Tuple) -> bool {
    match def.key_arity {
        None => false,
        Some(k) => a.fields()[..k] == b.fields()[..k] && a.fields()[k..] != b.fields()[k..],
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::orderby::{seq, strat};
    use crate::schema::TableDefBuilder;

    /// A 3-column test table: key `a` -> `b`, `c`.
    pub fn keyed_def() -> Arc<TableDef> {
        let b = TableDefBuilder::new("K")
            .col_int("a")
            .col_int("b")
            .col_str("c")
            .key(1)
            .orderby(&[strat("K"), seq("a")]);
        Arc::new(TableDef {
            id: TableId(0),
            name: b.name,
            columns: b.columns,
            key_arity: b.key_arity,
            orderby: b.orderby,
        })
    }

    /// [`keyed_def`]'s columns with no key: a pure set of [`kt`] rows.
    pub fn keyless_def() -> Arc<TableDef> {
        let mut def = (*keyed_def()).clone();
        def.key_arity = None;
        Arc::new(def)
    }

    /// A keyless (pure set) 2-column table.
    pub fn set_def() -> Arc<TableDef> {
        let b = TableDefBuilder::new("S").col_int("x").col_int("y");
        Arc::new(TableDef {
            id: TableId(0),
            name: b.name,
            columns: b.columns,
            key_arity: b.key_arity,
            orderby: b.orderby,
        })
    }

    /// Gamma over one table of `def`, kept in a [`HashStore`] chained on
    /// column 0 whose 256-slot first segment holds every row the view
    /// tests insert, so journal positions stay append-only (under
    /// `model-check` too, whose floor is 16 slots).
    pub fn journaled_gamma(def: Arc<TableDef>) -> Gamma {
        let store: StoreFactory =
            Arc::new(|def| Arc::new(HashStore::with_first_segment(def, vec![0], 256)));
        Gamma::new(&[def], &[StoreKind::Custom(store)])
    }

    pub fn kt(a: i64, b: i64, c: &str) -> Tuple {
        Tuple::new(
            TableId(0),
            vec![
                crate::value::Value::Int(a),
                crate::value::Value::Int(b),
                crate::value::Value::str(c.to_string()),
            ],
        )
    }

    /// 100 tuples over [`keyed_def`] with every batch edge case in
    /// sequence: a fresh tuple, a `->` conflict with it, an exact duplicate
    /// of it — adjacent, so any batch of three or more holds all of them
    /// *inside* one batch — and a fresh tuple elsewhere.
    pub fn batch_edge_cases() -> Vec<Tuple> {
        (0..100)
            .map(|i| match i % 4 {
                0 => kt(i / 4, i, "v"),
                1 => kt(i / 4, i, "v"),     // key conflict with the 0-arm
                2 => kt(i / 4, i - 2, "v"), // duplicate of the 0-arm
                _ => kt(1000 + i, i, "w"),  // fresh, other key
            })
            .collect()
    }

    /// Holds a store filled through [`TableStore::insert_batch`] (in
    /// batches of `batch`) against one filled by a loop over
    /// [`TableStore::insert`]: per-tuple outcomes in order, `len`, the
    /// `for_each` contents and the claim journal as multisets — the
    /// journal walked to its generation, so a reserved cell left zero
    /// (which stops the stable prefix short) fails here — and each of
    /// `probes` (the index paths: probe walk, secondary chain).
    pub fn assert_batch_matches_loop(
        batched: &dyn TableStore,
        looped: &dyn TableStore,
        tuples: &[Tuple],
        batch: usize,
        probes: &[Query],
    ) {
        let want: Vec<InsertOutcome> = tuples.iter().map(|t| looped.insert(t.clone())).collect();
        let mut got = Vec::new();
        for run in tuples.chunks(batch) {
            batched.insert_batch(run, &mut got);
        }
        assert_eq!(got, want, "outcomes in batch order (batches of {batch})");
        assert!(want.contains(&InsertOutcome::Fresh) && want.contains(&InsertOutcome::Duplicate));
        assert_eq!(batched.len(), looped.len());

        let sorted = |mut v: Vec<Tuple>| {
            v.sort();
            v
        };
        let contents = |store: &dyn TableStore| {
            let mut all = Vec::new();
            store.for_each(&mut |t| {
                all.push(t.clone());
                true
            });
            sorted(all)
        };
        let journal = |store: &dyn TableStore| {
            let generation = store.index_stamp().expect("journaled store").generation;
            let mut entries = Vec::new();
            let covered =
                store.for_each_journal_suffix(0, generation, &mut |t| entries.push(t.clone()));
            assert_eq!(covered, generation, "no journal cell left unfilled");
            sorted(entries)
        };
        assert_eq!(contents(batched), contents(looped));
        assert_eq!(contents(batched).len(), looped.len());
        assert_eq!(journal(batched), contents(looped), "journal = contents");
        assert_eq!(journal(looped), contents(looped));
        let mut hits = 0;
        for q in probes {
            let rows = |store: &dyn TableStore| {
                let mut rows = Vec::new();
                store.query(q.probe(), &mut |t| {
                    rows.push(t.clone());
                    true
                });
                sorted(rows)
            };
            assert_eq!(rows(batched), rows(looped), "{q:?}");
            hits += rows(batched).len();
        }
        assert!(hits > 0, "the probes must reach stored tuples");
    }

    /// A store with nothing but the required methods — what a custom
    /// store gets from the trait's defaults: no journal, no import of
    /// its own, reads through the default `query`, and column views
    /// built over `for_each`.
    pub struct PlainStore(pub HashStore);

    impl TableStore for PlainStore {
        fn insert(&self, t: Tuple) -> InsertOutcome {
            self.0.insert(t)
        }
        fn contains(&self, t: &Tuple) -> bool {
            self.0.contains(t)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
            self.0.for_each(f)
        }
        fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
            self.0.retain(keep)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Exercises the store contract shared by every implementation, over
    /// [`kt`] rows of [`keyed_def`] (`keyed`) or [`keyless_def`].
    pub fn exercise_store_contract(store: &dyn TableStore, keyed: bool) {
        use crate::value::Value;
        // Fresh insert.
        assert_eq!(store.insert(kt(1, 10, "x")), InsertOutcome::Fresh);
        // Exact duplicate.
        assert_eq!(store.insert(kt(1, 10, "x")), InsertOutcome::Duplicate);
        // Same a, different b: a key conflict, or a second row.
        let ones = if keyed {
            assert_eq!(store.insert(kt(1, 11, "x")), InsertOutcome::KeyConflict);
            vec![kt(1, 10, "x")]
        } else {
            assert_eq!(store.insert(kt(1, 11, "x")), InsertOutcome::Fresh);
            vec![kt(1, 10, "x"), kt(1, 11, "x")]
        };
        // Different key is fine.
        assert_eq!(store.insert(kt(2, 20, "y")), InsertOutcome::Fresh);
        assert_eq!(store.len(), ones.len() + 1);
        assert!(store.contains(&kt(1, 10, "x")));
        assert!(!store.contains(&kt(1, 10, "z")));

        let rows = |q: Query| {
            let mut got = Vec::new();
            store.query(q.probe(), &mut |t| {
                got.push(t.clone());
                true
            });
            got.sort();
            got
        };
        // Query by key field; a negative query.
        assert_eq!(rows(Query::on(TableId(0)).eq(0, 1i64)), ones);
        assert!(rows(Query::on(TableId(0)).eq(0, 3i64)).is_empty());

        // Early exit iteration visits at most one tuple.
        let mut seen = 0;
        store.for_each(&mut |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);

        // Range query on second field.
        assert_eq!(
            rows(Query::on(TableId(0)).ge(1, 15i64)),
            vec![kt(2, 20, "y")]
        );

        // Cursor view as an open builds it: distinct column values
        // ascending, grouped.
        let idx = Arc::new(store_view(store, 0, None));
        assert_eq!(idx.len(), 2);
        let mut c = idx.cursor();
        assert_eq!(c.key(), Some(&Value::Int(1)));
        assert_eq!(c.seek_exact(&Value::Int(2)).map(|g| g.len()), Some(1));
        c.next();
        assert!(c.is_exhausted());

        // Retain drops what keep rejects.
        store.retain(&|t| t.get(0) == &Value::Int(1));
        assert_eq!(store.len(), ones.len());
        assert!(store.contains(&kt(1, 10, "x")));
        assert!(!store.contains(&kt(2, 20, "y")));
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::value::Value;

    #[test]
    fn pk_conflict_detection() {
        let def = keyed_def();
        assert!(pk_conflict(&def, &kt(1, 2, "a"), &kt(1, 3, "a")));
        assert!(!pk_conflict(&def, &kt(1, 2, "a"), &kt(1, 2, "a")));
        assert!(!pk_conflict(&def, &kt(1, 2, "a"), &kt(2, 2, "a")));
    }

    #[test]
    fn keyless_table_never_conflicts() {
        let def = set_def();
        let a = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(2)]);
        let b = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(3)]);
        assert!(!pk_conflict(&def, &a, &b));
    }

    #[test]
    fn gamma_routes_to_table_stores() {
        let def = keyed_def();
        let gamma = Gamma::new(&[Arc::clone(&def)], &[StoreKind::ConcurrentOrdered]);
        assert_eq!(gamma.insert(kt(1, 5, "v")), InsertOutcome::Fresh);
        assert_eq!(gamma.insert(kt(1, 5, "v")), InsertOutcome::Duplicate);
        assert!(gamma.contains(&kt(1, 5, "v")));
        assert_eq!(gamma.total_len(), 1);
        let all = gamma.collect(&Query::on(TableId(0)));
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn try_build_reports_misconfiguration() {
        let def = keyed_def();
        let kind = StoreKind::Hash {
            index_fields: vec!["nope".into()],
        };
        let err = kind.try_build(Arc::clone(&def)).err().expect("must fail");
        assert!(
            matches!(
                &err,
                crate::error::JStarError::NoSuchField { table, field }
                    if table == "K" && field == "nope"
            ),
            "{err:?}"
        );

        let kind = StoreKind::Hash {
            index_fields: vec![],
        };
        assert!(kind.try_build(Arc::clone(&def)).is_err());

        let err = Gamma::try_new(&[def], &[]).err().expect("must fail");
        assert!(err.to_string().contains("store kinds"));
    }

    #[test]
    #[should_panic(expected = "no field nope")]
    fn build_still_panics_for_infallible_callers() {
        let kind = StoreKind::Hash {
            index_fields: vec!["nope".into()],
        };
        let _ = kind.build(keyed_def());
    }

    #[test]
    fn snapshot_hooks_default_roundtrip() {
        let def = keyed_def();
        let a = Gamma::new(&[Arc::clone(&def)], &[StoreKind::ConcurrentOrdered]);
        a.insert(kt(1, 10, "x"));
        a.insert(kt(2, 20, "y"));

        let mut exported = Vec::new();
        a.store(TableId(0)).for_each(&mut |t| {
            exported.push(t.clone());
            true
        });
        assert_eq!(exported.len(), 2);

        // Import replaces pre-existing contents — on commit, not before.
        let b = Gamma::new(&[def], &[StoreKind::ConcurrentOrdered]);
        b.insert(kt(9, 90, "stale"));
        let mut import = b.store(TableId(0)).begin_import(2);
        assert_eq!(import.push(&mut exported.clone()), 0);
        assert!(b.contains(&kt(9, 90, "stale")));
        assert_eq!(import.commit(), 0);
        assert_eq!(b.total_len(), 2);
        assert!(b.contains(&kt(1, 10, "x")));
        assert!(b.contains(&kt(2, 20, "y")));
        assert!(!b.contains(&kt(9, 90, "stale")));

        // A repeated row and a second row under a `->` key are counted
        // — against rows of an earlier batch too — while the store is
        // still untouched.
        let mut import = b.store(TableId(0)).begin_import(4);
        assert_eq!(import.push(&mut exported), 0);
        assert!(exported.is_empty());
        assert_eq!(import.push(&mut vec![kt(2, 20, "y"), kt(1, 11, "x")]), 2);
        drop(import);
        assert_eq!(b.total_len(), 2);
    }

    #[test]
    fn default_import_inserts_on_commit_and_reports_what_was_not_fresh() {
        let store = PlainStore(HashStore::new(keyed_def(), vec![0]));
        store.insert(kt(9, 90, "stale"));
        let mut import = store.begin_import(3);
        // Nothing to build aside with: untouched and unjudged until the
        // commit, which reports the repeat.
        assert_eq!(import.push(&mut vec![kt(1, 10, "x"), kt(2, 20, "y")]), 0);
        assert_eq!(import.push(&mut vec![kt(1, 10, "x")]), 0);
        assert_eq!(store.len(), 1);
        assert_eq!(import.commit(), 1);
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&kt(9, 90, "stale")));
    }

    #[test]
    fn chunked_export_reproduces_the_sequential_stream() {
        let def = keyed_def();
        for kind in [
            StoreKind::ConcurrentOrdered,
            StoreKind::Hash {
                index_fields: vec!["b".into()],
            },
        ] {
            let store = kind.build(Arc::clone(&def));
            // A few tombstones, so chunks cross dead entries.
            for i in 0..20_000i64 {
                store.insert(kt(i, i * 2, "v"));
            }
            store.retain(&|t| !matches!(t.get(0), crate::value::Value::Int(i) if i % 7 == 0));

            // The one-piece walk visits every live row once.
            let entries = store.index_stamp().expect("journaled").generation;
            assert_eq!(entries, 20_000);
            let mut sequential = Vec::new();
            let covered =
                store.for_each_journal_suffix(0, entries, &mut |t| sequential.push(t.clone()));
            assert_eq!((covered, sequential.len()), (entries, store.len()));

            // The journal walked in pieces — how the snapshot writer
            // spreads a large encode over the pool — is the same stream.
            for chunks in [2, 7] {
                let mut chunked = Vec::new();
                for c in 0..chunks {
                    let (lo, hi) = (entries * c / chunks, entries * (c + 1) / chunks);
                    let covered =
                        store.for_each_journal_suffix(lo, hi, &mut |t| chunked.push(t.clone()));
                    assert_eq!(covered, hi);
                }
                assert_eq!(chunked, sequential, "{kind:?} split into {chunks}");
            }
        }
    }

    /// The view of `field` over one `for_each` pass of table 0 — what a
    /// cold build of the table as it stands is.
    fn cold(gamma: &Gamma, field: usize) -> cursor::ColumnIndex {
        let mut rows = Vec::new();
        gamma.store(TableId(0)).for_each(&mut |t| {
            rows.push(t.clone());
            true
        });
        cursor::tests::view_of(field, &rows)
    }

    #[test]
    fn an_open_serves_the_sealed_view_or_builds() {
        use cursor::tests::view_of;
        let t0 = TableId(0);
        let rows: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(t0, vec![Value::Int(i % 7), Value::Int(i)]))
            .collect();

        // A write-once table's column 0 is its sealed view: a hit that
        // sorts nothing. Its column 1 is built.
        let once =
            Gamma::with_write_once(&[set_def()], &[StoreKind::ConcurrentOrdered], &[true], 1)
                .expect("one table, one kind");
        assert!(once.append(t0, 0, &rows));
        once.seal(&[t0], None);
        assert_eq!(once.view_counts(), (0, 0, 40), "the seal sorted every row");
        let store = once.write_once(t0).expect("write-once");
        assert!(Arc::ptr_eq(&once.open_cursor(t0, 0), &store.view()));
        assert_eq!(once.view_counts(), (1, 0, 40), "a hit, no build");
        assert_eq!(*once.open_cursor(t0, 1), view_of(1, &rows));
        assert_eq!(once.view_counts(), (1, 1, 80));

        // An unchanged `HashStore` column is built on every open.
        let gamma = Gamma::new(&[set_def()], &[StoreKind::ConcurrentOrdered]);
        rows.iter()
            .for_each(|t| assert_eq!(gamma.insert(t.clone()), InsertOutcome::Fresh));
        let (a, b) = (gamma.open_cursor(t0, 1), gamma.open_cursor(t0, 1));
        assert_eq!(gamma.view_counts(), (0, 2, 80), "two opens, two builds");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);

        // A column named twice in one call is one build and one hit.
        let views = gamma.open_views(&[(t0, 0), (t0, 1), (t0, 0)], None);
        assert!(Arc::ptr_eq(&views[0], &views[2]));
        assert_eq!(gamma.view_counts(), (1, 4, 160));
        assert_eq!(*views[0], cold(&gamma, 0));

        assert_eq!(cursor::ColumnIndex::empty(), view_of(0, &[]));
    }

    #[test]
    fn a_grown_table_is_rebuilt_whole_and_matches_cold() {
        // Descending keys: the 20 new rows sort *below* the 80 the first
        // open saw. The reopen sorts all 100 rows again — never only the
        // 20 — and equals a cold build of the table.
        let gamma = journaled_gamma(keyed_def());
        for i in 0..80 {
            gamma.insert(kt(1000 - i, i, "v"));
        }
        let _ = gamma.open_cursor(TableId(0), 0);
        for i in 80..100 {
            gamma.insert(kt(1000 - i, i, "v"));
        }
        let reopened = gamma.open_cursor(TableId(0), 0);
        let (hits, misses, build_tuples) = gamma.view_counts();
        assert_eq!((hits, misses), (0, 2), "both opens built");
        assert_eq!(build_tuples, 80 + 100, "the rebuild sorted every row");
        assert_eq!(*reopened, cold(&gamma, 0), "rebuilt == cold build");
    }

    #[test]
    fn cached_view_equals_cold_build_after_every_growth() {
        // The reference is a cold build over the same store's
        // `for_each`, compared on every flat array. Field 1 repeats
        // (i % 7), so every round's rows land inside the groups of the
        // round before as well as between them — group-internal order
        // (next column, then journal order) is part of the contract.
        // Once with a string column and once all-integer; the key
        // column is dense either way. Each round opens the view twice,
        // and both opens build it.
        for packed in [false, true] {
            let gamma = journaled_gamma(if packed { set_def() } else { keyed_def() });
            for round in 0..5 {
                for i in round * 30..(round + 1) * 30 {
                    gamma.insert(if packed {
                        Tuple::new(TableId(0), vec![Value::Int(i), Value::Int((i * 5) % 7)])
                    } else {
                        kt(i, (i * 5) % 7, "v")
                    });
                }
                let opened = gamma.open_cursor(TableId(0), 1);
                assert_eq!(
                    *opened,
                    cold(&gamma, 1),
                    "round {round}: the view diverged from the cold build"
                );
                assert_eq!(*opened, *gamma.open_cursor(TableId(0), 1));
                assert!(opened.int_keys.is_some());
            }
            let (hits, misses, build_tuples) = gamma.view_counts();
            assert_eq!((misses, hits), (10, 0), "two builds a round");
            assert_eq!(build_tuples, 2 * (30 + 60 + 90 + 120 + 150));
        }
    }

    #[test]
    fn rebuild_places_rows_inside_groups_below_old_next_values() {
        // Groups x = 0, 1, 2 are ordered by y (their next column). Each
        // round's rows carry y values *below* every one already in their
        // group, and one above: the rebuilt view places them inside the
        // groups, as a cold build does, not at their ends.
        let gamma = journaled_gamma(set_def());
        for round in 0..4 {
            for x in 0..3 {
                for y in [(3 - round) * 10 + x, (3 - round) * 10 + 5, 100 + round] {
                    gamma.insert(Tuple::new(TableId(0), vec![Value::Int(x), Value::Int(y)]));
                }
            }
            let opened = gamma.open_cursor(TableId(0), 0);
            assert_eq!(
                *opened,
                cold(&gamma, 0),
                "round {round}: the view diverged from the cold build"
            );
            let next = opened
                .int_next
                .as_deref()
                .expect("an all-integer next column");
            for g in 0..opened.len() {
                let group = &next[opened.group_range(g)];
                assert!(
                    group.windows(2).all(|w| w[0] <= w[1]),
                    "round {round}: {group:?}"
                );
            }
        }
        let (hits, misses, build_tuples) = gamma.view_counts();
        assert_eq!((misses, hits), (4, 0), "every grown round rebuilds");
        assert_eq!(build_tuples, 9 + 18 + 27 + 36);
    }

    #[test]
    fn a_claim_ahead_of_the_journals_end_invalidates_wholesale() {
        // A 256-slot first segment with 64-slot probe windows: rows spill
        // into the second segment while the first still takes claims, so
        // for a stretch new journal entries land *before* positions an
        // earlier open's walk read. Every reopen after new rows — across
        // that stretch as on either side of it — walks from position 0
        // and equals a cold build.
        let gamma = journaled_gamma(set_def());
        for round in 0..40 {
            for i in round * 30..(round + 1) * 30 {
                gamma.insert(Tuple::new(
                    TableId(0),
                    vec![Value::Int(i % 17), Value::Int(i)],
                ));
            }
            assert_eq!(
                *gamma.open_cursor(TableId(0), 0),
                cold(&gamma, 0),
                "round {round}: the view diverged from the cold build"
            );
        }
        let stamp = gamma.store(TableId(0)).index_stamp().expect("journaled");
        assert_ne!(stamp.interior, 0);
        assert_eq!(gamma.view_counts().1, 40);
    }

    #[test]
    fn retain_invalidates_wholesale() {
        let gamma = journaled_gamma(keyed_def());
        for i in 0..50 {
            gamma.insert(kt(i, i, "v"));
        }
        let _ = gamma.open_cursor(TableId(0), 0);
        gamma.store(TableId(0)).retain(&|t| t.int(0) % 2 == 0);
        let rebuilt = gamma.open_cursor(TableId(0), 0);
        assert_eq!(
            gamma.view_counts().1,
            2,
            "tombstones changed — full rebuild"
        );
        assert_eq!(*rebuilt, cold(&gamma, 0));
    }

    #[test]
    fn compaction_epoch_invalidates_wholesale() {
        let gamma = journaled_gamma(keyed_def());
        for i in 0..50 {
            gamma.insert(kt(i, i, "v"));
        }
        let _ = gamma.open_cursor(TableId(0), 0);
        let store = gamma.store(TableId(0));
        store.retain(&|t| t.int(0) < 10);
        assert!(store.maybe_compact(0.1), "compaction must run");
        let rebuilt = gamma.open_cursor(TableId(0), 0);
        assert_eq!(gamma.view_counts().1, 2);
        assert_eq!(*rebuilt, cold(&gamma, 0));
    }

    #[test]
    fn store_kind_default_matches_mode() {
        // One default for both engine modes.
        for parallel in [false, true] {
            assert!(matches!(
                StoreKind::default_for(parallel),
                StoreKind::ConcurrentOrdered
            ));
        }
    }
}

/// The paper's concurrent-set slot, [`StoreKind::ConcurrentOrdered`] — a
/// [`HashStore`] chained on the first column — built through its kind and
/// run through the per-store checks of `hash.rs`'s suite.
#[cfg(test)]
mod concurrent {
    mod tests {
        use crate::gamma::hash::tests::*;
        use crate::gamma::testutil::{keyed_def, keyless_def, kt};
        use crate::gamma::{HashStore, StoreKind, TableStore};
        use crate::query::Query;
        use crate::schema::{TableDef, TableId};
        use std::sync::Arc;

        /// Runs `check` on what `StoreKind::ConcurrentOrdered` builds for `def`.
        fn on_first_column(def: Arc<TableDef>, check: impl FnOnce(&HashStore)) {
            let store = StoreKind::ConcurrentOrdered.build(def);
            check(store.as_any().downcast_ref().expect("a HashStore"));
        }

        #[test]
        fn satisfies_store_contract() {
            on_first_column(keyed_def(), |s| check_contract("keyed on a", s));
            on_first_column(keyless_def(), |s| check_contract("keyless on a", s));
        }

        #[test]
        fn minimal_capacity_also_works() {
            // A one-slot first segment: every later row lands in a grown one.
            let store = HashStore::with_first_segment(keyed_def(), vec![0], 1);
            check_contract("one-slot first segment", &store);
        }

        #[test]
        fn insert_batch_matches_per_tuple_outcomes() {
            for def in [keyed_def(), keyless_def()] {
                let small = || HashStore::with_first_segment(Arc::clone(&def), vec![0], 16);
                check_batch("first column", &small);
            }
        }

        #[test]
        fn concurrent_inserts_preserve_set_semantics() {
            on_first_column(keyed_def(), |s| check_concurrent_inserts("keyed on a", s));
        }

        #[test]
        fn first_column_queries_narrow_via_the_chain_index() {
            // Keyed on `a`, a bound `a` takes the primary walk; keyless,
            // `a`'s chain. A `Hash` store chained on the first column
            // builds the same store: every query returns the same rows
            // and follows the same chain links.
            for def in [keyed_def(), keyless_def()] {
                let on_a = StoreKind::Hash {
                    index_fields: vec!["a".into()],
                };
                let hashed = on_a.build(Arc::clone(&def));
                let hashed: &HashStore = hashed.as_any().downcast_ref().expect("a HashStore");
                on_first_column(def, |s| {
                    for a in 0..200 {
                        s.insert(kt(a, a % 7, "v"));
                        hashed.insert(kt(a, a % 7, "v"));
                    }
                    let queries = queries(42, 3);
                    assert_query_paths("first column", s, &queries);
                    assert_query_paths("Hash on a", hashed, &queries);
                    for q in &queries {
                        assert_eq!(rows_and_hops(hashed, q), rows_and_hops(s, q), "{q:?}");
                    }
                });
            }
        }

        #[test]
        fn compaction_rebuilds_keyed_store() {
            on_first_column(keyed_def(), |s| check_compaction("keyed on a", s));
        }

        #[test]
        fn import_snapshot_replaces_contents_and_restores_narrowing() {
            on_first_column(keyed_def(), |s| check_import("keyed on a", s));
        }

        #[test]
        fn keyless_tables_narrow_on_first_column() {
            on_first_column(keyless_def(), |s| {
                for i in 0..300 {
                    s.insert(kt(i % 10, i, "v"));
                }
                let (rows, hops) = rows_and_hops(s, &Query::on(TableId(0)).eq(0, 4i64));
                assert_eq!(rows.len(), 30);
                assert!((30..300).contains(&hops), "{hops} hops, not a scan");
            });
        }
    }
}
