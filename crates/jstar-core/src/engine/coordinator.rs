//! The coordinator: a configured engine instance and its step loop,
//! written as the explicit phase state machine described in the
//! [module docs](super) — absorb → extract → execute → maintain.

use crate::delta::{DeltaTree, ShardedInbox};
use crate::error::Result;
use crate::gamma::leapfrog::{self, Stage};
use crate::gamma::{ColumnIndex, Gamma, StoreKind};
use crate::orderby::OrderKey;
use crate::program::Program;
use crate::relation::{lower, JoinShape, Relation, TableHandle, TypedQuery};
use crate::rule::JoinStage;
use crate::schema::TableId;
use crate::stats::{EngineStats, StepRecord};
use crate::tuple::Tuple;
use jstar_check::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use jstar_pool::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::config::EngineConfig;
use super::report::RunReport;
use super::runtime::{
    drain_staged, insert_and_fire, open_views, put_tuple, seal, walk_stages, QueryPlan, RunState,
    StagingSlot,
};
use super::schedule::{plan, ClassPlan};
use crate::error::JStarError;

/// The maintain phase rebuilds a lifetime-hinted table whose store is
/// more than this fraction tombstones, reclaiming the memory that
/// `retain` only logically discarded.
const COMPACT_TOMBSTONES_ABOVE: f64 = 0.5;

/// The **absorb** phase: at the step boundary, every tuple staged in
/// the [`ShardedInbox`] since the last absorb enters the Delta tree
/// through [`DeltaTree::merge_partitioned`]. The Law of Causality puts
/// every staged tuple in a later step than the class that staged it, so
/// taking them in once the class has joined is exact.
struct Absorb {
    /// The per-partition run buffers, recycled through every swap so
    /// staging allocations survive the round trip.
    runs: Vec<Vec<(OrderKey, Tuple)>>,
    /// Fresh Delta inserts per table, published as one stats update per
    /// touched table per absorb.
    inserted_by_table: Vec<u64>,
    merge_threshold: usize,
    timing: bool,
}

impl Absorb {
    fn new(state: &RunState, config: &EngineConfig) -> Absorb {
        Absorb {
            runs: vec![Vec::new(); state.inbox.partitions()],
            inserted_by_table: vec![0; state.program.defs().len()],
            merge_threshold: config.parallel_merge_threshold,
            timing: config.record_steps,
        }
    }

    fn run(&mut self, state: &RunState, tree: &mut DeltaTree, pool: Option<&ThreadPool>) {
        if state.inbox.is_empty() {
            return;
        }
        // `swap_epoch` is exact here: the class's scope join ordered
        // every worker push before this read.
        let t0 = self.timing.then(Instant::now);
        state.inbox.swap_epoch(&mut self.runs);
        let t1 = self.timing.then(Instant::now);
        tree.merge_partitioned(
            &mut self.runs,
            pool,
            &mut self.inserted_by_table,
            self.merge_threshold,
        );
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let stats = &state.stats;
            let partition = (t1 - t0).as_nanos() as u64;
            let merge = t1.elapsed().as_nanos() as u64;
            // ord: Relaxed ×3 — statistics counters, read after the run.
            stats
                .partition_nanos
                .fetch_add(partition, Ordering::Relaxed);
            stats.merge_nanos.fetch_add(merge, Ordering::Relaxed);
            stats
                .drain_nanos
                .fetch_add(partition + merge, Ordering::Relaxed);
        }
        for (ti, count) in self.inserted_by_table.iter_mut().enumerate() {
            if *count > 0 {
                // ord: Relaxed — statistic only.
                state.stats.tables[ti]
                    .delta_inserts
                    .fetch_add(*count, Ordering::Relaxed);
                *count = 0;
            }
        }
        state.inbox.assert_quiescent();
    }
}

/// A configured instance of a JStar program, ready to run.
pub struct Engine {
    state: Arc<RunState>,
    config: EngineConfig,
    pool: Option<Arc<ThreadPool>>,
    injected: Vec<Tuple>,
    /// Set by [`Engine::restore`]: the next [`Engine::run`] resumes
    /// from the restored state instead of re-putting the program's
    /// initial tuples (which the checkpointed run already processed).
    restored: bool,
}

/// The result of [`Engine::restore_latest`]: which checkpoint was
/// actually restored, and which newer files had to be skipped.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// The checkpoint file the engine restored from.
    pub path: std::path::PathBuf,
    /// Newer checkpoints skipped as unreadable (torn by a crash,
    /// corrupted on disk), newest first, each with the reported reason
    /// — surfaced rather than silently swallowed so callers can alert
    /// on storage rot.
    pub skipped: Vec<(std::path::PathBuf, JStarError)>,
}

/// A restore under way: what [`crate::persist::decode_snapshot`] decodes
/// is checked against the program and goes, batch by batch, into imports
/// staged beside the live stores. Dropped on any error, and the engine
/// is as it was.
struct Restoring<'e> {
    defs: &'e [Arc<crate::schema::TableDef>],
    gamma: &'e Gamma,
    /// One per section opened so far, in `TableId` order.
    imports: Vec<Box<dyn crate::gamma::StagedImport + 'e>>,
    pending: Vec<Tuple>,
}

fn not_a_set(def: &crate::schema::TableDef, rows: usize) -> JStarError {
    JStarError::CorruptSnapshot(format!(
        "table {}: {rows} rows repeat another row or break the `->` key",
        def.name
    ))
}

impl crate::persist::SnapshotSink for Restoring<'_> {
    fn header(
        &mut self,
        fingerprint: u64,
        _: crate::persist::SnapshotMeta,
        tables: usize,
    ) -> Result<()> {
        let expected = crate::persist::schema_fingerprint(self.defs);
        if fingerprint != expected {
            return Err(JStarError::SchemaMismatch(format!(
                "snapshot fingerprint {fingerprint:#018x} != this program's {expected:#018x} \
                 (table names, column types, keys or orderby lists differ)"
            )));
        }
        if tables != self.defs.len() {
            return Err(JStarError::SchemaMismatch(format!(
                "snapshot holds {tables} tables, program declares {}",
                self.defs.len()
            )));
        }
        Ok(())
    }

    fn section(&mut self, table: TableId, name: &str, rows: usize, _: u64) -> Result<()> {
        // (`table` counts up to the table count `header` accepted.)
        let def = &self.defs[table.index()];
        if name != def.name {
            return Err(JStarError::SchemaMismatch(format!(
                "snapshot table `{name}` where program declares `{}`",
                def.name
            )));
        }
        self.imports
            .push(self.gamma.store(table).begin_import(rows));
        Ok(())
    }

    fn rows(&mut self, rows: &mut Vec<Tuple>) -> Result<()> {
        let (Some(import), Some(first)) = (self.imports.last_mut(), rows.first()) else {
            return Ok(());
        };
        let def = &self.defs[first.table().index()];
        for t in rows.iter() {
            def.type_check(t.fields())
                .map_err(|msg| JStarError::CorruptSnapshot(format!("table {}: {msg}", def.name)))?;
        }
        match import.push(rows) {
            0 => Ok(()),
            rejected => Err(not_a_set(def, rejected)),
        }
    }

    fn pending(&mut self, t: Tuple) -> Result<()> {
        // (The reader bounds the index by the table count.)
        self.defs[t.table().index()]
            .type_check(t.fields())
            .map_err(|msg| JStarError::CorruptSnapshot(format!("pending: {msg}")))?;
        self.pending.push(t);
        Ok(())
    }
}

impl Engine {
    /// Builds an engine for `program` under `config`.
    ///
    /// Every table gets [`StoreKind::ConcurrentOrdered`] in either mode
    /// unless overridden via [`EngineConfig::store`].
    pub fn new(program: Arc<Program>, config: EngineConfig) -> Engine {
        let n = program.defs().len();
        let kinds: Vec<StoreKind> = (0..n)
            .map(|i| {
                config
                    .stores
                    .get(&TableId(i as u32))
                    .cloned()
                    .unwrap_or(StoreKind::ConcurrentOrdered)
            })
            .collect();
        let pool = if config.sequential {
            None
        } else {
            Some(
                config
                    .pool
                    .clone()
                    .unwrap_or_else(|| Arc::new(ThreadPool::new(config.threads))),
            )
        };
        let mut no_delta = vec![false; n];
        for t in &config.no_delta {
            no_delta[t.index()] = true;
        }
        let mut no_gamma = vec![false; n];
        for t in &config.no_gamma {
            no_gamma[t.index()] = true;
        }
        let plans: Vec<QueryPlan> = program.orderbys().iter().map(QueryPlan::new).collect();
        let workers = pool.as_ref().map(|p| p.num_threads()).unwrap_or(0);
        // Write-once tables (see `WriteOnceStore`): no rule fires on one
        // of their rows, and no put reaches one once the Delta minimum
        // has passed its order key — so it is read only after that, as
        // one sorted view. A store override, `-noGamma` and a lifetime
        // hint (which prunes a table in place, again and again) each keep
        // the table's store as it is; a table without fields has no
        // column to sort on, and an empty `->` key would make one key of
        // rows the view keeps in many groups.
        let triggers = |i: usize| !program.rules_by_trigger()[i].is_empty();
        let write_once: Vec<bool> = (0..n)
            .map(|i| {
                let table = TableId(i as u32);
                let key = plans[i].const_key();
                key.is_some()
                    && !triggers(i)
                    && !(0..n).any(|j| triggers(j) && plans[j].const_key() == key)
                    && !no_gamma[i]
                    && !config.stores.contains_key(&table)
                    && !(config.lifetime_hints.iter()).any(|(t, _, _)| *t == table)
                    && program.defs()[i].arity() > 0
                    && program.defs()[i].key_arity != Some(0)
            })
            .collect();
        let gamma = Gamma::with_write_once(program.defs(), &kinds, &write_once, workers + 1)
            .unwrap_or_else(|e| panic!("{e}"));
        // Partition function for the staged-tuple bins, derived from the
        // program's orderby schema: hash enough leading key components to
        // reach the first tuple-dependent (`seq`) level of any
        // Delta-eligible table. Workloads whose tables share one stratum
        // (Dijkstra's Estimates) then still spread across partitions by
        // the seq value instead of collapsing into one bin.
        let prefix_len = (0..n)
            .filter(|i| !no_delta[*i])
            .map(|i| {
                let comps = &program.orderbys()[i].components;
                comps
                    .iter()
                    .position(|c| matches!(c, crate::orderby::ResolvedComponent::Seq { .. }))
                    .map(|p| p + 1)
                    .unwrap_or(comps.len())
            })
            .max()
            .unwrap_or(1)
            .clamp(1, 4);
        let partitions = if workers > 1 {
            (workers * 2).next_power_of_two()
        } else {
            1
        };
        let state = Arc::new(RunState {
            program: Arc::clone(&program),
            gamma,
            inbox: ShardedInbox::with_partitioning(workers, partitions, prefix_len),
            staged: (0..workers + 1).map(|_| StagingSlot::default()).collect(),
            plans,
            no_delta,
            no_gamma,
            readable: write_once.iter().map(|&w| AtomicBool::new(!w)).collect(),
            output: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stats: EngineStats::new(n, workers + 1),
            pool: pool.clone(),
        });
        Engine {
            state,
            config,
            pool,
            injected: Vec::new(),
            restored: false,
        }
    }

    /// Queues an external event tuple (§3: "the input tuples are added to
    /// the Delta Set, and can then trigger various rules"). Must be called
    /// before [`Engine::run`].
    pub fn inject(&mut self, t: Tuple) {
        self.injected.push(t);
    }

    /// Typed [`Engine::inject`]: queues an external event relation.
    pub fn inject_rel<R: Relation>(&mut self, row: R) {
        let id = self.state.program.handle::<R>().id();
        self.injected.push(row.into_tuple(id));
    }

    /// Runs the program to quiescence (empty Delta set).
    ///
    /// The step loop is the four-phase machine of the
    /// [module docs](super): each iteration **absorbs** staged tuples
    /// into the Delta tree, **extracts** the minimal equivalence class,
    /// **executes** it, then **maintains** the stores at the quiescent
    /// point.
    pub fn run(&mut self) -> Result<RunReport> {
        let start = Instant::now();
        let state = &*self.state;

        // Initial puts (from program source) and injected events enter at
        // the minimal key, so they may target any table. A restored
        // engine skips the initial puts — the checkpointed run already
        // processed them (its pending Delta tuples arrive through the
        // injected queue instead).
        let min = OrderKey::minimum();
        if !self.restored {
            for t in state.program.initial() {
                put_tuple(state, &min, "<init>", t.clone());
            }
        }
        for t in self.injected.drain(..) {
            put_tuple(state, &min, "<inject>", t);
        }
        drain_staged(state);

        // The write-once tables, by order key: each closes — is sealed,
        // and may be read from then on — at the step boundary where the
        // popped class first passes its key, and every run starts with
        // all of them open.
        let mut closes: Vec<(&OrderKey, TableId)> = (state.gamma.write_once_tables())
            .filter_map(|t| Some((state.plans[t.index()].const_key()?, t)))
            .collect();
        closes.sort();
        for &(_, t) in &closes {
            // ord: Relaxed — no worker runs before the first class.
            state.readable[t.index()].store(false, Ordering::Relaxed);
        }
        let write_once: Vec<TableId> = closes.iter().map(|&(_, t)| t).collect();
        let mut closed = 0;

        let mut tree = DeltaTree::new();
        let mut absorb = Absorb::new(state, &self.config);
        // Which tables trigger a join rule: their classes run on the
        // coordinator, each join rule one walk fanned over the pool.
        let walks: Vec<bool> = (state.program.rules_by_trigger().iter())
            .map(|ids| {
                ids.iter()
                    .any(|&ri| state.program.rules()[ri].plan().is_some())
            })
            .collect();
        // Which tables' classes may hold another table's tuples too.
        let shapes: Vec<_> = state.plans.iter().map(|p| p.key_shape()).collect();
        let shared = |s: &Vec<Option<u32>>| shapes.iter().filter(|t| *t == s).count() > 1;
        let mixed: Vec<bool> = shapes.iter().map(shared).collect();
        // Insert outcomes of the classes the coordinator runs inline.
        let mut class_outcomes = Vec::new();
        let mut steps: u64 = 0;
        let mut checkpoints: u64 = 0;
        let mut checkpoint_time = Duration::ZERO;
        // Made at the first checkpoint and kept for the run: it remembers
        // the rows it has encoded and the files it has written.
        let mut checkpointer: Option<crate::persist::CheckpointWriter> = None;
        // The per-step phase timers share the record_steps gate:
        // profiling runs get the split; production runs pay no clock
        // reads in the coordinator loop.
        let timing = self.config.record_steps;
        loop {
            if state.has_errors() {
                break;
            }

            // ── Phase 1: absorb ─────────────────────────────────────
            // Everything staged by earlier steps must be queued before
            // the next extract — a staged key may order before the
            // current tree minimum.
            absorb.run(state, &mut tree, self.pool.as_deref());

            // ── Phase 2: extract ────────────────────────────────────
            let Some((key, mut class)) = tree.pop_min_class() else {
                break;
            };
            steps += 1;
            if let Some(max) = self.config.max_steps {
                if steps > max {
                    state.record_error(JStarError::Other(format!(
                        "step limit {max} exceeded — is a rule putting tuples unconditionally?"
                    )));
                    break;
                }
            }
            let class_size = class.len();
            state.stats.record_step(class_size);
            let exec_start = timing.then(Instant::now);

            // Close every write-once table whose key the class has
            // passed: no put can reach it any more, so its runs are
            // sealed — one table after another, each on the pool —
            // before any rule of the class can read it.
            let closing = (closes[closed..].iter())
                .take_while(|&&(k, _)| *k < key)
                .count();
            if closing > 0 {
                seal(
                    state,
                    &write_once[closed..closed + closing],
                    self.pool.as_deref(),
                );
                for t in &write_once[closed..closed + closing] {
                    // ord: Relaxed — the class's fork orders this store
                    // before every worker's read of it.
                    state.readable[t.index()].store(true, Ordering::Relaxed);
                }
                closed += closing;
            }

            // ── Phase 3: execute ────────────────────────────────────
            // Tables whose order keys have one shape may share a class,
            // which comes out of the Delta set in hash order. Grouped by
            // table (a stable sort, when the class is mixed), each
            // table's tuples are one run — one batch insert and, on a
            // table that triggers a join rule, one walk — and a class
            // with such a table runs on the coordinator whichever table
            // comes first. Other classes are not scanned: reading every
            // tuple's table would cost the coordinator a cache miss per
            // tuple.
            let first = class[0].table().index();
            let walked = if mixed[first] {
                if class.windows(2).any(|w| w[0].table() != w[1].table()) {
                    class.sort_by_key(Tuple::table);
                }
                (class.chunk_by(|a, b| a.table() == b.table()))
                    .any(|run| walks[run[0].table().index()])
            } else {
                walks[first]
            };
            let pool = self.pool.as_deref();
            match plan(pool, class_size, walked) {
                ClassPlan::Forked { chunk } => {
                    // ord: Relaxed — statistic only.
                    state.stats.forked_classes.fetch_add(1, Ordering::Relaxed);
                    // lint: allow(expect): the planner only emits Forked when a pool exists.
                    let pool = pool.expect("forked plan implies a pool");
                    let key = &key;
                    // All chunks submitted as one batch: a single
                    // wakeup, no per-task notify storm. The scope's
                    // join helps execute them.
                    pool.scope(|s| {
                        s.spawn_batch(class.chunks(chunk).map(|piece| {
                            move |_: &jstar_pool::Scope<'_>| {
                                insert_and_fire(state, Some(key), piece, &mut Vec::new(), None);
                            }
                        }));
                    });
                }
                ClassPlan::Inline { sort } => {
                    // One-tuple class, join class or sequential engine:
                    // execute on the coordinator, a join rule's walk
                    // fanned over the pool. The sequential engine
                    // additionally sorts a class no join rule walks, for
                    // a deterministic intra-class order.
                    // ord: Relaxed — statistic only.
                    state.stats.inline_classes.fetch_add(1, Ordering::Relaxed);
                    if sort {
                        class.sort();
                    }
                    insert_and_fire(state, Some(&key), &class, &mut class_outcomes, pool);
                }
            }
            // Workers flushed their own staging slots as their firings
            // returned; what helper threads staged inside a rule's
            // `par_for_each_match` (or a join fan-out) enters Gamma
            // here, before the maintain phase and the next extract.
            drain_staged(state);

            if let Some(t0) = exec_start {
                let exec_elapsed = t0.elapsed();
                // ord: Relaxed — statistic only.
                state
                    .stats
                    .execute_nanos
                    .fetch_add(exec_elapsed.as_nanos() as u64, Ordering::Relaxed);
                state.stats.log_step(StepRecord {
                    key: key.to_string(),
                    class_size,
                    micros: exec_elapsed.as_micros(),
                });
            }

            // ── Phase 4: maintain ───────────────────────────────────
            // The coordinator's quiescent point: workers have joined,
            // so single-threaded store surgery is safe. §5 step 4's
            // manual tuple-lifetime hints run here, followed by
            // tombstone compaction for stores the hints have hollowed
            // out.
            for (table, interval, keep) in &self.config.lifetime_hints {
                if !steps.is_multiple_of(*interval) {
                    continue;
                }
                let store = state.gamma.store(*table);
                store.retain(&**keep);
                if store.maybe_compact(COMPACT_TOMBSTONES_ABOVE) {
                    // ord: Relaxed — statistic only.
                    state.stats.tables[table.index()]
                        .compactions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }

            // Periodic checkpointing shares the quiescent point: the
            // Delta tree is forced fully current (everything staged is
            // absorbed), then the Gamma stores and pending tuples
            // stream out atomically.
            // A failed write fails the run — the harness's injected
            // crashes rely on that behaving exactly like process death,
            // and a real I/O error silently skipped would leave the
            // user thinking they have a checkpoint they don't.
            if self.config.checkpoint_every > 0
                && steps.is_multiple_of(self.config.checkpoint_every)
                && self.config.checkpoint_path.is_some()
            {
                // lint: allow(expect): is_some() is part of the guard condition above.
                let dir = self.config.checkpoint_path.as_deref().expect("checked");
                let t0 = Instant::now();
                absorb.run(state, &mut tree, self.pool.as_deref());
                // A write-once table still open has its rows so far
                // sealed, so the snapshot can walk them.
                seal(state, &write_once, self.pool.as_deref());
                // ord: Relaxed — a statistic; the coordinator is its only
                // writer between steps.
                let meta = crate::persist::SnapshotMeta {
                    steps,
                    tuples_processed: state.stats.tuples_processed.load(Ordering::Relaxed),
                };
                let written = checkpointer
                    .get_or_insert_with(|| {
                        crate::persist::CheckpointWriter::new(
                            state.program.defs(),
                            &state.gamma,
                            self.pool.as_deref(),
                        )
                    })
                    .checkpoint(
                        dir,
                        self.config.checkpoint_keep,
                        &mut |emit| tree.for_each_pending(emit),
                        meta,
                    );
                match written {
                    Ok(_) => {
                        checkpoints += 1;
                        checkpoint_time += t0.elapsed();
                    }
                    Err(e) => {
                        state.record_error(e);
                        break;
                    }
                }
            }
        }

        // The end of the run is a quiescent point: whatever write-once
        // table has rows no seal has taken is sealed now, so that reads
        // after the run find it sorted, and its `->` conflicts fail the
        // run.
        seal(state, &write_once, self.pool.as_deref());

        let errors = state.errors.lock();
        if let Some(first) = errors.first() {
            return Err(first.clone());
        }
        drop(errors);

        let (view_hits, view_misses, view_build_tuples) = state.gamma.view_counts();
        let stats = &state.stats;
        // ord: Relaxed — statistics counters; the pool's joins have
        // ordered every worker's increment before these loads.
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let time = |c: &AtomicU64| Duration::from_nanos(count(c));
        Ok(RunReport {
            steps,
            tuples_processed: count(&stats.tuples_processed),
            elapsed: start.elapsed(),
            drain_time: time(&stats.drain_nanos),
            partition_time: time(&stats.partition_nanos),
            merge_time: time(&stats.merge_nanos),
            overlap_time: time(&stats.overlap_nanos),
            execute_time: time(&stats.execute_nanos),
            inline_classes: count(&stats.inline_classes),
            forked_classes: count(&stats.forked_classes),
            checkpoints,
            checkpoint_time,
            delta_join_classes: count(&stats.delta_join_classes),
            gamma_probes: (stats.tables.iter()).map(|t| t.snapshot().queries).sum(),
            join_seeks: count(&stats.join_seeks),
            join_cursor_opens: count(&stats.join_cursor_opens),
            index_cache_hits: view_hits,
            index_cache_misses: view_misses,
            index_catchup_tuples: 0,
            index_build_tuples: view_build_tuples,
            output: state.output.lock().clone(),
        })
    }

    /// Writes a snapshot of the current Gamma database to `path`,
    /// atomically (temp + rename). Meant for a quiescent engine — after
    /// [`Engine::run`] returns — so the pending-Delta section is empty;
    /// mid-run durability is the checkpointing path
    /// ([`EngineConfig::checkpoint`]), which also captures pending
    /// tuples.
    pub fn snapshot(&self, path: &std::path::Path) -> Result<()> {
        // ord: Relaxed — statistics of a quiescent engine.
        let meta = crate::persist::SnapshotMeta {
            steps: self.state.stats.steps.load(Ordering::Relaxed),
            tuples_processed: self.state.stats.tuples_processed.load(Ordering::Relaxed),
        };
        let (defs, pool) = (self.state.program.defs(), self.pool.as_deref());
        crate::persist::CheckpointWriter::new(defs, &self.state.gamma, pool).write(
            &mut |_emit| {},
            meta,
            path,
        )
    }

    /// The order-independent digest of the live Gamma database (see
    /// [`crate::persist::gamma_digest`]). Equal logical states produce
    /// equal digests across thread counts and checkpoint/restore
    /// cycles — determinism and recovery checks are
    /// one `u64` comparison.
    pub fn content_hash(&self) -> u64 {
        crate::persist::gamma_digest(self.state.program.defs(), &self.state.gamma)
    }

    /// Restores the snapshot at `path` into this engine, replacing the
    /// Gamma contents wholesale and queueing the snapshot's pending
    /// Delta tuples for the next [`Engine::run`] (which resumes the
    /// interrupted schedule instead of re-running the initial puts).
    ///
    /// Meant for a freshly built engine. Never panics on bad input:
    /// truncated, bit-flipped or crafted files are a reported
    /// [`JStarError::CorruptSnapshot`], and a snapshot from a different
    /// program schema is a [`JStarError::SchemaMismatch`]. An image
    /// that checks out byte for byte but holds a row twice, or two rows
    /// under one `->` key, is corrupt too: a snapshot is a set.
    /// Validation completes before any store is touched, so a failed
    /// restore leaves the engine unmodified (one exception: a *custom*
    /// store without an import of its own can only find a repeated row
    /// by inserting it — see
    /// [`crate::gamma::TableStore::begin_import`]).
    pub fn restore(&mut self, path: &std::path::Path) -> Result<()> {
        let image =
            std::fs::read(path).map_err(|e| JStarError::Io(format!("{}: {e}", path.display())))?;
        self.restore_image(&image)
    }

    /// Restores from the newest intact checkpoint in `dir`: files are
    /// tried newest-first, and one that fails to read or load —
    /// typically the newest, torn by the very crash being recovered
    /// from — is skipped (recorded in [`RestoreOutcome::skipped`]) in
    /// favour of its predecessor. A [`JStarError::SchemaMismatch`]
    /// aborts immediately: the whole directory belongs to one program,
    /// so older files cannot fare better. Errs when the directory holds
    /// no checkpoint at all, or when every checkpoint is unreadable.
    pub fn restore_latest(&mut self, dir: &std::path::Path) -> Result<RestoreOutcome> {
        let files = crate::persist::list_checkpoints(dir)?;
        if files.is_empty() {
            return Err(JStarError::Io(format!(
                "{}: no checkpoints found",
                dir.display()
            )));
        }
        let mut skipped = Vec::new();
        for path in files.into_iter().rev() {
            match self.restore(&path) {
                Ok(()) => return Ok(RestoreOutcome { path, skipped }),
                Err(e @ JStarError::SchemaMismatch(_)) => return Err(e),
                Err(e) => skipped.push((path, e)),
            }
        }
        Err(JStarError::CorruptSnapshot(format!(
            "{}: every checkpoint was unreadable ({} tried)",
            dir.display(),
            skipped.len()
        )))
    }

    /// Decodes a snapshot image into this engine. Everything that can
    /// refuse it comes before any store is touched: the reader's own
    /// checks (whole-file checksum first, then bounds, then each
    /// section's content hash), and — as the rows stream out of the
    /// reader, see [`Restoring`] — fingerprint, table count and names,
    /// each row's types, and each table's replacement contents, built
    /// beside the live store and refused if any row repeats another or
    /// breaks a `->` key. Only when the whole image has passed is every
    /// staged import committed and the pending Delta tuples queued for
    /// re-injection (their order keys are recomputed from tuple fields by
    /// the normal put path).
    fn restore_image(&mut self, image: &[u8]) -> Result<()> {
        let mut restoring = Restoring {
            defs: self.state.program.defs(),
            gamma: &self.state.gamma,
            imports: Vec::new(),
            pending: Vec::new(),
        };
        crate::persist::decode_snapshot(image, &mut restoring)?;
        // A store that judges its rows only all together does so now,
        // before any store is touched.
        for (import, def) in restoring.imports.iter_mut().zip(restoring.defs) {
            match import.check(self.pool.as_deref()) {
                0 => {}
                rejected => return Err(not_a_set(def, rejected)),
            }
        }
        // A store with no way to build aside (a custom store on the
        // trait's default import) finds its bad rows only now, with the
        // stores already replaced: still an error, never a silent drop.
        let mut refused = None;
        for (import, def) in restoring.imports.into_iter().zip(restoring.defs) {
            let rejected = import.commit();
            if rejected > 0 {
                refused.get_or_insert(not_a_set(def, rejected));
            }
        }
        if let Some(e) = refused {
            return Err(e);
        }
        self.injected.extend(restoring.pending);
        self.restored = true;
        Ok(())
    }

    /// The Gamma database (inspect results after a run).
    pub fn gamma(&self) -> &Gamma {
        &self.state.gamma
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.state.stats
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.state.program
    }

    /// The typed handle for relation `R` (panics if unregistered).
    pub fn handle<R: Relation>(&self) -> TableHandle<R> {
        self.state.program.handle::<R>()
    }

    /// Collects and decodes every Gamma row matching a typed query —
    /// the typed read path for inspecting results after a run:
    /// `engine.collect_rel(Ship::query())`.
    pub fn collect_rel<R: Relation>(&self, q: TypedQuery<R>) -> Vec<R> {
        let q = q.lower(self.handle::<R>());
        let mut out = Vec::new();
        self.state.gamma.query(&q, &mut |t| {
            out.push(R::from_tuple(t));
            true
        });
        out
    }

    /// Streams decoded Gamma rows matching a typed query; return
    /// `false` from the callback to stop early.
    pub fn for_each_rel_gamma<R: Relation>(&self, q: TypedQuery<R>, mut f: impl FnMut(R) -> bool) {
        let q = q.lower(self.handle::<R>());
        self.state.gamma.query(&q, &mut |t| f(R::from_tuple(t)));
    }

    /// Collected output lines so far.
    pub fn output(&self) -> Vec<String> {
        self.state.output.lock().clone()
    }

    /// Evaluates a typed join over Gamma — a [`crate::relation::join`]
    /// or [`crate::relation::join3`] value — with one leapfrog walk,
    /// calling `f` with each decoded row combination, `(a, b)` or
    /// `(a, b, c)`.
    ///
    /// Every relation's column view is opened once (each counted as a
    /// query plus a cursor open). `A`'s and `B`'s are intersected on
    /// the first `on` pair with coordinated seek/next motions — the
    /// fixed variable order of the typed builder, no optimizer — and
    /// each matched `(a, b)` row of a [`crate::relation::join3`] then
    /// seeks a shared `C` view. Further key pairs are residual equality
    /// checks inside matched groups, and each inequality runs at the
    /// first row binding both of its sides. Panics when a relation
    /// after the first is keyed by no pair (a cross join has nothing to
    /// merge on). The views a walk must build are built together, on the
    /// engine's pool when it has one; the walk runs on the calling
    /// thread, and [`Engine::join_fold`] is the same walk split over the
    /// pool.
    pub fn join_rel<J: JoinShape>(&self, j: J, mut f: impl FnMut(J::Row)) {
        self.read_join(j, |root, root_less, stages| {
            let visit = |rows: &[&Tuple]| f(J::decode(rows));
            ((), leapfrog::walk(root, root_less, stages, visit))
        })
    }

    /// [`Engine::join_rel`] as a fold: `A`'s rows, in key order, are
    /// split into pieces that run on the engine's pool (one piece
    /// without one), each folding its rows into its own `init()`
    /// accumulator; `merge` then combines the accumulators in that
    /// order.
    pub fn join_fold<J: JoinShape, Acc: Send>(
        &self,
        j: J,
        init: impl Fn() -> Acc + Sync,
        fold: impl Fn(&mut Acc, J::Row) + Sync,
        merge: impl FnMut(Acc, Acc) -> Acc,
    ) -> Acc {
        let pool = self.pool.as_deref();
        let visit = |acc: &mut Acc, rows: &[&Tuple]| fold(acc, J::decode(rows));
        let mut pieces = self
            .read_join(j, |root, root_less, stages| {
                leapfrog::fan_out(root, root_less, stages, pool, &init, visit)
            })
            .into_iter();
        let first = pieces.next().unwrap_or_else(&init);
        pieces.fold(first, merge)
    }

    /// Lowers `j`, opens its views (`A`'s on the column stage 0 seeks
    /// by, then one per stage, each counted; what must be built is
    /// built on the pool, one view after another), hands `body` the
    /// walk's root, root checks and stages, and charges the seeks it
    /// reports.
    fn read_join<J: JoinShape, R>(
        &self,
        j: J,
        body: impl for<'a> FnOnce(&'a ColumnIndex, &[(usize, usize)], &[Stage<'a>]) -> (R, u64),
    ) -> R {
        let Ok((ids, root_less, stages)) = lower(j, &mut &*self.state.program) else {
            panic!("a join read needs an on() pair keying every relation after the first")
        };
        let ((_, by), _) = stages[0].keys[0];
        let columns: Vec<(TableId, usize)> = std::iter::once((ids[0], by))
            .chain(stages.iter().map(JoinStage::column))
            .collect();
        let views = open_views(&self.state, &columns, self.pool.as_deref());
        let walk = walk_stages(&stages, &views[1..]);
        let (out, seeks) = body(&views[0], &root_less, &walk);
        if seeks > 0 {
            // ord: Relaxed — statistic only.
            let stats = &self.state.stats;
            stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
        out
    }
}
