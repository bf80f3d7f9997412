//! The coordinator: a configured engine instance and its step loop,
//! written as the explicit phase state machine described in the
//! [module docs](super) — absorb → extract → execute → maintain.

use crate::delta::{DeltaTree, ShardedInbox};
use crate::error::Result;
use crate::gamma::leapfrog::{self, Root, Stage};
use crate::gamma::{Gamma, StoreKind};
use crate::orderby::OrderKey;
use crate::program::Program;
use crate::relation::{Join, Join3, ReadJoin, Relation, TableHandle, TypedQuery};
use crate::rule::JoinStage;
use crate::schema::TableId;
use crate::stats::{EngineStats, StepRecord};
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::config::EngineConfig;
use super::report::RunReport;
use super::runtime::{
    drain_staged, insert_and_fire, open_views, process_class_delta_join, put_tuple, walk_stages,
    QueryPlan, RunState, StagingSlot,
};
use super::schedule::{ClassPlan, Scheduler};
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
        let gamma = Gamma::new(program.defs(), &kinds);
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

        let mut tree = DeltaTree::new();
        let mut absorb = Absorb::new(state, &self.config);
        // Which tables trigger at least one join-plan rule — the static
        // half of the delta-join eligibility check (the dynamic half is
        // the per-class size/uniformity test).
        let join_tables: Vec<bool> = (0..state.program.defs().len())
            .map(|ti| {
                state.program.rules_by_trigger()[ti]
                    .iter()
                    .any(|&ri| state.program.rules()[ri].plan.is_some())
            })
            .collect();
        let scheduler = Scheduler::new().with_delta_join(join_tables);
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

            // ── Phase 3: execute ────────────────────────────────────
            if scheduler.delta_join(&class) {
                // Batched semi-naive execution: the whole class is the
                // delta, and join-plan rules walk Gamma once per class
                // instead of once per tuple.
                state
                    .stats
                    .delta_join_classes
                    .fetch_add(1, Ordering::Relaxed);
                process_class_delta_join(state, &key, &class, self.pool.as_deref());
            } else {
                match scheduler.plan(self.pool.as_deref(), class_size) {
                    ClassPlan::Forked { chunk } => {
                        state.stats.forked_classes.fetch_add(1, Ordering::Relaxed);
                        // lint: allow(expect): the planner only emits Forked when a pool exists.
                        let pool = self.pool.as_ref().expect("forked plan implies a pool");
                        let key = &key;
                        // All chunks submitted as one batch: a single
                        // wakeup, no per-task notify storm. The scope's
                        // join helps execute them.
                        pool.scope(|s| {
                            s.spawn_batch(class.chunks(chunk).map(|piece| {
                                move |_: &jstar_pool::Scope<'_>| {
                                    insert_and_fire(state, Some(key), piece, &mut Vec::new());
                                }
                            }));
                        });
                    }
                    ClassPlan::Inline { sort } => {
                        // One-tuple class or sequential engine: execute
                        // on the coordinator. The sequential engine
                        // additionally sorts for a deterministic
                        // intra-class order.
                        state.stats.inline_classes.fetch_add(1, Ordering::Relaxed);
                        if sort {
                            class.sort();
                        }
                        insert_and_fire(state, Some(&key), &class, &mut class_outcomes);
                    }
                }
            }
            // Workers flushed their own staging slots as their firings
            // returned; what helper threads staged inside a rule's
            // `par_for_each_match` (or a join fan-out) enters Gamma
            // here, before the maintain phase and the next extract.
            drain_staged(state);

            if let Some(t0) = exec_start {
                let exec_elapsed = t0.elapsed();
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

        let errors = state.errors.lock();
        if let Some(first) = errors.first() {
            return Err(first.clone());
        }
        drop(errors);

        let cache_stats = state.gamma.index_cache().stats();
        Ok(RunReport {
            steps,
            tuples_processed: state.stats.tuples_processed.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
            drain_time: Duration::from_nanos(state.stats.drain_nanos.load(Ordering::Relaxed)),
            partition_time: Duration::from_nanos(
                state.stats.partition_nanos.load(Ordering::Relaxed),
            ),
            merge_time: Duration::from_nanos(state.stats.merge_nanos.load(Ordering::Relaxed)),
            overlap_time: Duration::from_nanos(state.stats.overlap_nanos.load(Ordering::Relaxed)),
            execute_time: Duration::from_nanos(state.stats.execute_nanos.load(Ordering::Relaxed)),
            inline_classes: state.stats.inline_classes.load(Ordering::Relaxed),
            forked_classes: state.stats.forked_classes.load(Ordering::Relaxed),
            checkpoints,
            checkpoint_time,
            delta_join_classes: state.stats.delta_join_classes.load(Ordering::Relaxed),
            delta_join_build_tuples: state.stats.delta_join_build_tuples.load(Ordering::Relaxed),
            gamma_probes: (state.stats.tables.iter())
                .map(|t| t.snapshot().queries)
                .sum(),
            join_seeks: state.stats.join_seeks.load(Ordering::Relaxed),
            join_cursor_opens: state.stats.join_cursor_opens.load(Ordering::Relaxed),
            index_cache_hits: cache_stats.hits,
            index_cache_misses: cache_stats.misses,
            index_catchup_tuples: cache_stats.catchup_tuples,
            index_build_tuples: cache_stats.build_tuples,
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

    /// Evaluates a typed two-relation join over Gamma with one
    /// leapfrog sorted-merge walk: `join::<Edge, Edge>().on(..)`.
    ///
    /// Both relations' column views are opened once (each counted as a
    /// query plus a cursor open), then intersected on the first `on`
    /// pair with coordinated seek/next motions — the fixed variable
    /// order of the typed builder, no optimizer. Further `on` pairs are
    /// residual equality checks inside matched groups, beside the `lt`
    /// inequalities. Panics when no
    /// `on` pair was declared (a cross join has nothing to merge on).
    /// Runs on the calling thread; [`Engine::join_fold`] is the same
    /// walk split over the pool.
    pub fn join_rel<A: Relation, B: Relation>(&self, j: Join<A, B>, mut f: impl FnMut(A, B)) {
        let lowered = j.lower(&self.state.program);
        self.read_join(&lowered, |root, root_less, stages| {
            let visit = |rows: &[&Tuple]| f(A::from_tuple(rows[0]), B::from_tuple(rows[1]));
            ((), leapfrog::walk(root, root_less, stages, visit))
        })
    }

    /// [`Engine::join_rel`] as a fold: `A`'s distinct keys are split
    /// into pieces that run on the engine's pool (one piece without
    /// one), each folding its rows into its own `init()` accumulator;
    /// `merge` then combines the accumulators in key order.
    pub fn join_fold<A: Relation, B: Relation, Acc: Send>(
        &self,
        j: Join<A, B>,
        init: impl Fn() -> Acc + Sync,
        fold: impl Fn(&mut Acc, A, B) + Sync,
        merge: impl FnMut(Acc, Acc) -> Acc,
    ) -> Acc {
        let lowered = j.lower(&self.state.program);
        let visit = |acc: &mut Acc, rows: &[&Tuple]| {
            fold(acc, A::from_tuple(rows[0]), B::from_tuple(rows[1]))
        };
        self.read_fold(&lowered, init, visit, merge)
    }

    /// Evaluates a typed three-relation join over Gamma:
    /// `join3::<Edge, Edge, Edge>().on_ab(..).on_bc(..)`.
    ///
    /// `A` and `B` leapfrog on the first `on_ab` pair exactly as in
    /// [`Engine::join_rel`]; each matched `(a, b)` row then seeks a
    /// shared `C` cursor — keyed by the first `on_bc` pair, or the
    /// first `on_ac` pair when no `b`–`c` key exists — with every
    /// remaining pair checked as a residual equality. Each inequality
    /// runs at the first row binding both of its sides (see
    /// [`crate::relation::join3`]). Panics without an `on_ab` pair or
    /// without any `C`-side constraint.
    pub fn join3_rel<A: Relation, B: Relation, C: Relation>(
        &self,
        j: Join3<A, B, C>,
        mut f: impl FnMut(A, B, C),
    ) {
        let lowered = j.lower(&self.state.program);
        self.read_join(&lowered, |root, root_less, stages| {
            let visit = |rows: &[&Tuple]| {
                f(
                    A::from_tuple(rows[0]),
                    B::from_tuple(rows[1]),
                    C::from_tuple(rows[2]),
                )
            };
            ((), leapfrog::walk(root, root_less, stages, visit))
        })
    }

    /// [`Engine::join3_rel`] as a fold over the engine's pool (see
    /// [`Engine::join_fold`]).
    pub fn join3_fold<A: Relation, B: Relation, C: Relation, Acc: Send>(
        &self,
        j: Join3<A, B, C>,
        init: impl Fn() -> Acc + Sync,
        fold: impl Fn(&mut Acc, A, B, C) + Sync,
        merge: impl FnMut(Acc, Acc) -> Acc,
    ) -> Acc {
        let lowered = j.lower(&self.state.program);
        let visit = |acc: &mut Acc, rows: &[&Tuple]| {
            fold(
                acc,
                A::from_tuple(rows[0]),
                B::from_tuple(rows[1]),
                C::from_tuple(rows[2]),
            )
        };
        self.read_fold(&lowered, init, visit, merge)
    }

    /// Opens the lowered join's views (root first, then one per stage,
    /// each counted), hands `body` the walk's root, root checks and
    /// stages, and charges the seeks it reports.
    fn read_join<R>(
        &self,
        lowered: &ReadJoin,
        body: impl for<'a> FnOnce(&Root<'a>, &[(usize, usize)], &[Stage<'a>]) -> (R, u64),
    ) -> R {
        let columns = lowered.stages.iter().map(JoinStage::column);
        let views = open_views(&self.state, std::iter::once(lowered.root).chain(columns));
        let stages = walk_stages(&lowered.stages, &views[1..]);
        let (out, seeks) = body(&Root::Index(&views[0]), &lowered.root_less, &stages);
        if seeks > 0 {
            let stats = &self.state.stats;
            stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
        out
    }

    fn read_fold<Acc: Send>(
        &self,
        lowered: &ReadJoin,
        init: impl Fn() -> Acc + Sync,
        visit: impl Fn(&mut Acc, &[&Tuple]) + Sync,
        merge: impl FnMut(Acc, Acc) -> Acc,
    ) -> Acc {
        let pool = self.pool.as_deref();
        let mut pieces = self
            .read_join(lowered, |root, root_less, stages| {
                leapfrog::fan_out(root, root_less, stages, pool, &init, visit)
            })
            .into_iter();
        let first = pieces.next().unwrap_or_else(&init);
        pieces.fold(first, merge)
    }
}
