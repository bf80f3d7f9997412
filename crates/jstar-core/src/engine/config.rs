//! Engine configuration — the paper's compiler flags and runtime
//! options, kept *outside* the program source (workflow stages 3–4).

use crate::gamma::StoreKind;
use crate::schema::TableId;
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use std::collections::HashMap;
use std::sync::Arc;

/// A tuple-lifetime predicate (§5 step 4): returns true to keep a tuple.
pub type LifetimeHint = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// Engine configuration — the paper's compiler flags and runtime options,
/// kept *outside* the program source (workflow stages 3–4).
#[derive(Clone)]
pub struct EngineConfig {
    /// `-sequential`: single-threaded execution, with no pool. The Gamma
    /// stores are the same as in a parallel run.
    pub sequential: bool,
    /// `--threads=N`: fork/join pool size for parallel execution. Every
    /// class wider than one tuple forks into up to 4·N stealable chunks;
    /// a one-tuple class runs on the coordinator.
    pub threads: usize,
    /// `-noDelta T` tables: bypass the Delta tree. Their puts are staged
    /// per worker and enter Gamma in batches, each fresh tuple firing its
    /// rules right after its batch — before the next step in any case.
    pub no_delta: Vec<TableId>,
    /// `-noGamma T` tables: never stored in Gamma.
    pub no_gamma: Vec<TableId>,
    /// Per-table store overrides (the paper's data-structure hints).
    pub stores: HashMap<TableId, StoreKind>,
    /// Record a per-step log for parallelism profiling.
    pub record_steps: bool,
    /// Abort after this many steps — a guard for accidentally non-causal
    /// infinite programs like §3's unconditional Ship rule.
    pub max_steps: Option<u64>,
    /// Share an existing pool instead of creating one per engine.
    pub pool: Option<Arc<ThreadPool>>,
    /// Tuple-lifetime hints (§5 step 4) as `(table, interval, keep)`:
    /// every `interval` steps the engine drops tuples the hook rejects
    /// from the table's Gamma store. "We simply retain all tuples, or use
    /// manual lifetime hints from the user to determine when tuples can
    /// be discarded." A store the hook leaves more than half tombstones
    /// is then compacted.
    pub lifetime_hints: Vec<(TableId, u64, LifetimeHint)>,
    /// Staged batches of at least this many tuples are merged into the
    /// Delta queue by pool workers (one subtree per key-prefix
    /// partition, grafted by the coordinator); smaller batches take the
    /// sequential insert loop, whose per-tuple cost is below the
    /// fork/join round trip at that size. Ignored in sequential mode.
    pub parallel_merge_threshold: usize,
    /// Write a checkpoint every this many steps (0 — the default —
    /// disables checkpointing). Requires [`EngineConfig::checkpoint_path`];
    /// see [`crate::persist`] for the policy guidance and on-disk
    /// format. Checkpoints are written atomically (temp + rename) from
    /// the coordinator's maintain phase at a fully quiescent point, so
    /// a crash between checkpoints loses at most `checkpoint_every`
    /// steps of work.
    pub checkpoint_every: u64,
    /// Directory receiving `ckpt-<seq>.jsnap` files (created on first
    /// checkpoint). `None` disables checkpointing regardless of
    /// [`EngineConfig::checkpoint_every`].
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Keep-last-N rotation: how many checkpoint files to retain
    /// (default 2 — the newest plus one fallback in case the newest is
    /// torn or corrupted). 0 is treated as 1.
    pub checkpoint_keep: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sequential: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            no_delta: Vec::new(),
            no_gamma: Vec::new(),
            stores: HashMap::new(),
            record_steps: false,
            max_steps: None,
            pool: None,
            lifetime_hints: Vec::new(),
            parallel_merge_threshold: 1024,
            checkpoint_every: 0,
            checkpoint_path: None,
            checkpoint_keep: 2,
        }
    }
}

impl EngineConfig {
    /// Sequential configuration (the `-sequential` flag).
    pub fn sequential() -> Self {
        EngineConfig {
            sequential: true,
            threads: 1,
            ..Default::default()
        }
    }

    /// Parallel configuration with `n` fork/join threads.
    pub fn parallel(n: usize) -> Self {
        EngineConfig {
            sequential: false,
            threads: n.max(1),
            ..Default::default()
        }
    }

    /// Adds a `-noDelta` table.
    pub fn no_delta(mut self, t: TableId) -> Self {
        self.no_delta.push(t);
        self
    }

    /// Adds a `-noGamma` table.
    pub fn no_gamma(mut self, t: TableId) -> Self {
        self.no_gamma.push(t);
        self
    }

    /// Overrides the Gamma store for one table.
    pub fn store(mut self, t: TableId, kind: StoreKind) -> Self {
        self.stores.insert(t, kind);
        self
    }

    /// Enables the per-step parallelism log.
    pub fn record_steps(mut self) -> Self {
        self.record_steps = true;
        self
    }

    /// Sets the runaway-program step guard.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Sets the staged-batch size at which the coordinator hands the
    /// Delta merge to pool workers. `usize::MAX` forces the sequential
    /// insert loop (the pre-partitioned behaviour); `0`/`1` parallelises
    /// every multi-partition batch.
    pub fn parallel_merge_from(mut self, batch: usize) -> Self {
        self.parallel_merge_threshold = batch;
        self
    }

    /// Enables periodic checkpointing: every `every` steps (0 disables)
    /// a snapshot is written atomically into `dir` as
    /// `ckpt-<seq>.jsnap`, keeping the newest
    /// [`EngineConfig::checkpoint_keep`] files. See [`crate::persist`]
    /// for interval guidance and [`super::Engine::restore_latest`] for
    /// recovery.
    pub fn checkpoint(mut self, dir: impl Into<std::path::PathBuf>, every: u64) -> Self {
        self.checkpoint_path = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Sets the keep-last-N checkpoint rotation count (0 is treated
    /// as 1).
    pub fn checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep;
        self
    }

    /// Registers a tuple-lifetime hint for `table`: every `interval` steps,
    /// tuples the hook rejects are discarded from Gamma (§5 step 4 — the
    /// manual garbage-collection hints).
    pub fn lifetime_hint(
        mut self,
        table: TableId,
        interval: u64,
        keep: impl Fn(&Tuple) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.lifetime_hints
            .push((table, interval.max(1), Arc::new(keep)));
        self
    }
}
