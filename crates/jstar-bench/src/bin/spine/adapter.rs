//! The one file that touches `EngineConfig`, `RunReport` and
//! `EngineStats` fields. The knob audit is expected to delete and rename
//! fields of all three; when it does, this file is the whole diff on the
//! benchmark's side. Everything else sees [`Counters`] and the helper
//! functions below.

use jstar_core::delta::ShardedInbox;
use jstar_core::engine::{Engine, EngineConfig, RunReport};
use jstar_core::gamma::StoreKind;
use jstar_core::orderby::ResolvedComponent;
use jstar_core::program::Program;
use jstar_core::schema::TableId;
use jstar_pool::ThreadPool;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which engine a job runs on. Always a default configuration: the
/// benchmark must keep compiling when non-default variants are deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `EngineConfig::parallel(T)` on the shared `T`-worker pool.
    Primary,
    /// `EngineConfig::sequential()` — the base of `par_speedup` and the
    /// exactness audit's arm. (`parallel(1)` is no one-thread base: the
    /// coordinator helps its one worker, so it keeps two cores busy.)
    Sequential,
    /// `dijkstra-ckpt` only: the primary job without checkpointing.
    NoCheckpoint,
}

/// The pool created in set-up and shared by every job of that set-up.
pub struct Pools {
    pub threads: usize,
    wide: Arc<ThreadPool>,
}

impl Pools {
    pub fn new(threads: usize) -> Pools {
        Pools {
            threads,
            wide: Arc::new(ThreadPool::new(threads)),
        }
    }

    /// The `T`-worker pool (probes that need a pool use this one).
    pub fn wide(&self) -> &ThreadPool {
        &self.wide
    }
}

/// `T = min(nproc, 4)`.
pub fn default_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The default configuration for `arm`; `traced` turns the per-step
/// timers and step log on (end-to-end numbers are taken with it off).
pub fn base_config(arm: Arm, pools: &Pools, traced: bool) -> EngineConfig {
    let mut c = match arm {
        Arm::Primary | Arm::NoCheckpoint => {
            let mut c = EngineConfig::parallel(pools.threads);
            c.pool = Some(Arc::clone(&pools.wide));
            c
        }
        Arm::Sequential => EngineConfig::sequential(),
    };
    if traced {
        c = c.record_steps();
    }
    c
}

pub fn with_checkpoints(c: EngineConfig, dir: &Path, every: u64, keep: usize) -> EngineConfig {
    c.checkpoint(dir, every).checkpoint_keep(keep)
}

/// The store kind the engine would build for `table` under `config`.
pub fn store_kind(config: &EngineConfig, table: TableId) -> StoreKind {
    config
        .stores
        .get(&table)
        .cloned()
        .unwrap_or_else(|| StoreKind::default_for(!config.sequential))
}

/// Tables whose tuples pass through the Delta queue under `config`.
pub fn delta_tables(config: &EngineConfig, program: &Program) -> Vec<TableId> {
    program
        .defs()
        .iter()
        .map(|d| d.id)
        .filter(|id| !config.no_delta.contains(id))
        .collect()
}

pub fn merge_threshold(config: &EngineConfig) -> usize {
    config.parallel_merge_threshold
}

/// A staging inbox partitioned the way `Engine::new` partitions its own
/// (two bins per worker; hash the key down to the first `seq` level of
/// any Delta table), so the inbox probes bin the way the job did.
pub fn inbox_like_engine(program: &Program, config: &EngineConfig, workers: usize) -> ShardedInbox {
    let prefix_len = delta_tables(config, program)
        .iter()
        .map(|id| {
            let comps = &program.orderbys()[id.index()].components;
            comps
                .iter()
                .position(|c| matches!(c, ResolvedComponent::Seq { .. }))
                .map_or(comps.len(), |p| p + 1)
        })
        .max()
        .unwrap_or(1)
        .clamp(1, 4);
    let partitions = if workers > 1 {
        (workers * 2).next_power_of_two()
    } else {
        1
    };
    ShardedInbox::with_partitioning(workers, partitions, prefix_len)
}

/// The program's `println` output of one run.
pub fn output(report: &RunReport) -> &[String] {
    &report.output
}

/// Everything the benchmark reads from one finished job.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub steps: u64,
    pub tuples_processed: u64,
    pub max_class: u64,
    pub inline_classes: u64,
    pub forked_classes: u64,
    pub delta_join_classes: u64,
    /// Tuples accepted into the Delta queue, all tables.
    pub delta_tuples: u64,
    pub gamma_probes: u64,
    pub join_seeks: u64,
    pub cursor_opens: u64,
    pub index_cache_hit_rate: f64,
    pub index_build_tuples: u64,
    pub index_catchup_tuples: u64,
    pub checkpoints: u64,
    pub checkpoint_s: f64,
    // Phase timers: zero unless the job was traced.
    pub partition_s: f64,
    pub merge_s: f64,
    pub drain_s: f64,
    pub overlap_s: f64,
    pub execute_s: f64,
    pub drain_fraction: f64,
    pub overlap_fraction: f64,
    /// Per-step class widths and wall times (µs), traced jobs only.
    pub class_widths: Vec<f64>,
    pub step_us: Vec<f64>,
}

pub fn counters(report: &RunReport, engine: &Engine) -> Counters {
    let stats = engine.stats();
    let log = stats.step_log.lock();
    Counters {
        steps: report.steps,
        tuples_processed: report.tuples_processed,
        // ord: Relaxed — statistics read after the run has joined.
        max_class: stats.max_class.load(Ordering::Relaxed),
        inline_classes: report.inline_classes,
        forked_classes: report.forked_classes,
        delta_join_classes: report.delta_join_classes,
        delta_tuples: stats
            .tables
            .iter()
            .map(|t| t.snapshot().delta_inserts)
            .sum(),
        gamma_probes: report.gamma_probes,
        join_seeks: report.join_seeks,
        cursor_opens: report.join_cursor_opens,
        index_cache_hit_rate: report.index_cache_hit_rate(),
        index_build_tuples: report.index_build_tuples,
        index_catchup_tuples: report.index_catchup_tuples,
        checkpoints: report.checkpoints,
        checkpoint_s: report.checkpoint_time.as_secs_f64(),
        partition_s: report.partition_time.as_secs_f64(),
        merge_s: report.merge_time.as_secs_f64(),
        drain_s: report.drain_time.as_secs_f64(),
        overlap_s: report.overlap_time.as_secs_f64(),
        execute_s: report.execute_time.as_secs_f64(),
        drain_fraction: report.drain_fraction(),
        overlap_fraction: report.overlap_fraction(),
        class_widths: log.iter().map(|r| r.class_size as f64).collect(),
        step_us: log.iter().map(|r| r.micros as f64).collect(),
    }
}
