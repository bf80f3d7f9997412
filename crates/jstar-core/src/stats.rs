//! Usage statistics and visualisation (§1.5).
//!
//! JStar ships "a logging system for recording usage statistics about each
//! table during a program run, and tools to visualise those logs as
//! annotated dependency graphs of the program execution. This is a useful
//! basis for choosing parallelisation strategies." This module is that
//! substrate: per-table atomic counters (striped per staging shard —
//! [`TableStripe`] — and summed by [`TableStats::snapshot`]), an optional
//! per-step log (the parallelism profile), and DOT export of the rule
//! dependency graph annotated with the counters (the paper's Fig. 7-style
//! views).

use jstar_check::sync::{AtomicU64, Mutex, Ordering};

/// One staging shard's share of a table's per-event counters.
///
/// Every put, insert, trigger and query bumps a counter, and workers do
/// so concurrently — one shared `AtomicU64` per event put a contended
/// cache line on the put path (12 ms of a 66 ms forked `pvwatts` job).
/// Each shard therefore owns a padded stripe — the
/// [`crate::delta::ShardedInbox`] layout, reused — indexed like the
/// inbox's shards (the worker's stable index; the last stripe for
/// every other thread), so a bump touches only memory its thread
/// already owns. Batch paths add once per batch.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct TableStripe {
    /// `put` calls naming this table.
    pub puts: AtomicU64,
    /// Fresh inserts into Gamma.
    pub gamma_fresh: AtomicU64,
    /// Duplicates dropped by Gamma (set semantics).
    pub gamma_dups: AtomicU64,
    /// Rule executions triggered by this table's tuples.
    pub triggers: AtomicU64,
    /// Queries answered against this table.
    pub queries: AtomicU64,
}

/// Counters for one table: one [`TableStripe`] per staging shard for the
/// events workers count, plus the two only the coordinator counts.
/// [`TableStats::snapshot`] is the read side — it sums the stripes.
#[derive(Debug)]
pub struct TableStats {
    stripes: Box<[TableStripe]>,
    /// Tuples accepted into the Delta tree (after dedup).
    pub delta_inserts: AtomicU64,
    /// Quiescent-point store compactions (tombstoned reservation slots
    /// physically reclaimed after lifetime hints left the table more
    /// than half tombstones — `COMPACT_TOMBSTONES_ABOVE` in the engine's
    /// coordinator).
    pub compactions: AtomicU64,
}

/// Plain snapshot of [`TableStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStatsSnapshot {
    pub puts: u64,
    pub delta_inserts: u64,
    pub gamma_fresh: u64,
    pub gamma_dups: u64,
    pub triggers: u64,
    pub queries: u64,
    pub compactions: u64,
}

impl TableStats {
    fn new(stripes: usize) -> Self {
        TableStats {
            stripes: (0..stripes.max(1))
                .map(|_| TableStripe::default())
                .collect(),
            delta_inserts: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// The stripe staging shard `shard` counts into.
    #[inline]
    pub fn stripe(&self, shard: usize) -> &TableStripe {
        &self.stripes[shard]
    }

    /// Moves `rejected` inserts out of `gamma_fresh` — `dups` of them into
    /// `gamma_dups`, the rest (`->` conflicts) into neither: what a
    /// write-once table's seal found among rows its appends counted as
    /// fresh. Taken from the stripes in order, none below zero; called
    /// at a quiescent point, when no worker counts.
    pub(crate) fn unfresh(&self, rejected: u64, dups: u64) {
        let mut left = rejected;
        for stripe in self.stripes.iter() {
            // ord: Relaxed ×2 — statistics counters, and no worker writes
            // them at a quiescent point.
            let take = left.min(stripe.gamma_fresh.load(Ordering::Relaxed));
            stripe.gamma_fresh.fetch_sub(take, Ordering::Relaxed);
            left -= take;
        }
        // ord: Relaxed — as above.
        self.stripes[0]
            .gamma_dups
            .fetch_add(dups, Ordering::Relaxed);
    }

    /// The table's totals: every stripe summed, plus the two
    /// coordinator-side counters.
    pub fn snapshot(&self) -> TableStatsSnapshot {
        // ord: Relaxed (every load here) — monotonic statistics counters;
        // each value is independently meaningful and nothing synchronises
        // through them.
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum = |f: fn(&TableStripe) -> &AtomicU64| self.stripes.iter().map(|s| read(f(s))).sum();
        TableStatsSnapshot {
            puts: sum(|s| &s.puts),
            delta_inserts: read(&self.delta_inserts),
            gamma_fresh: sum(|s| &s.gamma_fresh),
            gamma_dups: sum(|s| &s.gamma_dups),
            triggers: sum(|s| &s.triggers),
            queries: sum(|s| &s.queries),
            compactions: read(&self.compactions),
        }
    }
}

/// One execution step of the all-minimums strategy.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Display form of the step's order key.
    pub key: String,
    /// Size of the equivalence class — the step's available parallelism.
    pub class_size: usize,
    /// Wall time of the step in microseconds.
    pub micros: u128,
}

/// Engine-wide statistics.
#[derive(Debug)]
pub struct EngineStats {
    pub tables: Vec<TableStats>,
    pub steps: AtomicU64,
    pub tuples_processed: AtomicU64,
    pub max_class: AtomicU64,
    /// Coordinator time spent absorbing staged tuples into the Delta queue
    /// (nanoseconds, summed over all steps; the sum of the partition and
    /// merge phases).
    pub drain_nanos: AtomicU64,
    /// Drain phase 1: swapping the per-worker staging bins out into
    /// per-partition runs (nanoseconds, summed over all steps).
    pub partition_nanos: AtomicU64,
    /// Drain phase 2: merging the partition runs into the Delta queue —
    /// parallel on the pool for large batches, sequential below the
    /// threshold (nanoseconds, summed over all steps).
    pub merge_nanos: AtomicU64,
    /// Always zero: every absorb runs at the step boundary and counts
    /// in `drain_nanos`. Kept because `spine/adapter.rs` reads the
    /// report field it feeds.
    pub overlap_nanos: AtomicU64,
    /// Time spent executing equivalence classes — Gamma inserts plus rule
    /// bodies (nanoseconds, summed over all steps; wall time of the step's
    /// execution phase, not CPU time across workers).
    pub execute_nanos: AtomicU64,
    /// Classes executed inline on the coordinator (one-tuple classes,
    /// classes whose table triggers a join rule, and every class of the
    /// sequential engine).
    pub inline_classes: AtomicU64,
    /// Classes fanned out to the fork/join pool.
    pub forked_classes: AtomicU64,
    /// Runs of fresh trigger tuples whose join rules were walked (see
    /// [`crate::engine::RunReport::delta_join_classes`]).
    pub delta_join_classes: AtomicU64,
    /// Galloping cursor repositionings performed by leapfrog join
    /// walks (single-step `next` advances are free and not counted).
    pub join_seeks: AtomicU64,
    /// Sorted column views opened for leapfrog join walks (each also
    /// counts as one query against its table, keeping `gamma_probes`
    /// honest).
    pub join_cursor_opens: AtomicU64,
    /// Per-step log; only populated when
    /// [`crate::engine::EngineConfig::record_steps`] is set.
    pub step_log: Mutex<Vec<StepRecord>>,
}

impl EngineStats {
    /// Statistics for `num_tables` tables counted from `stripes` staging
    /// shards (see [`TableStripe`]).
    pub fn new(num_tables: usize, stripes: usize) -> Self {
        EngineStats {
            tables: (0..num_tables).map(|_| TableStats::new(stripes)).collect(),
            steps: AtomicU64::new(0),
            tuples_processed: AtomicU64::new(0),
            max_class: AtomicU64::new(0),
            drain_nanos: AtomicU64::new(0),
            partition_nanos: AtomicU64::new(0),
            merge_nanos: AtomicU64::new(0),
            overlap_nanos: AtomicU64::new(0),
            execute_nanos: AtomicU64::new(0),
            inline_classes: AtomicU64::new(0),
            forked_classes: AtomicU64::new(0),
            delta_join_classes: AtomicU64::new(0),
            join_seeks: AtomicU64::new(0),
            join_cursor_opens: AtomicU64::new(0),
            step_log: Mutex::new(Vec::new()),
        }
    }

    pub fn record_step(&self, class_size: usize) {
        // ord: Relaxed — statistics counters, no cross-thread ordering
        // is derived from them.
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.tuples_processed
            .fetch_add(class_size as u64, Ordering::Relaxed);
        self.max_class
            .fetch_max(class_size as u64, Ordering::Relaxed);
    }

    pub fn log_step(&self, rec: StepRecord) {
        self.step_log.lock().push(rec);
    }

    /// Histogram of equivalence-class sizes from the step log, as
    /// `(bucket_upper_bound, count)` pairs with power-of-two buckets.
    /// This is the "available parallelism" profile.
    pub fn class_size_histogram(&self) -> Vec<(usize, usize)> {
        let log = self.step_log.lock();
        let mut buckets: Vec<(usize, usize)> = Vec::new();
        for rec in log.iter() {
            let mut bound = 1usize;
            while bound < rec.class_size {
                bound *= 2;
            }
            match buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some((_, c)) => *c += 1,
                None => buckets.push((bound, 1)),
            }
        }
        buckets.sort();
        buckets
    }

    /// Mean class size over the logged steps — a rough measure of how much
    /// parallelism the all-minimums strategy can exploit.
    pub fn mean_class_size(&self) -> f64 {
        let log = self.step_log.lock();
        if log.is_empty() {
            return 0.0;
        }
        log.iter().map(|r| r.class_size).sum::<usize>() as f64 / log.len() as f64
    }
}

impl EngineStats {
    /// Renders the per-step parallelism profile as an ASCII bar chart —
    /// the textual cousin of the paper's execution-visualisation views
    /// ("allow users to visually see the possible parallelism structure in
    /// their programs"). One row per step, bar length ∝ class size.
    pub fn render_parallelism_profile(&self, max_rows: usize) -> String {
        let log = self.step_log.lock();
        if log.is_empty() {
            return "(no step log — enable EngineConfig::record_steps)".into();
        }
        let max = log.iter().map(|r| r.class_size).max().unwrap_or(1).max(1);
        let mut out = String::new();
        let shown = log.len().min(max_rows);
        for rec in log.iter().take(shown) {
            let width = (rec.class_size * 40).div_ceil(max);
            out.push_str(&format!(
                "{:<24} |{:<40}| {}\n",
                truncate(&rec.key, 24),
                "█".repeat(width),
                rec.class_size
            ));
        }
        if log.len() > shown {
            out.push_str(&format!("... {} more steps\n", log.len() - shown));
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// A node/edge description of the program's rule dependency graph, used
/// for DOT export. Built by [`crate::program::Program::dependency_graph`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    /// Table names.
    pub tables: Vec<String>,
    /// `(rule name, trigger table index, output table indexes)`.
    pub rules: Vec<(String, usize, Vec<usize>)>,
}

impl DependencyGraph {
    /// Renders the graph in Graphviz DOT format. Tables are boxes
    /// (optionally annotated with put counts), rules are ellipses — the
    /// shapes of the paper's Fig. 7.
    pub fn to_dot(&self, stats: Option<&[TableStatsSnapshot]>) -> String {
        let mut out = String::from("digraph jstar {\n  rankdir=LR;\n");
        for (i, name) in self.tables.iter().enumerate() {
            let label = match stats.and_then(|s| s.get(i)) {
                Some(s) => format!("{name}\\nputs={} triggers={}", s.puts, s.triggers),
                None => name.clone(),
            };
            out.push_str(&format!(
                "  t{i} [shape=box, style=filled, fillcolor=lightblue, label=\"{label}\"];\n"
            ));
        }
        for (ri, (name, trigger, outputs)) in self.rules.iter().enumerate() {
            out.push_str(&format!(
                "  r{ri} [shape=ellipse, style=filled, fillcolor=salmon, label=\"{name}\"];\n"
            ));
            out.push_str(&format!("  t{trigger} -> r{ri} [style=bold];\n"));
            for o in outputs {
                out.push_str(&format!("  r{ri} -> t{o};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot() {
        let s = EngineStats::new(2, 3);
        // Bumps from different shards land in different stripes and are
        // summed by the snapshot.
        s.tables[0].stripe(0).puts.fetch_add(3, Ordering::Relaxed);
        s.tables[0].stripe(2).puts.fetch_add(4, Ordering::Relaxed);
        s.tables[1]
            .stripe(1)
            .triggers
            .fetch_add(1, Ordering::Relaxed);
        s.tables[1].delta_inserts.fetch_add(9, Ordering::Relaxed);
        s.record_step(5);
        s.record_step(2);
        assert_eq!(s.tables[0].snapshot().puts, 7);
        assert_eq!(s.tables[1].snapshot().triggers, 1);
        assert_eq!(s.tables[1].snapshot().delta_inserts, 9);
        assert_eq!(s.tables[1].snapshot().puts, 0);
        assert_eq!(s.steps.load(Ordering::Relaxed), 2);
        assert_eq!(s.tuples_processed.load(Ordering::Relaxed), 7);
        assert_eq!(s.max_class.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let s = EngineStats::new(0, 1);
        for size in [1, 1, 2, 3, 5, 9, 17] {
            s.log_step(StepRecord {
                key: String::new(),
                class_size: size,
                micros: 0,
            });
        }
        let hist = s.class_size_histogram();
        assert_eq!(hist, vec![(1, 2), (2, 1), (4, 1), (8, 1), (16, 1), (32, 1)]);
        assert!((s.mean_class_size() - 38.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_mean_is_zero() {
        let s = EngineStats::new(0, 1);
        assert_eq!(s.mean_class_size(), 0.0);
        assert!(s.class_size_histogram().is_empty());
    }

    #[test]
    fn parallelism_profile_renders_bars() {
        let s = EngineStats::new(0, 1);
        s.log_step(StepRecord {
            key: "(Req)".into(),
            class_size: 4,
            micros: 10,
        });
        s.log_step(StepRecord {
            key: "(SumMonth)".into(),
            class_size: 12,
            micros: 10,
        });
        let chart = s.render_parallelism_profile(10);
        assert!(chart.contains("(Req)"));
        assert!(chart.contains("12"));
        assert!(chart.contains('█'));
        // Truncation of long logs.
        let chart = s.render_parallelism_profile(1);
        assert!(chart.contains("1 more steps"));
    }

    #[test]
    fn empty_profile_has_hint() {
        let s = EngineStats::new(0, 1);
        assert!(s.render_parallelism_profile(5).contains("record_steps"));
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let g = DependencyGraph {
            tables: vec!["PvWattsRequest".into(), "PvWatts".into(), "SumMonth".into()],
            rules: vec![
                ("read".into(), 0, vec![1]),
                ("request-month".into(), 1, vec![2]),
                ("summarise".into(), 2, vec![]),
            ],
        };
        let dot = g.to_dot(None);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("PvWatts"));
        assert!(dot.contains("t0 -> r0"));
        assert!(dot.contains("r0 -> t1"));
        assert!(dot.contains("r2"));
    }

    #[test]
    fn dot_export_annotates_stats() {
        let g = DependencyGraph {
            tables: vec!["A".into()],
            rules: vec![],
        };
        let snap = TableStatsSnapshot {
            puts: 42,
            triggers: 7,
            ..Default::default()
        };
        let dot = g.to_dot(Some(&[snap]));
        assert!(dot.contains("puts=42"));
        assert!(dot.contains("triggers=7"));
    }
}
