//! The two timing gates CI's perf job runs:
//!
//! ```text
//! cargo test --release -p jstar-bench --test perf_gates -- --ignored --nocapture
//! ```
//!
//! They time real runs, so tier-1 skips them (`#[ignore]`); the
//! trajectory of every metric is the `spine` benchmark's job, and these
//! only fail a build whose drain or checkpoint path has regressed past a
//! fixed bound.

use jstar_apps::pvwatts::{generate_csv, InputOrder, Variant};
use jstar_apps::shortest_path;
use jstar_bench::workloads::{dijkstra_spec, par_config, run_dijkstra, run_pvwatts};
use jstar_core::prelude::EngineConfig;
use std::sync::{Arc, Mutex};

/// fig 12's coordinator drain share may not exceed this at any thread count.
const DRAIN_CEILING: f64 = 0.5;
/// Checkpointing fig 8 may cost at most this much (median pair ratio).
const CHECKPOINT_TOLERANCE: f64 = 1.10;

/// Held by each gate for its whole run: the test harness runs tests on
/// parallel threads, and one gate's runs must not time the other's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// fig 12 (Dijkstra) at 1, 4 and 8 threads, one `record_steps` run each
/// after a discarded warm-up on the same pool: the worst drain fraction
/// must stay under [`DRAIN_CEILING`], or the partitioned drain has
/// become the coordinator's bottleneck again.
#[test]
#[ignore = "timing gate: CI perf job"]
fn fig12_drain_fraction_stays_under_ceiling() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let spec = dijkstra_spec();
    let mut worst = 0.0f64;
    for threads in [1, 4, 8] {
        let config = par_config(threads);
        run_dijkstra(spec, config.clone());
        let (_, report) =
            shortest_path::run_jstar_report(spec, config.record_steps()).expect("dijkstra runs");
        println!(
            "fig12 parallel({threads}): drain fraction {:.3}",
            report.drain_fraction()
        );
        worst = worst.max(report.drain_fraction());
    }
    assert!(
        worst <= DRAIN_CEILING,
        "fig12 drain fraction {worst:.3} exceeds the {DRAIN_CEILING} ceiling"
    );
}

/// fig 8 (PvWatts, hash store) at 4 threads with a checkpoint every 2
/// steps against the same run without, in 9 interleaved off/on pairs
/// after one discarded run of each. fig 8 pops two wide classes, so the
/// interval of 2 takes one real full-Gamma checkpoint per run. The CSV is
/// a fixed 175,200 rows: a run of a few hundred ms keeps one preemption
/// inside the tolerance. Checkpoints go to tmpfs when the host has one,
/// so disk commit latency does not enter the ratio. The gated figure is
/// the median of the per-pair on/off ratios: each pair runs under the
/// same machine conditions, and the median discards an outlier pair.
#[test]
#[ignore = "timing gate: CI perf job"]
fn fig8_checkpoint_overhead_stays_within_tolerance() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 4;
    const PAIRS: usize = 9;
    let csv = Arc::new(generate_csv(175_200, InputOrder::Chronological));
    let base = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("jstar-perf-gate-ckpt-{}", std::process::id()));
    let off = par_config(THREADS);
    let on = off.clone().checkpoint(&dir, 2).checkpoint_keep(2);
    let run = |config: &EngineConfig| {
        run_pvwatts(&csv, THREADS, Variant::HashStore, config.clone()).as_secs_f64()
    };

    run(&off);
    run(&on);
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let off_s = run(&off);
            run(&on) / off_s
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    println!("fig8 checkpoint on/off pair ratios {ratios:.3?}, median {median:.3}");
    assert!(
        median <= CHECKPOINT_TOLERANCE,
        "fig8 with a checkpoint every 2 steps is {median:.3}x the plain run \
         (tolerance {CHECKPOINT_TOLERANCE}x): the checkpoint path got expensive"
    );
}
