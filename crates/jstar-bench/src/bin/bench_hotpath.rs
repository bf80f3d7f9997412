//! Machine-readable hot-path benchmark: `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p jstar-bench --bin bench_hotpath
//! cargo run --release -p jstar-bench --bin bench_hotpath -- \
//!     --out BENCH_hotpath.json --runs 5 --check-drain 0.5
//! ```
//!
//! Measures the three scaling exhibits the hot-path work targets —
//! fig8 (PvWatts, hash store), fig11 (MatrixMult) and fig12 (Dijkstra)
//! — at 1/4/8 threads, **interleaved**: each timing round runs every
//! (workload, threads) cell once before any cell repeats, so ambient
//! machine noise lands on all cells evenly and cross-run medians are
//! comparable. One instrumented Dijkstra run per thread count also
//! records the coordinator's drain/partition/merge split.
//!
//! The JSON output is the repo's perf trajectory: CI uploads it as an
//! artifact per commit, and `--check-drain <ceiling>` turns the run
//! into a regression gate: non-zero exit when the fig12 drain fraction
//! exceeds the ceiling (the coordinator has become the bottleneck
//! again). The instrumented rows also report `overlap_fraction` (the
//! share of drain work hidden behind class execution).
//!
//! The `checkpoint_overhead` section times fig8 (PvWatts) with one
//! real full-Gamma checkpoint per run vs. off, interleaved; under
//! `--check-drain` the checkpointed median must stay within 1.10x of
//! the plain run — durability is sold as cheap, so the quiesce +
//! serialize + rename cycle failing that bound is a regression, not a
//! tuning choice.
//!
//! The `delta_join` and `wco_join` sections share one two-arm
//! triangle-counting measurement, interleaved per round at 1/4/8
//! threads: per-tuple nested-loop firing vs. batched delta-join on the
//! leapfrog merged-cursor walk (the default). `delta_join` reports the
//! timing ratio and batching counters; `wco_join` the Gamma probe /
//! join seek / cursor-open counters, so the "coordinated walk searches
//! less than per-tuple probing" claim is measured, not asserted. The
//! `delta_join_parity` section runs pairwise per-tuple vs. delta-join
//! A/B on fig8/fig11/fig12 — programs with *no* join rules, where mode
//! selection must be free; under `--check-drain`, any parity median
//! beyond 1.10x fails the run.

use jstar_apps::matmul;
use jstar_apps::pvwatts::{InputOrder, Variant};
use jstar_apps::shortest_path;
use jstar_apps::triangles;
use jstar_bench::scale;
use jstar_bench::workloads::*;
use jstar_core::prelude::*;
use jstar_pool::ThreadPool;
use std::sync::Arc;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 4, 8];
const WORKLOADS: [&str; 3] = ["fig8_pvwatts", "fig11_matmul", "fig12_dijkstra"];

struct Args {
    out: String,
    runs: usize,
    check_drain: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_hotpath.json".into(),
        runs: 5,
        check_drain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().expect("--out <path>"),
            "--runs" => args.runs = it.next().and_then(|v| v.parse().ok()).expect("--runs <n>"),
            "--check-drain" => {
                args.check_drain = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--check-drain <frac>"),
                )
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args.runs = args.runs.max(5); // the trajectory promises ≥5-run medians
    args
}

fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

fn json_f(v: f64) -> String {
    // JSON has no NaN/Inf; clamp degenerate timer output to 0.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".into()
    }
}

fn main() {
    let args = parse_args();
    let runs = args.runs;

    // Shared inputs, generated once.
    let csv = pvwatts_csv(InputOrder::Chronological);
    let n = matmul_n();
    let a = Arc::new(matmul::gen_matrix(n, 11));
    let b = Arc::new(matmul::gen_matrix(n, 22));
    let spec = dijkstra_spec();
    // One pool per thread count, reused across every run so pool
    // spin-up never pollutes a sample.
    let pools: Vec<Arc<ThreadPool>> = THREADS.iter().map(|&t| pool_of(t)).collect();
    let config = |ti: usize| {
        let mut c = EngineConfig::parallel(THREADS[ti]);
        c.pool = Some(Arc::clone(&pools[ti]));
        c
    };

    // Warm-up round (discarded): page the inputs in, warm allocators.
    for (ti, &threads) in THREADS.iter().enumerate() {
        run_pvwatts(&csv, threads.max(2), Variant::HashStore, config(ti));
        run_matmul(n, &a, &b, config(ti));
        run_dijkstra(spec, config(ti));
    }

    // Interleaved timing rounds: cells[workload][threads] collects one
    // sample per round.
    let mut cells: Vec<Vec<Vec<Duration>>> =
        vec![vec![Vec::with_capacity(runs); THREADS.len()]; WORKLOADS.len()];
    for _round in 0..runs {
        for ti in 0..THREADS.len() {
            cells[0][ti].push(run_pvwatts(
                &csv,
                THREADS[ti].max(2),
                Variant::HashStore,
                config(ti),
            ));
            cells[1][ti].push(run_matmul(n, &a, &b, config(ti)));
            cells[2][ti].push(run_dijkstra(spec, config(ti)));
        }
    }

    // Instrumented Dijkstra runs: the coordinator's drain split and the
    // pipeline's overlap share.
    struct DrainRow {
        threads: usize,
        drain_fraction: f64,
        overlap_fraction: f64,
        partition_secs: f64,
        merge_secs: f64,
        overlap_secs: f64,
        execute_secs: f64,
        steps: u64,
    }
    let drain_rows: Vec<DrainRow> = (0..THREADS.len())
        .map(|ti| {
            let (_, report) = shortest_path::run_jstar_report(spec, config(ti).record_steps())
                .expect("dijkstra runs");
            DrainRow {
                threads: THREADS[ti],
                drain_fraction: report.drain_fraction(),
                overlap_fraction: report.overlap_fraction(),
                partition_secs: report.partition_time.as_secs_f64(),
                merge_secs: report.merge_time.as_secs_f64(),
                overlap_secs: report.overlap_time.as_secs_f64(),
                execute_secs: report.execute_time.as_secs_f64(),
                steps: report.steps,
            }
        })
        .collect();

    // Two-arm triangle A/B: the app's Probe stratum pops as one wide
    // class over a two-stage join rule, so the arms differ only in how
    // that class meets Gamma — per-tuple nested-loop firing (one
    // indexed probe per tuple per stage) vs. the batched class lowered
    // onto the leapfrog merged-cursor walk (one coordinated index walk
    // per class, the default). Arms are interleaved within each round
    // so both see the same ambient noise.
    let tri_spec = triangles_spec();
    let tri_config = |ti: usize, delta_join: bool| {
        let c = config(ti);
        if delta_join {
            c
        } else {
            c.delta_join_from(usize::MAX)
        }
    };
    for delta_join in [false, true] {
        run_triangles(tri_spec, tri_config(0, delta_join)); // warm-up, discarded
    }
    // tri_cells[threads] = (per-tuple, delta-join) samples: the arms
    // run back-to-back under the same ambient conditions.
    let mut tri_cells: Vec<(Vec<Duration>, Vec<Duration>)> =
        vec![(Vec::with_capacity(runs), Vec::with_capacity(runs)); THREADS.len()];
    for _round in 0..runs {
        for (ti, (pt, dj)) in tri_cells.iter_mut().enumerate() {
            pt.push(run_triangles(tri_spec, tri_config(ti, false)));
            dj.push(run_triangles(tri_spec, tri_config(ti, true)));
        }
    }
    // One counter run per (threads, arm): the probe/seek counters are
    // plain stats, always collected, so these runs are cheap and stay
    // outside the timing cells.
    struct TriRow {
        threads: usize,
        median_per_tuple: Duration,
        median_delta_join: Duration,
        ratio_dj_vs_pt: f64,
        pt_gamma_probes: u64,
        dj_gamma_probes: u64,
        dj_join_seeks: u64,
        dj_cursor_opens: u64,
        dj_classes: u64,
        dj_build_tuples: u64,
    }
    let mut tri_rows: Vec<TriRow> = Vec::with_capacity(THREADS.len());
    for (ti, &tri_threads) in THREADS.iter().enumerate() {
        let (_, pt_report) =
            triangles::run_jstar_report(tri_spec, tri_config(ti, false)).expect("triangles");
        let (_, dj_report) =
            triangles::run_jstar_report(tri_spec, tri_config(ti, true)).expect("triangles");
        assert_eq!(
            pt_report.delta_join_classes, 0,
            "per-tuple arm must not batch"
        );
        assert!(
            dj_report.delta_join_classes > 0,
            "delta-join arm must batch"
        );
        let med_pt = median(&tri_cells[ti].0);
        let med_dj = median(&tri_cells[ti].1);
        tri_rows.push(TriRow {
            threads: tri_threads,
            median_per_tuple: med_pt,
            median_delta_join: med_dj,
            ratio_dj_vs_pt: if med_pt.as_secs_f64() > 0.0 {
                med_dj.as_secs_f64() / med_pt.as_secs_f64()
            } else {
                1.0
            },
            pt_gamma_probes: pt_report.gamma_probes,
            dj_gamma_probes: dj_report.gamma_probes,
            dj_join_seeks: dj_report.join_seeks,
            dj_cursor_opens: dj_report.join_cursor_opens,
            dj_classes: dj_report.delta_join_classes,
            dj_build_tuples: dj_report.delta_join_build_tuples,
        });
    }

    // Delta-join parity on the join-free exhibits: fig8/fig11/fig12
    // have no join-plan rules, so enabling delta-join must cost nothing
    // beyond the scheduler's per-class eligibility check. Matched
    // interleaved pairs at the mid thread count, gated on the median
    // pair ratio like the checkpoint section.
    struct ParityRow {
        workload: &'static str,
        median_per_tuple: Duration,
        median_delta_join: Duration,
        ratio: f64,
    }
    let parity_ti = 1; // 4 threads — the mid cell
    let mut parity_rows: Vec<ParityRow> = Vec::new();
    {
        let parity_config = |dj: bool| {
            let mut c = config(parity_ti);
            if !dj {
                c = c.delta_join_from(usize::MAX);
            }
            c
        };
        let mut measure = |workload: &'static str, f: &mut dyn FnMut(EngineConfig) -> Duration| {
            let mut pt: Vec<Duration> = Vec::with_capacity(runs);
            let mut dj: Vec<Duration> = Vec::with_capacity(runs);
            for _round in 0..runs {
                pt.push(f(parity_config(false)));
                dj.push(f(parity_config(true)));
            }
            let mut ratios: Vec<f64> = pt
                .iter()
                .zip(&dj)
                .filter(|(p, _)| p.as_secs_f64() > 0.0)
                .map(|(p, d)| d.as_secs_f64() / p.as_secs_f64())
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            parity_rows.push(ParityRow {
                workload,
                median_per_tuple: median(&pt),
                median_delta_join: median(&dj),
                ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(1.0),
            });
        };
        measure("fig8_pvwatts", &mut |c| {
            run_pvwatts(&csv, THREADS[parity_ti].max(2), Variant::HashStore, c)
        });
        measure("fig11_matmul", &mut |c| run_matmul(n, &a, &b, c));
        measure("fig12_dijkstra", &mut |c| run_dijkstra(spec, c));
    }

    // Checkpoint overhead: fig8 with periodic checkpointing on vs. off,
    // interleaved. The checkpoint path quiesces the Delta queue,
    // serializes every Gamma store and publishes via temp + rename —
    // all on the coordinator — so this ratio is the full durability
    // cost as the user experiences it. fig8 pops exactly two very wide
    // classes, so the interval is 2: one real checkpoint per run (the
    // full-Gamma post-aggregation one) — anything coarser would never
    // fire here and the gate would be vacuous. The section's CSV is a
    // fixed size, deliberately exempt from `JSTAR_BENCH_SCALE`: the
    // true overhead ratio is scale-invariant (checkpoint and run cost
    // both grow with rows), but the *measurement* is not — a scaled-
    // down sub-40ms run is commensurate with one scheduler timeslice,
    // so a single preemption swings a pair ratio by more than the
    // tolerance margin. A multi-hundred-ms run keeps scheduler and
    // pipeline-shape noise well inside the 10% budget and adds only a
    // few seconds to the whole bench.
    const CHECKPOINT_EVERY: u64 = 2;
    let ckpt_rows = 175_200;
    let ckpt_csv = Arc::new(jstar_apps::pvwatts::generate_csv(
        ckpt_rows,
        InputOrder::Chronological,
    ));
    let ckpt_runs = runs.max(9);
    // Checkpoints land on tmpfs when the host has one: the gate
    // guards the engine-side serialization cost, and ext4/overlay
    // commit latency for the same 400 KB image varies ~3x across CI
    // hosts — exactly the noise a regression gate must not inherit.
    let ckpt_base = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let ckpt_dir = ckpt_base.join(format!("jstar-bench-ckpt-{}", std::process::id()));
    let ckpt_threads_idx = 1; // 4 threads — the mid cell
    let ckpt_config = |on: bool| {
        let mut c = EngineConfig::parallel(THREADS[ckpt_threads_idx]);
        c.pool = Some(Arc::clone(&pools[ckpt_threads_idx]));
        if on {
            c = c.checkpoint(&ckpt_dir, CHECKPOINT_EVERY).checkpoint_keep(2);
        }
        c
    };
    let ckpt_run = |on: bool| {
        run_pvwatts(
            &ckpt_csv,
            THREADS[ckpt_threads_idx].max(2),
            Variant::HashStore,
            ckpt_config(on),
        )
    };
    ckpt_run(false); // warm-up, discarded
    ckpt_run(true);
    let mut ckpt_off: Vec<Duration> = Vec::with_capacity(ckpt_runs);
    let mut ckpt_on: Vec<Duration> = Vec::with_capacity(ckpt_runs);
    for _round in 0..ckpt_runs {
        ckpt_off.push(ckpt_run(false));
        ckpt_on.push(ckpt_run(true));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_off_median = median(&ckpt_off);
    let ckpt_on_median = median(&ckpt_on);
    // The gated ratio is the median of the per-round on/off ratios.
    // The arms interleave, so each round is a matched pair taken under
    // the same machine conditions — the pairwise ratio cancels drift
    // (thermal, cache, background load) that a cross-arm median
    // inherits, and the median over rounds discards the occasional
    // lucky-scheduler outlier that makes per-arm minima fragile: one
    // anomalously fast `off` sample shifts a min-based ratio by
    // several points but moves one pair's ratio, not the middle one.
    let mut pair_ratios: Vec<f64> = ckpt_off
        .iter()
        .zip(&ckpt_on)
        .filter(|(off, _)| off.as_secs_f64() > 0.0)
        .map(|(off, on)| on.as_secs_f64() / off.as_secs_f64())
        .collect();
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let ckpt_ratio = pair_ratios
        .get(pair_ratios.len() / 2)
        .copied()
        .unwrap_or(1.0);

    // Hand-rolled JSON (the workspace deliberately vendors no serde).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"jstar-hotpath/v6\",\n");
    out.push_str(&format!("  \"scale\": {},\n", json_f(scale())));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    ));
    out.push_str(&format!("  \"runs_per_cell\": {runs},\n"));
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        for (ti, &threads) in THREADS.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let samples = &cells[wi][ti];
            let runs_json: Vec<String> = samples.iter().map(|d| json_f(d.as_secs_f64())).collect();
            out.push_str(&format!(
                "    {{\"workload\": \"{workload}\", \"threads\": {threads}, \
                 \"median_secs\": {}, \"runs_secs\": [{}]}}",
                json_f(median(samples).as_secs_f64()),
                runs_json.join(", ")
            ));
        }
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"dijkstra_drain\": [\n");
    for (i, row) in drain_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"drain_fraction\": {}, \"overlap_fraction\": {}, \
             \"partition_secs\": {}, \"merge_secs\": {}, \"overlap_secs\": {}, \
             \"execute_secs\": {}, \"steps\": {}}}{}\n",
            row.threads,
            json_f(row.drain_fraction),
            json_f(row.overlap_fraction),
            json_f(row.partition_secs),
            json_f(row.merge_secs),
            json_f(row.overlap_secs),
            json_f(row.execute_secs),
            row.steps,
            if i + 1 < drain_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta_join\": [\n");
    for (i, row) in tri_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"triangles\", \"threads\": {}, \
             \"median_per_tuple_secs\": {}, \"median_delta_join_secs\": {}, \
             \"ratio_dj_vs_pt\": {}, \"delta_join_classes\": {}, \
             \"delta_join_build_tuples\": {}}}{}\n",
            row.threads,
            json_f(row.median_per_tuple.as_secs_f64()),
            json_f(row.median_delta_join.as_secs_f64()),
            json_f(row.ratio_dj_vs_pt),
            row.dj_classes,
            row.dj_build_tuples,
            if i + 1 < tri_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"wco_join\": [\n");
    for (i, row) in tri_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"triangles\", \"threads\": {}, \
             \"per_tuple_gamma_probes\": {}, \"leapfrog_gamma_probes\": {}, \
             \"leapfrog_join_seeks\": {}, \"leapfrog_cursor_opens\": {}}}{}\n",
            row.threads,
            row.pt_gamma_probes,
            row.dj_gamma_probes,
            row.dj_join_seeks,
            row.dj_cursor_opens,
            if i + 1 < tri_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta_join_parity\": [\n");
    for (i, row) in parity_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"median_per_tuple_secs\": {}, \
             \"median_delta_join_secs\": {}, \"ratio_dj_vs_pt\": {}}}{}\n",
            row.workload,
            THREADS[parity_ti],
            json_f(row.median_per_tuple.as_secs_f64()),
            json_f(row.median_delta_join.as_secs_f64()),
            json_f(row.ratio),
            if i + 1 < parity_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"checkpoint_overhead\": {{\"workload\": \"fig8_pvwatts\", \"threads\": {}, \
         \"checkpoint_every\": {CHECKPOINT_EVERY}, \"csv_rows\": {ckpt_rows}, \
         \"runs_per_arm\": {ckpt_runs}, \"median_off_secs\": {}, \
         \"median_on_secs\": {}, \"pair_ratios\": [{}], \
         \"ratio_on_vs_off\": {}}}\n",
        THREADS[ckpt_threads_idx],
        json_f(ckpt_off_median.as_secs_f64()),
        json_f(ckpt_on_median.as_secs_f64()),
        pair_ratios
            .iter()
            .map(|r| json_f(*r))
            .collect::<Vec<_>>()
            .join(", "),
        json_f(ckpt_ratio)
    ));
    out.push_str("}\n");

    std::fs::write(&args.out, &out).expect("write BENCH_hotpath.json");
    println!(
        "wrote {} ({} workloads x {} thread counts, {} runs each)",
        args.out,
        WORKLOADS.len(),
        THREADS.len(),
        runs
    );

    if let Some(ceiling) = args.check_drain {
        let worst = drain_rows
            .iter()
            .map(|r| r.drain_fraction)
            .fold(0.0f64, f64::max);
        if worst > ceiling {
            eprintln!(
                "FAIL: fig12 drain fraction {worst:.3} exceeds the {ceiling:.3} ceiling \
                 — the coordinator drain is the bottleneck again"
            );
            std::process::exit(1);
        }
        println!("drain check ok: worst fig12 drain fraction {worst:.3} <= {ceiling:.3}");

        // Delta-join parity gate: on programs with no join rules, the
        // batched mode must be indistinguishable from per-tuple firing
        // — the scheduler's eligibility check is the only code the mode
        // adds to their hot path, and it must stay free.
        const DJ_TOLERANCE: f64 = 1.10;
        for row in &parity_rows {
            if row.ratio > DJ_TOLERANCE {
                eprintln!(
                    "FAIL: {} in delta-join mode is {:.3}x per-tuple mode (medians {:.4}s vs \
                     {:.4}s, tolerance {DJ_TOLERANCE:.2}x) — mode selection is no longer free \
                     on join-free programs",
                    row.workload,
                    row.ratio,
                    row.median_delta_join.as_secs_f64(),
                    row.median_per_tuple.as_secs_f64(),
                );
                std::process::exit(1);
            }
        }
        let parity: Vec<String> = parity_rows
            .iter()
            .map(|r| format!("{} {:.3}", r.workload, r.ratio))
            .collect();
        println!(
            "delta-join parity ok (pair-ratio medians vs per-tuple): {}",
            parity.join(", ")
        );

        // Checkpoint-overhead gate: periodic durability must stay a
        // rounding error on the run it protects.
        const CHECKPOINT_TOLERANCE: f64 = 1.10;
        if ckpt_ratio > CHECKPOINT_TOLERANCE {
            eprintln!(
                "FAIL: fig8 with checkpointing every {CHECKPOINT_EVERY} steps is \
                 {ckpt_ratio:.3}x the plain run (medians {:.4}s vs {:.4}s, tolerance \
                 {CHECKPOINT_TOLERANCE:.2}x) — the checkpoint path got expensive",
                ckpt_on_median.as_secs_f64(),
                ckpt_off_median.as_secs_f64(),
            );
            std::process::exit(1);
        }
        println!(
            "checkpoint overhead ok: fig8 on/off ratio {ckpt_ratio:.3} <= {CHECKPOINT_TOLERANCE:.2}"
        );
    }
}
