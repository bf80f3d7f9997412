//! Regenerates the tables and figures of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p jstar-bench --bin figures -- all
//! cargo run --release -p jstar-bench --bin figures -- fig6 fig8 table1
//! ```
//!
//! Output is Markdown. An unknown exhibit name lists the valid ones and
//! exits with status 2.

use jstar_apps::matmul;
use jstar_apps::median;
use jstar_apps::pvwatts::{DisruptorConfig, InputOrder, Variant};
use jstar_apps::shortest_path;
use jstar_bench::workloads::*;
use jstar_bench::{print_table, secs, speedups, thread_sweep, time_median};
use jstar_core::prelude::*;
use jstar_disruptor::WaitStrategyKind;
use std::sync::Arc;
use std::time::Duration;

const RUNS: usize = 3;

type Exhibit = (&'static str, fn());

/// Every exhibit, in the order `all` prints them.
const EXHIBITS: [Exhibit; 9] = [
    ("fig6", fig6),
    ("nodelta", nodelta),
    ("fig8", fig8),
    ("phases", phases),
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
];

/// The exhibits the command line names, in [`EXHIBITS`] order; no
/// argument or `all` names every one. An unknown name is an error that
/// lists the valid ones.
fn parse(args: &[String]) -> std::result::Result<Vec<Exhibit>, String> {
    let known = |a: &String| a == "all" || EXHIBITS.iter().any(|(name, _)| a == name);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown exhibit `{bad}`; valid: all {}",
            names.join(" ")
        ));
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    Ok(EXHIBITS
        .into_iter()
        .filter(|(name, _)| all || args.iter().any(|a| a == name))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exhibits = parse(&args).unwrap_or_else(|msg| {
        eprintln!("figures: {msg}");
        std::process::exit(2)
    });

    println!("# JStar paper exhibits");
    println!(
        "\nMachine: {} hardware threads.",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );
    for (_, exhibit) in exhibits {
        exhibit();
    }
}

/// Fig. 6: absolute sequential speed, JStar vs hand-coded baselines.
fn fig6() {
    let mut rows = Vec::new();

    // PvWatts: JStar (byte CSV + hash store) vs Java-style baseline.
    let csv = pvwatts_csv(InputOrder::Chronological);
    let jstar = time_median(RUNS, || {
        run_pvwatts(&csv, 1, Variant::CustomStore, EngineConfig::sequential())
    });
    let java = time_median(RUNS, || run_pvwatts_baseline(&csv));
    rows.push(vec![
        "PvWatts".into(),
        secs(jstar),
        secs(java),
        String::new(),
    ]);

    // MatrixMult: JStar vs naive ijk vs transposed.
    let n = MATMUL_N;
    let a = Arc::new(matmul::gen_matrix(n, 11));
    let b = Arc::new(matmul::gen_matrix(n, 22));
    let jstar = time_median(RUNS, || run_matmul(n, &a, &b, EngineConfig::sequential()));
    let naive = time_median(RUNS, || {
        jstar_bench::time_once(|| matmul::multiply_naive(&a, &b, n)).1
    });
    let trans = time_median(RUNS, || {
        jstar_bench::time_once(|| matmul::multiply_transposed(&a, &b, n)).1
    });
    rows.push(vec![
        format!("MatrixMult (N={n})"),
        secs(jstar),
        secs(naive),
        format!("transposed: {}", secs(trans)),
    ]);

    // ShortestPath: JStar (Delta tree as priority queue) vs BinaryHeap.
    let spec = dijkstra_spec();
    let jstar = time_median(RUNS, || run_dijkstra(spec, EngineConfig::sequential()));
    let adj = shortest_path::adjacency(&spec);
    let heap = time_median(RUNS, || {
        jstar_bench::time_once(|| shortest_path::dijkstra_baseline(&adj, 0)).1
    });
    rows.push(vec![
        format!("ShortestPath (V={}, E≈{})", spec.n, spec.n + spec.extra),
        secs(jstar),
        secs(heap),
        String::new(),
    ]);

    // Median: JStar (iterative partition) vs full sort vs quickselect.
    let data = Arc::new(median::gen_data(MEDIAN_LEN, 1234));
    let jstar = time_median(RUNS, || run_median(&data, 12, EngineConfig::sequential()));
    let sort = time_median(RUNS, || {
        jstar_bench::time_once(|| median::median_by_sort(&data)).1
    });
    let qsel = time_median(RUNS, || {
        jstar_bench::time_once(|| median::median_by_quickselect(&data)).1
    });
    rows.push(vec![
        format!("Median (n={})", data.len()),
        secs(jstar),
        secs(sort),
        format!("quickselect: {}", secs(qsel)),
    ]);

    print_table(
        "Fig. 6 — absolute sequential time (s): JStar vs hand-coded",
        &["program", "JStar -sequential", "hand-coded", "notes"],
        &rows,
    );
}

/// §6.2: the -noDelta=PvWatts optimisation (23.0 s → 8.44 s in the paper).
fn nodelta() {
    let csv = pvwatts_csv(InputOrder::Chronological);
    let mut rows = Vec::new();
    let mut base_time = Duration::ZERO;
    for variant in Variant::all() {
        let t = time_median(RUNS, || {
            run_pvwatts(&csv, 1, variant, EngineConfig::sequential())
        });
        if variant == Variant::Naive {
            base_time = t;
        }
        rows.push(vec![
            variant.name().into(),
            secs(t),
            format!("{:.2}x", base_time.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    print_table(
        "§6.2 — sequential PvWatts with/without -noDelta (paper: 23.0 s → 8.44 s, 2.7×)",
        &["variant", "time (s)", "speedup vs naive"],
        &rows,
    );
}

/// Fig. 8: PvWatts relative speedup vs fork/join pool size, per store.
fn fig8() {
    let csv = pvwatts_csv(InputOrder::Chronological);
    let sweep = thread_sweep();
    let mut rows = Vec::new();
    for variant in [Variant::NoDelta, Variant::HashStore, Variant::CustomStore] {
        let times: Vec<Duration> = sweep
            .iter()
            .map(|&t| time_median(RUNS, || run_pvwatts(&csv, t.max(2), variant, par_config(t))))
            .collect();
        let sp = speedups(&times);
        for ((&t, time), s) in sweep.iter().zip(&times).zip(&sp) {
            rows.push(vec![
                variant.name().into(),
                t.to_string(),
                secs(*time),
                format!("{s:.2}"),
            ]);
        }
    }
    print_table(
        "Fig. 8 — PvWatts relative speedup vs pool size (paper: ≈4× at 8 threads)",
        &["gamma store", "threads", "time (s)", "relative speedup"],
        &rows,
    );
}

/// §6.3: phase breakdown and the Amdahl bound.
fn phases() {
    let csv = pvwatts_csv(InputOrder::Chronological);
    let phases = pvwatts_phase_breakdown(&csv);
    let total: f64 = phases.iter().map(|&(_, t)| t).sum();
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&(name, t)| vec![name.into(), format!("{:.1}%", 100.0 * t / total)])
        .collect();
    print_table(
        "§6.3 — PvWatts phase breakdown at 1 thread (paper: 16.9 / 63.7 / 3.8 / 15.6 %)",
        &["phase", "share"],
        &rows,
    );
    let read_frac = phases[0].1 / total;
    println!(
        "\nAmdahl bound with a single reader and 12 consumers: {:.1}x (paper: 4.2x)",
        amdahl(read_frac, 12)
    );
}

/// Table 1: Disruptor tuning — wait strategies, ring sizes, batch sizes.
fn table1() {
    let csv = pvwatts_csv(InputOrder::Chronological);
    let mut rows = Vec::new();
    // Wait-strategy sweep at the paper's ring/batch settings.
    for wait in WaitStrategyKind::all() {
        let cfg = DisruptorConfig {
            consumers: 12,
            ring_size: 1024,
            batch: 256,
            wait,
        };
        let t = time_median(RUNS, || run_pvwatts_disruptor(&csv, cfg));
        rows.push(vec![
            wait.name().into(),
            "1024".into(),
            "256".into(),
            secs(t),
        ]);
    }
    // Ring-size sweep at the chosen wait strategy.
    for ring in [64, 256, 1024, 4096] {
        let cfg = DisruptorConfig {
            consumers: 12,
            ring_size: ring,
            batch: 256.min(ring),
            wait: WaitStrategyKind::Blocking,
        };
        let t = time_median(RUNS, || run_pvwatts_disruptor(&csv, cfg));
        rows.push(vec![
            "BlockingWaitStrategy".into(),
            ring.to_string(),
            256.min(ring).to_string(),
            secs(t),
        ]);
    }
    // Batch-size sweep.
    for batch in [1, 16, 256] {
        let cfg = DisruptorConfig {
            consumers: 12,
            ring_size: 1024,
            batch,
            wait: WaitStrategyKind::Blocking,
        };
        let t = time_median(RUNS, || run_pvwatts_disruptor(&csv, cfg));
        rows.push(vec![
            "BlockingWaitStrategy".into(),
            "1024".into(),
            batch.to_string(),
            secs(t),
        ]);
    }
    print_table(
        "Table 1 — Disruptor tuning (paper's best: Blocking, ring 1024, batch 256, 12 consumers)",
        &["wait strategy", "ring size", "producer batch", "time (s)"],
        &rows,
    );

    // Claim-strategy sweep: single-threaded claim vs multi-producer.
    let mut rows = Vec::new();
    let single = time_median(RUNS, || {
        run_pvwatts_disruptor(&csv, DisruptorConfig::default())
    });
    rows.push(vec![
        "SingleThreaded-ClaimStrategy".into(),
        "1".into(),
        secs(single),
    ]);
    for producers in [1usize, 2, 4] {
        let t = time_median(RUNS, || {
            jstar_bench::time_once(|| {
                jstar_apps::pvwatts::disruptor_version::run_multi_producer(
                    &csv,
                    producers,
                    DisruptorConfig::default(),
                )
            })
            .1
        });
        rows.push(vec![
            "MultiThreaded-ClaimStrategy".into(),
            producers.to_string(),
            secs(t),
        ]);
    }
    print_table(
        "Table 1 (cont.) — claim strategy: single vs multi producer",
        &["claim strategy", "producers", "time (s)"],
        &rows,
    );
}

/// Fig. 10: Disruptor PvWatts, sorted vs unsorted input, consumer sweep.
fn fig10() {
    let unsorted = pvwatts_csv(InputOrder::Chronological);
    let sorted = pvwatts_csv(InputOrder::RoundRobin);
    // Sequential JStar reference (the paper's comparison base).
    let seq = time_median(RUNS, || {
        run_pvwatts(&unsorted, 1, Variant::HashStore, EngineConfig::sequential())
    });
    let mut rows = Vec::new();
    for (name, csv) in [
        ("unsorted (chronological)", &unsorted),
        ("sorted (round-robin)", &sorted),
    ] {
        for consumers in [1usize, 2, 4, 8, 12] {
            let cfg = DisruptorConfig {
                consumers,
                ..Default::default()
            };
            let t = time_median(RUNS, || run_pvwatts_disruptor(csv, cfg));
            rows.push(vec![
                name.into(),
                consumers.to_string(),
                secs(t),
                format!("{:.2}x", seq.as_secs_f64() / t.as_secs_f64()),
            ]);
        }
    }
    print_table(
        &format!(
            "Fig. 10 — Disruptor PvWatts vs sequential JStar ({} s); paper: 3.31×/2.52× at 8 threads",
            secs(seq)
        ),
        &["input ordering", "consumers", "time (s)", "speedup vs sequential JStar"],
        &rows,
    );
}

/// Fig. 11: MatrixMult speedup vs pool size.
fn fig11() {
    let n = MATMUL_N;
    let a = Arc::new(matmul::gen_matrix(n, 11));
    let b = Arc::new(matmul::gen_matrix(n, 22));
    let sweep = thread_sweep();
    let times: Vec<Duration> = sweep
        .iter()
        .map(|&t| time_median(RUNS, || run_matmul(n, &a, &b, par_config(t))))
        .collect();
    let sp = speedups(&times);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .zip(&times)
        .zip(&sp)
        .map(|((&t, time), s)| vec![t.to_string(), secs(*time), format!("{s:.2}")])
        .collect();
    print_table(
        &format!(
            "Fig. 11 — MatrixMult (N={n}) speedup vs pool size (paper: good scaling to 20 cores)"
        ),
        &["threads", "time (s)", "relative speedup"],
        &rows,
    );
}

/// Fig. 12: Dijkstra speedup vs pool size.
fn fig12() {
    let spec = dijkstra_spec();
    let sweep = thread_sweep();
    let times: Vec<Duration> = sweep
        .iter()
        .map(|&t| time_median(RUNS, || run_dijkstra(spec, par_config(t))))
        .collect();
    let sp = speedups(&times);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .zip(&times)
        .zip(&sp)
        .map(|((&t, time), s)| vec![t.to_string(), secs(*time), format!("{s:.2}")])
        .collect();
    print_table(
        &format!(
            "Fig. 12 — Dijkstra (V={}, E≈{}) speedup vs pool size (paper: mediocre, ≤4.0×)",
            spec.n,
            spec.n + spec.extra
        ),
        &["threads", "time (s)", "relative speedup"],
        &rows,
    );
}

/// Fig. 13: Median speedup vs pool size.
fn fig13() {
    let data = Arc::new(median::gen_data(MEDIAN_LEN, 99));
    let sweep = thread_sweep();
    let times: Vec<Duration> = sweep
        .iter()
        .map(|&t| {
            let regions = (t * 2).max(12);
            time_median(RUNS, || run_median(&data, regions, par_config(t)))
        })
        .collect();
    let sp = speedups(&times);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .zip(&times)
        .zip(&sp)
        .map(|((&t, time), s)| vec![t.to_string(), secs(*time), format!("{s:.2}")])
        .collect();
    print_table(
        &format!(
            "Fig. 13 — Median (n={}) speedup vs pool size (paper: 8.6× @12, 14× @32)",
            data.len()
        ),
        &["threads", "time (s)", "relative speedup"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> std::result::Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|exhibits| exhibits.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn parse_selects_known_exhibits_and_rejects_unknown_ones() {
        let every: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&[]).unwrap(), every);
        assert_eq!(names(&["all"]).unwrap(), every);
        assert_eq!(names(&["fig12", "fig8"]).unwrap(), ["fig8", "fig12"]);
        let err = names(&["fig8", "fig7"]).unwrap_err();
        assert!(err.contains("`fig7`") && err.contains("fig13"), "{err}");
        assert!(names(&["hotpath"]).is_err());
    }
}
