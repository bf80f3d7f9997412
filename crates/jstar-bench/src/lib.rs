//! # jstar-bench — the paper's evaluation, regenerated
//!
//! Two binaries. `spine` is the repository's benchmark: five paper
//! workloads with end-to-end and per-layer metrics (`spine bench`,
//! `spine trace`, `spine compare`; see its README). `figures`
//! (`cargo run --release -p jstar-bench --bin figures -- all`) prints the
//! rows and series of the paper's §6 tables and figures, including the
//! exhibits that have no `spine` workload (fig 6, fig 10 / table 1,
//! fig 13). `tests/perf_gates.rs` holds the two timing gates CI runs.
//!
//! Absolute numbers cannot match the paper (different machine, Rust vs
//! JVM, synthetic input); the *shape* is what is reproduced: who wins each
//! Fig. 6 bar, the ≈2.7× `-noDelta` gain of §6.2, sublinear PvWatts
//! scaling (Fig. 8), near-linear MatrixMult scaling (Fig. 11), mediocre
//! Dijkstra scaling (Fig. 12), and good-then-gradual Median scaling
//! (Fig. 13).

use std::time::{Duration, Instant};

pub mod workloads;

/// The fork/join pool sizes swept by the speedup figures, capped at the
/// machine's parallelism (the paper sweeps 1..8 on the Xeon W5590 and
/// 1..32 on the E7-8837).
pub fn thread_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    [1usize, 2, 4, 6, 8, 12, 16, 24, 32]
        .into_iter()
        .filter(|&t| t <= cores)
        .collect()
}

/// Times one run of `f`.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Median-of-`runs` wall time with one warm-up run (the paper ignores the
/// first measurements while HotSpot warms up; Rust needs no JIT warm-up,
/// but one discarded run hides page-faulting and file-cache effects).
pub fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let _ = f(); // warm-up
    let mut times: Vec<Duration> = (0..runs.max(1)).map(|_| time_once(&mut f).1).collect();
    times.sort();
    times[times.len() / 2]
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints a Markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Relative speedup series: `times[0] / times[i]` (speedup vs the
/// 1-thread parallel run, the paper's "relative speedup").
pub fn speedups(times: &[Duration]) -> Vec<f64> {
    let base = times[0].as_secs_f64();
    times.iter().map(|t| base / t.as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_starts_at_one() {
        let sweep = thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn time_median_runs_function() {
        let mut calls = 0;
        let d = time_median(3, || calls += 1);
        assert_eq!(calls, 4, "warm-up + 3 timed runs");
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn speedups_are_relative_to_first() {
        let times = vec![
            Duration::from_millis(100),
            Duration::from_millis(50),
            Duration::from_millis(25),
        ];
        let s = speedups(&times);
        assert!((s[0] - 1.0).abs() < 1e-9);
        assert!((s[1] - 2.0).abs() < 1e-9);
        assert!((s[2] - 4.0).abs() < 1e-9);
    }
}
