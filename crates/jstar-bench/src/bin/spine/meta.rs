//! What a result file records about the machine and the moment, and the
//! noise guard that decides whether the moment was quiet enough.

use crate::adapter;
use crate::json::{obj, Json};
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// A drift above this, of either drifting reading, marks the run
/// `"noisy": true`; so does a box that ends the run short of its cores
/// ([`MIN_CAPACITY_SHARE`]).
pub const NOISE_DRIFT: f64 = 0.10;

fn spin_ns() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x = black_box(x ^ i)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(17);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64
}

/// Spins each thread makes for one calibration: about a fifth of a
/// second. A `--quick` run, which judges nothing, makes three.
const CALIBRATION_SPINS: usize = 60;

/// Times the fixed integer spin loop on `threads` threads at once: each
/// takes the median of [`CALIBRATION_SPINS`] spins, the slowest thread's
/// is returned. The same work before and after a run: if the two
/// disagree, something else was using the box.
///
/// The box this was written on is why it takes this shape. A core there
/// runs the loop in 3.1 ms or, for stretches of 100–300 ms that come and
/// go all the time on one core or the other, in 2.4 ms; a lone spinner
/// beside an idle core gets 2.4 ms throughout. So all `T` threads spin
/// (the run itself keeps every core busy), each for long enough that a
/// stretch at the higher clock is outvoted, and the slower core counts.
/// Five spins of one thread, before and after, drifted by a quarter on
/// one quiet run in four.
pub fn calibration_ns(threads: usize, quick: bool) -> f64 {
    let spins = if quick { 3 } else { CALIBRATION_SPINS };
    let one = || median(&(0..spins).map(|_| spin_ns()).collect::<Vec<_>>());
    std::thread::scope(|s| {
        let spinners: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(one)).collect();
        spinners
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::INFINITY))
            .fold(0.0, f64::max)
    })
}

/// How many cores' worth of work `threads` spinning threads get done at
/// once: `threads` × the single-thread time ÷ the slowest thread's time.
/// `par_speedup` cannot exceed it, whatever `nproc` says.
pub fn cpu_capacity(threads: usize, quick: bool) -> f64 {
    threads as f64 * calibration_ns(1, quick) / calibration_ns(threads, quick)
}

/// The share of `threads` cores' worth of spinning the box must deliver
/// for a run to count. (Two threads read 1.56–1.62 of 2 on a quiet box
/// whenever the lone spinner they are compared with caught the higher
/// single-core clock, so the line is drawn under that.)
pub const MIN_CAPACITY_SHARE: f64 = 0.75;
/// [`ramp_up`] gives up after this long and lets the noise guard speak.
const RAMP_UP_CAP_S: f64 = 5.0;

/// Spins until the box delivers its cores, and returns the seconds that
/// took. The host this was written on runs an idle guest's two vCPUs on
/// one core's worth of time — two spinning processes each take twice as
/// long as one alone — and hands the second core over after about three
/// seconds of load, so the first run after a pause would otherwise be
/// measured, in part, on half a machine.
pub fn ramp_up(threads: usize) -> f64 {
    let t = Instant::now();
    while cpu_capacity(threads, false) < MIN_CAPACITY_SHARE * threads as f64
        && t.elapsed().as_secs_f64() < RAMP_UP_CAP_S
    {}
    t.elapsed().as_secs_f64()
}

pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.min(after).max(f64::MIN_POSITIVE)
}

/// The noise guard's readings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    pub threads: usize,
    /// [`ramp_up`] before the run.
    pub ramp_up_s: f64,
    /// [`cpu_capacity`] after the run.
    pub cpu_capacity: f64,
    /// [`calibration_ns`] before and after the run.
    pub calibration: (f64, f64),
    /// [`crate::stats::ends_drift`] of the run's hand-coded arm: the same
    /// code on the same input all through the run, and bound by memory as
    /// the jobs are where the spin loop is not. 0 where there is no such
    /// arm (the traced run).
    pub handcoded_drift: f64,
}

impl Noise {
    pub fn calibration_drift(&self) -> f64 {
        drift(self.calibration.0, self.calibration.1)
    }

    pub fn noisy(&self) -> bool {
        self.calibration_drift() > NOISE_DRIFT
            || self.handcoded_drift > NOISE_DRIFT
            || self.cpu_capacity < MIN_CAPACITY_SHARE * self.threads as f64
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn loadavg_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `dir` lives on: the longest mount point in
/// `/proc/mounts` that prefixes it.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fstype.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The fields every result file carries.
pub fn to_json(seed: u64, noise: Noise) -> Json {
    let unknown = || "unknown".to_string();
    obj([
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::from(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("nproc", Json::from(adapter::nproc())),
        ("threads", Json::from(noise.threads)),
        ("ramp_up_s", Json::from(noise.ramp_up_s)),
        ("cpu_capacity", Json::from(noise.cpu_capacity)),
        // A string: a u64 seed need not fit a JSON number exactly.
        ("seed", Json::from(seed.to_string())),
        ("loadavg_1min", Json::from(loadavg_1min())),
        ("calibration_ns_before", Json::from(noise.calibration.0)),
        ("calibration_ns_after", Json::from(noise.calibration.1)),
        ("calibration_drift", Json::from(noise.calibration_drift())),
        ("handcoded_drift", Json::from(noise.handcoded_drift)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_symmetric_and_relative() {
        assert!((drift(100.0, 111.0) - 0.11).abs() < 1e-12);
        assert!((drift(111.0, 100.0) - 0.11).abs() < 1e-12);
        assert_eq!(drift(100.0, 100.0), 0.0);
    }
}
