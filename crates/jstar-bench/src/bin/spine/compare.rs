//! `spine compare <dirA> <dirB>`: one row per (workload, end-to-end
//! metric) — both medians, the ratio B ÷ A, the bound, both kinds of
//! spread and a verdict.
//!
//! Two spreads, the wider side's of each. `iqr` is the inter-quartile
//! distance of the side's samples over their median: how far single jobs
//! scatter. `self` is [`crate::stats::block_spread`]: how far the run's
//! median moves from one stretch of the run to the next, which is what a
//! difference between two medians has to be held against — it decides
//! `unresolved`. (Single jobs scatter 10–20 % here, every run, so `iqr`
//! against a 15 % bound would call most rows unresolved however steady
//! the medians are.)

use crate::json::Json;
use crate::meta;
use crate::metrics::{self, Better, EndToEnd};
use crate::stats::median;
use crate::workloads;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    /// A side was noisy, or its own inter-quartile spread exceeds the
    /// bound: the run cannot tell a change of that size from itself.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    /// The run's spread against itself (`self_spread` in the result
    /// file), 0 for single readings.
    pub spread: f64,
    /// Inter-quartile distance of the samples over their median
    /// (`sample_spread`), 0 for single readings. Printed, not judged.
    pub sample_iqr: f64,
    pub noisy: bool,
}

pub fn verdict(m: &EndToEnd, a: Side, b: Side) -> Verdict {
    if a.noisy || b.noisy || a.spread > m.bound || b.spread > m.bound || a.value <= 0.0 {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value;
    let worse_by = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > m.bound {
        Verdict::Regressed
    } else if worse_by < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

struct RunFile {
    json: Json,
    noisy: bool,
    jobs_failed: f64,
    /// The seed and the median of the run's hand-coded arm, seconds per
    /// call: the same code on the same input on both sides of a
    /// comparison of one seed, so a thermometer for the box.
    handcoded_s: Option<(String, f64)>,
}

/// Two runs of one seed whose hand-coded arms differ by more than this
/// were not measured on the same box, whatever each run's own noise
/// guard said: a slowdown that covers a whole run evenly — the box this
/// was written on has them, +25–50 % on anything that touches memory for
/// a minute or two, the spin loop untouched — is invisible from inside
/// the run.
const BOX_DRIFT: f64 = 0.10;

fn box_differs(a: &RunFile, b: &RunFile) -> Option<(f64, f64)> {
    let ((seed_a, hand_a), (seed_b, hand_b)) = (a.handcoded_s.as_ref()?, b.handcoded_s.as_ref()?);
    (seed_a == seed_b && meta::drift(*hand_a, *hand_b) > BOX_DRIFT).then_some((*hand_a, *hand_b))
}

fn load(dir: &Path, workload: &str) -> Result<Option<RunFile>, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if json.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{}: a --quick result measures nothing; compare refuses it",
            path.display()
        ));
    }
    let handcoded_s = (|| {
        let seed = json.get("meta")?.get("seed")?.as_str()?.to_string();
        let samples: Vec<f64> = json
            .get("samples")?
            .get("handcoded_s")?
            .as_arr()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        (!samples.is_empty()).then(|| (seed, median(&samples)))
    })();
    Ok(Some(RunFile {
        handcoded_s,
        noisy: json.get("noisy").and_then(Json::as_bool).unwrap_or(false),
        jobs_failed: json
            .get("jobs_failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        json,
    }))
}

fn side(file: &RunFile, metric: &str, box_differs: bool) -> Option<Side> {
    let m = file.json.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: m.get("self_spread").and_then(Json::as_f64).unwrap_or(0.0),
        sample_iqr: m.get("sample_spread").and_then(Json::as_f64).unwrap_or(0.0),
        noisy: file.noisy || box_differs,
    })
}

/// Prints the table; the exit code is non-zero on any `regressed` or any
/// rise in `jobs_failed`.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<i32, String> {
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>6} {:>6} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "iqr", "self"
    );
    let (mut bad, mut rows) = (false, 0);
    for workload in workloads::NAMES {
        let (a, b) = match (load(dir_a, workload)?, load(dir_b, workload)?) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => continue,
            _ => return Err(format!("{workload}: present in only one directory")),
        };
        if b.jobs_failed > a.jobs_failed {
            println!(
                "{workload:<14} {:<14} {:>14} {:>14} {:>9} {:>6} {:>6} {:>6}  regressed",
                "jobs_failed", a.jobs_failed, b.jobs_failed, "-", "0", "-", "-"
            );
            bad = true;
        }
        let differs = box_differs(&a, &b);
        if let Some((hand_a, hand_b)) = differs {
            println!(
                "{workload}: the hand-coded arm (same code, same input) took {hand_a:.6} s on A \
                 and {hand_b:.6} s on B — not the same box; its rows are unresolved"
            );
        }
        for m in metrics::end_to_end_for(workload) {
            let (Some(sa), Some(sb)) = (
                side(&a, m.name, differs.is_some()),
                side(&b, m.name, differs.is_some()),
            ) else {
                return Err(format!("{workload}: metric {} missing", m.name));
            };
            let v = verdict(m, sa, sb);
            bad |= v == Verdict::Regressed;
            rows += 1;
            println!(
                "{workload:<14} {:<14} {:>14.6} {:>14.6} {:>9.4} {:>5.0}% {:>5.1}% {:>5.1}%  {}{}",
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                m.bound * 100.0,
                sa.sample_iqr.max(sb.sample_iqr) * 100.0,
                sa.spread.max(sb.spread) * 100.0,
                v.as_str(),
                if differs.is_some() {
                    " (box differed)"
                } else if sa.noisy || sb.noisy {
                    " (noisy run)"
                } else {
                    ""
                }
            );
        }
    }
    if rows == 0 {
        return Err("no result files found in either directory".into());
    }
    Ok(i32::from(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The named metric's direction with a bound the test fixes itself.
    fn e2e_with_bound(name: &str, bound: f64) -> EndToEnd {
        let m = metrics::end_to_end(name).unwrap();
        EndToEnd {
            bound,
            name: m.name,
            unit: m.unit,
            better: m.better,
            scope: m.scope,
        }
    }

    fn reading(value: f64, spread: f64) -> Side {
        Side {
            value,
            spread,
            sample_iqr: 0.0,
            noisy: false,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = e2e_with_bound("job_s", 0.10);
        let higher = e2e_with_bound("par_speedup", 0.10);
        assert_eq!(
            verdict(&lower, reading(1.0, 0.02), reading(1.05, 0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&lower, reading(1.0, 0.02), reading(1.2, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&lower, reading(1.0, 0.02), reading(0.8, 0.02)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&higher, reading(1.6, 0.0), reading(1.3, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, reading(1.6, 0.0), reading(1.9, 0.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_slower_hand_coded_arm_on_one_seed_means_another_box() {
        let file = |seed: &str, hand_s: f64| RunFile {
            json: Json::Null,
            noisy: false,
            jobs_failed: 0.0,
            handcoded_s: Some((seed.to_string(), hand_s)),
        };
        assert_eq!(box_differs(&file("1", 1.0), &file("1", 1.05)), None);
        assert_eq!(
            box_differs(&file("1", 1.0), &file("1", 1.3)),
            Some((1.0, 1.3))
        );
        assert_eq!(
            box_differs(&file("1", 1.0), &file("2", 1.3)),
            None,
            "another seed is another input"
        );
    }

    #[test]
    fn wide_spread_or_noise_is_unresolved_not_a_verdict() {
        let job_s = e2e_with_bound("job_s", 0.10);
        assert_eq!(
            verdict(&job_s, reading(1.0, 0.2), reading(2.0, 0.01)),
            Verdict::Unresolved
        );
        let noisy = Side {
            noisy: true,
            ..reading(1.0, 0.0)
        };
        assert_eq!(
            verdict(&job_s, reading(1.0, 0.0), noisy),
            Verdict::Unresolved
        );
    }
}
