//! `spine` — the repository's benchmark: five paper workloads run as a
//! closed loop with one client, nine end-to-end metrics plus the
//! failure count, per-layer probes and a traced run. See `README.md` in
//! this directory for the metric glossary and the layer → end-to-end
//! table.
//!
//! ```text
//! spine run     --workload <name|all> --seed <u64> [--seconds S] [--out DIR] [--quick]
//! spine trace   --workload <name|all> --seed <u64> [--seconds S] [--out DIR] [--quick]
//! spine compare <dirA> <dirB>
//! spine bench   --workload <name> --seed <u64> --seconds <S> --trace <0|1>   (the driver's form)
//! ```

mod adapter;
mod compare;
mod harness;
mod json;
mod meta;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use harness::{Opts, Outcome};
use json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  spine run     --workload <name|all> --seed <u64> [--seconds S] [--out DIR] [--quick]
  spine trace   --workload <name|all> --seed <u64> [--seconds S] [--out DIR] [--quick]
  spine compare <dirA> <dirB>
  spine bench   --workload <name> --seed <u64> --seconds <S> --trace <0|1> [--out DIR]
  spine manifest          (prints BENCHMARK.json from the metric tables)
workloads: pvwatts matmul dijkstra triangles dijkstra-ckpt
exit codes: 0; 1 a job failed verification (run, trace) or a metric regressed
  (compare); 2 bad usage or I/O; 3 no job failed but the noise guard fired
  (run, trace: the files are written and marked noisy — take the run again)";

/// The run options plus the driver's `--trace` switch.
struct Args {
    opts: Opts,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut trace = false;
    let mut parsed = Opts {
        workload: String::new(),
        seed: 0,
        seconds: harness::RUN_SECONDS,
        quick: false,
        out: PathBuf::from("target/spine"),
        threads: adapter::default_threads(),
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit integer")?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seed_given {
        return Err("--seed is required: inputs come from the seed alone".into());
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(Args {
        opts: parsed,
        trace,
    })
}

/// Runs one workload and prints every metric by name with its unit,
/// then the failure count.
fn run_one(opts: &Opts, traced: bool) -> Result<Outcome, String> {
    let o = if traced {
        harness::run_traced(opts)?
    } else {
        harness::run_timed(opts)?
    };
    println!(
        "{}  seed={} T={} nproc={}{}{}",
        opts.workload,
        opts.seed,
        opts.threads,
        adapter::nproc(),
        if opts.quick { "  quick" } else { "" },
        if o.noisy { "  NOISY" } else { "" },
    );
    for m in &o.metrics {
        let samples = m.summary.map_or(String::new(), |s| {
            format!(
                "  ({} samples scattered {:.1}%, run vs itself {:.1}%)",
                s.n,
                s.spread() * 100.0,
                m.self_spread * 100.0
            )
        });
        println!("  {:<34} {:>16.6} {}{}", m.name, m.value, m.unit, samples);
    }
    println!(
        "  {:<34} {:>16} of {} jobs_attempted",
        "jobs_failed", o.tally.failed, o.tally.attempted
    );
    for f in &o.tally.failures {
        println!("    failed: {f}");
    }
    Ok(o)
}

/// Runs `mode` once per workload in a child process each, so peak RSS
/// and allocator state are per workload. Returns the worst exit code: a
/// failed job outranks a noisy run.
fn each_workload(mode: &str, opts: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut codes = Vec::new();
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args([mode, "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--out")
            .arg(&opts.out);
        if opts.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        codes.push(status.code().unwrap_or(1));
    }
    let rank = |code: &i32| match *code {
        0 => 0,
        harness::EXIT_NOISY => 1,
        _ => 2,
    };
    Ok(codes.into_iter().max_by_key(rank).unwrap_or(0))
}

/// Concatenates the per-workload span files under `out` into
/// `trace.json`.
fn merge_traces(out: &Path, names: &[&str]) -> Result<(), String> {
    let mut spans = Vec::new();
    for name in names {
        let path = out.join(format!("{name}.trace.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            Json::Arr(mut s) => spans.append(&mut s),
            _ => return Err(format!("{}: not a span array", path.display())),
        }
    }
    let path = out.join("trace.json");
    std::fs::write(&path, Json::Arr(spans).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_or_trace(mode: &str, opts: &Opts) -> Result<i32, String> {
    let traced = mode == "trace";
    let (code, names) = if opts.workload == "all" {
        (each_workload(mode, opts)?, workloads::NAMES.to_vec())
    } else {
        (
            run_one(opts, traced)?.exit_code(),
            vec![opts.workload.as_str()],
        )
    };
    if traced {
        merge_traces(&opts.out, &names)?;
    }
    Ok(code)
}

/// The driver's form: metrics for people first, then — as the last line
/// of standard output — one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn bench(args: &Args) -> Result<i32, String> {
    if args.opts.workload == "all" {
        return Err("bench takes one workload".into());
    }
    let outcome = run_one(&args.opts, args.trace)?;
    let listed =
        |name: &str| metrics::end_to_end(name).is_some_and(|e| e.scope == metrics::Scope::Driver);
    let metrics = outcome
        .metrics
        .iter()
        .filter(|m| args.trace || listed(m.name))
        .map(|m| {
            (
                m.name,
                obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        });
    let line = obj([
        ("correct", Json::from(outcome.tally.failed == 0)),
        ("attempted", Json::from(outcome.tally.attempted)),
        ("failed", Json::from(outcome.tally.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((mode, rest)) if mode == "run" || mode == "trace" => {
            parse(rest).and_then(|a| run_or_trace(mode, &a.opts))
        }
        Some((mode, rest)) if mode == "bench" => parse(rest).and_then(|a| bench(&a)),
        // Started by `run` itself, to read `peak_rss_mb` from.
        Some((mode, rest)) if mode == "one-job" => {
            parse(rest).and_then(|a| harness::one_job(&a.opts))
        }
        Some((mode, [])) if mode == "manifest" => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(0)
        }
        Some((mode, rest)) if mode == "compare" => match rest {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("compare takes two directories".into()),
        },
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => ExitCode::from(code.clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_form() {
        let a = parse(&argv(
            "--workload dijkstra --seed 42 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (
                a.opts.workload.as_str(),
                a.opts.seed,
                a.opts.seconds,
                a.trace
            ),
            ("dijkstra", 42, 12.0, true)
        );
        assert!(!a.opts.quick);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(
            parse(&argv("--workload dijkstra")).is_err(),
            "seed is required"
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload matmul --seed -1")).is_err());
        assert!(parse(&argv("--workload matmul --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload matmul --seed 1 --scale 3")).is_err());
    }
}
