//! The closed loop: one client — this thread, which is also the
//! engine's coordinator — runs complete jobs back to back, holds every
//! output against the hand-coded reference, and reduces the samples to
//! the metrics of `metrics.rs`.

use crate::adapter::Arm;
use crate::adapter::Counters;
use crate::json::{obj, Json};
use crate::meta::{self, Noise};
use crate::metrics::{self, PER_LAYER};
use crate::probes;
use crate::stats::{self, median, paired_ratios, quantile, summarize, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{self, JobTimes, Side, Sizes, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 18.0;
/// Primary jobs a full run times at least, however short `--seconds` is.
pub const MIN_PRIMARY_JOBS: usize = 40;
const WARMUP_JOBS: usize = 3;
/// The workload is set up again this often during a run, and the jobs
/// move to the new one; `setup_s` is the median of the set-ups.
const SETUP_EVERY_S: f64 = 1.5;
/// Traced/untraced job pairs a traced run makes at least.
const TRACED_PAIRS: usize = 10;
/// Fresh processes a run starts to read `peak_rss_mb` from.
const ONE_JOB_PROCESSES: usize = 5;
/// A run that cannot finish its minimum inside this gives up measuring
/// (the driver allows 180 s per run).
const HARD_CAP_S: f64 = 150.0;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
    pub threads: usize,
}

impl Opts {
    fn sizes(&self) -> &'static Sizes {
        if self.quick {
            &workloads::QUICK
        } else {
            &workloads::FULL
        }
    }
}

/// Jobs attempted and failed, all arms. A job fails if it returns
/// `Err`, panics, or its output differs from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => format!(
                "panicked: {}",
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string payload>")
            ),
        };
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("{what}: {failure}"));
        }
        None
    }
}

/// One reported number.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Present when the value is the median of samples.
    pub summary: Option<Summary>,
    /// How far the run disagrees with itself on this number
    /// ([`stats::block_spread`]); 0 for single readings.
    pub self_spread: f64,
}

impl Measured {
    /// An end-to-end metric that is the median of `samples`.
    fn sampled(name: &'static str, samples: &[f64]) -> Measured {
        let s = summarize(samples);
        Measured {
            summary: Some(s),
            ..Measured::end_to_end(name, s.median, stats::block_spread(samples, median))
        }
    }

    fn end_to_end(name: &'static str, value: f64, self_spread: f64) -> Measured {
        Measured {
            name,
            unit: metrics::end_to_end(name).map_or("", |m| m.unit),
            value,
            summary: None,
            self_spread,
        }
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    pub noisy: bool,
}

/// `run` and `trace` exit with this when no job failed but the noise
/// guard fired: the files are written and marked, and whoever records a
/// baseline from them is told to take the run again.
pub const EXIT_NOISY: i32 = 3;

impl Outcome {
    /// 1 when any job failed verification, else [`EXIT_NOISY`] when the
    /// run was noisy, else 0.
    pub fn exit_code(&self) -> i32 {
        if self.tally.failed > 0 {
            1
        } else if self.noisy {
            EXIT_NOISY
        } else {
            0
        }
    }
}

fn metrics_json(metrics: &[Measured]) -> Json {
    obj(metrics.iter().map(|m| {
        let mut pairs = vec![
            ("value", Json::from(m.value)),
            ("unit", Json::from(m.unit)),
            ("self_spread", Json::from(m.self_spread)),
        ];
        if let Some(s) = m.summary {
            pairs.extend([
                ("n", Json::from(s.n)),
                ("q1", Json::from(s.q1)),
                ("q3", Json::from(s.q3)),
                ("sample_spread", Json::from(s.spread())),
            ]);
        }
        (m.name, obj(pairs))
    }))
}

fn write_file(path: &std::path::Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples_json(samples: &[f64]) -> Json {
    Json::Arr(samples.iter().map(|&s| Json::from(s)).collect())
}

/// One set-up of the workload and its wall time.
fn set_up(opts: &Opts, tr: &mut Tracer) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let wl = tr.span("setup", |tr| {
        workloads::setup(
            &opts.workload,
            opts.seed,
            opts.sizes(),
            opts.threads,
            &opts.out,
            tr,
        )
    })?;
    Ok((wl, t.elapsed().as_secs_f64()))
}

/// The timed run: end-to-end metrics, tracing and `record_steps` off.
pub fn run_timed(opts: &Opts) -> Result<Outcome, String> {
    let ramp_up_s = if opts.quick {
        0.0
    } else {
        meta::ramp_up(opts.threads)
    };
    let calibration_before = meta::calibration_ns(opts.threads, opts.quick);
    let (wl, mut tally, samples) = measure(opts)?;
    let noise = Noise {
        threads: opts.threads,
        ramp_up_s,
        cpu_capacity: meta::cpu_capacity(opts.threads, opts.quick),
        calibration: (
            calibration_before,
            meta::calibration_ns(opts.threads, opts.quick),
        ),
        handcoded_drift: stats::ends_drift(&samples.handcoded_s),
    };
    let noisy = !opts.quick && noise.noisy();
    let peak_rss_mb: Vec<f64> = if opts.quick {
        vec![meta::peak_rss_mb()]
    } else {
        (0..ONE_JOB_PROCESSES)
            .filter_map(|_| tally.attempt("one-job process", || one_job_peak_rss_mb(opts)))
            .collect()
    };

    let (items, items_unit) = wl.items();
    let job_s = median(&samples.job_s);
    let p75 = |block: &[f64]| quantile(block, 0.75);
    let mut metrics = vec![
        Measured::sampled("setup_s", &samples.setup_s),
        Measured::sampled("job_s", &samples.job_s),
        Measured::end_to_end(
            "job_s_p75",
            p75(&samples.job_s),
            stats::block_spread(&samples.job_s, p75),
        ),
        Measured::end_to_end(
            "items_per_s",
            if job_s > 0.0 {
                items as f64 / job_s
            } else {
                0.0
            },
            stats::block_spread(&samples.job_s, median),
        ),
        Measured::sampled("vs_handcoded", &samples.vs_handcoded),
        Measured::sampled("par_speedup", &samples.par_speedup),
        // The smallest, not the median: see `one_job`.
        Measured {
            value: peak_rss_mb.iter().copied().reduce(f64::min).unwrap_or(0.0),
            self_spread: 0.0,
            ..Measured::sampled("peak_rss_mb", &peak_rss_mb)
        },
    ];
    if wl.name() == "dijkstra-ckpt" {
        metrics.push(Measured::sampled("restore_s", &samples.restore_s));
        metrics.push(Measured::sampled("ckpt_overhead", &samples.ckpt_overhead));
    }
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(metrics::end_to_end_for(wl.name()).map(|m| m.name)));

    let mut file = vec![
        ("schema", Json::from("spine-run-1")),
        ("workload", Json::from(wl.name())),
        ("quick", Json::from(opts.quick)),
        ("noisy", Json::from(noisy)),
        ("meta", meta::to_json(opts.seed, noise)),
        ("sizes", wl.sizes()),
        ("items", Json::from(items)),
        ("items_unit", Json::from(items_unit)),
        (
            "loop",
            Json::from("closed, one client: jobs run back to back on the driver thread"),
        ),
        ("handcoded_reps", Json::from(samples.handcoded_reps)),
        ("loop_peak_rss_mb", Json::from(meta::peak_rss_mb())),
        ("jobs_attempted", Json::from(tally.attempted)),
        ("jobs_failed", Json::from(tally.failed)),
        (
            "failures",
            Json::Arr(
                tally
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "job_s_p75_support",
            obj([
                ("samples", Json::from(samples.job_s.len())),
                (
                    "highest_supported_percentile",
                    stats::highest_supported_percentile(samples.job_s.len())
                        .map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
            ]),
        ),
        ("metrics", metrics_json(&metrics)),
        (
            "samples",
            obj([
                ("setup_s", samples_json(&samples.setup_s)),
                ("job_s", samples_json(&samples.job_s)),
                ("sequential_job_s", samples_json(&samples.sequential_s)),
                ("handcoded_s", samples_json(&samples.handcoded_s)),
                ("vs_handcoded", samples_json(&samples.vs_handcoded)),
                ("par_speedup", samples_json(&samples.par_speedup)),
                ("restore_s", samples_json(&samples.restore_s)),
                ("ckpt_overhead", samples_json(&samples.ckpt_overhead)),
                ("peak_rss_mb", samples_json(&peak_rss_mb)),
            ]),
        ),
    ];
    if let Some(bytes) = wl.snapshot_bytes_per_tuple() {
        file.push((
            "checkpointing",
            obj([
                ("snapshot_bytes_per_tuple", Json::from(bytes)),
                (
                    "directory_filesystem",
                    Json::from(meta::filesystem_of(&opts.out)),
                ),
                (
                    "fsync",
                    Json::from("none: the engine writes temp + rename and issues no fsync today"),
                ),
            ]),
        ));
    }
    write_file(&opts.out.join(format!("{}.json", wl.name())), &obj(file))?;
    Ok(Outcome {
        tally,
        metrics,
        noisy,
    })
}

/// `spine one-job`: set-up and one verified primary job, then this
/// process's `VmHWM` in MB on standard output. `peak_rss_mb` is read
/// from such processes rather than from the measuring loop's own: over a
/// hundred jobs the work-stealing pool spreads allocations over the
/// threads' malloc arenas differently from job to job, each arena keeps
/// its own high-water mark, and the loop's `VmHWM` ends anywhere between
/// one and two jobs' worth (seen: 60 MB and 142 MB for the same commit).
/// One job in a fresh process needs what one job needs — and of several
/// such processes the smallest reading is reported: with three engine
/// lifetimes in the process (`dijkstra-ckpt`: set-up's uninterrupted run
/// and the job's two engines) the same effect is left in miniature, the
/// readings fall into two groups (23.6 and 28 MB, two or three of five
/// each way), and their median flips between the groups from run to run.
/// An extra arena only ever adds, so the floor is what the job needs.
pub fn one_job(opts: &Opts) -> Result<i32, String> {
    let mut off = Tracer::new(false);
    let (mut wl, _) = set_up(opts, &mut off)?;
    wl.job(Arm::Primary, false, &mut off)?;
    println!("{}", meta::peak_rss_mb());
    Ok(0)
}

fn one_job_peak_rss_mb(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(["one-job", "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--out")
        .arg(&opts.out)
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "one-job process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "one-job process printed no peak RSS".to_string())
}

#[derive(Default)]
struct Samples {
    handcoded_reps: usize,
    setup_s: Vec<f64>,
    job_s: Vec<f64>,
    sequential_s: Vec<f64>,
    handcoded_s: Vec<f64>,
    vs_handcoded: Vec<f64>,
    par_speedup: Vec<f64>,
    restore_s: Vec<f64>,
    ckpt_overhead: Vec<f64>,
}

/// Set-up and warm-up, then primary jobs with the side arms rotated in
/// after them one per iteration, until the minimum of primaries has run
/// and `--seconds` have passed. A side arm is paired with the primary job
/// just before it, so each ratio compares two runs a fraction of a
/// second apart on the same input.
///
/// Every [`SETUP_EVERY_S`] the workload is set up again and the jobs move
/// to the new one (after one untimed job on it). That makes `setup_s` a
/// median over set-ups spread through the run like the jobs are, and it
/// makes `job_s` a median over a dozen placements of the inputs, the
/// program and the pool in memory. One placement is worth ±6 % on
/// `matmul` — every job of a process ran that much faster or slower than
/// the same jobs of the next process, seed and commit unchanged — and a
/// run that keeps a single placement reports its luck.
fn measure(opts: &Opts) -> Result<(Box<dyn Workload>, Tally, Samples), String> {
    let (min_jobs, seconds, warmup) = if opts.quick {
        (3, 0.0, 1)
    } else {
        (MIN_PRIMARY_JOBS, opts.seconds, WARMUP_JOBS)
    };
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let mut s = Samples::default();
    let (mut wl, setup_s) = set_up(opts, &mut off)?;
    s.setup_s.push(setup_s);
    let mut warm_job_s = 0.0;
    for _ in 0..warmup {
        if let Some(job) = tally.attempt("warm-up job", || wl.job(Arm::Primary, false, &mut off)) {
            warm_job_s = job.times.job_s();
        }
    }
    // Enough back-to-back calls of the hand-coded baseline to last about
    // as long as the job it is paired with.
    s.handcoded_reps = tally
        .attempt("warm-up hand-coded job", || wl.handcoded(1))
        .map_or(1, |hand_s| {
            (warm_job_s / hand_s).round().clamp(1.0, 64.0) as usize
        });
    let sides = wl.side_arms();
    let start = Instant::now();
    let mut last_setup = start;
    for i in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if (i >= min_jobs && elapsed >= seconds) || elapsed > HARD_CAP_S {
            break;
        }
        if !opts.quick && last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            // The old workload goes first, so the two never hold their
            // inputs at once.
            drop(wl);
            let (fresh, setup_s) = set_up(opts, &mut off)?;
            wl = fresh;
            s.setup_s.push(setup_s);
            tally.attempt("warm-up job", || wl.job(Arm::Primary, false, &mut off));
            last_setup = Instant::now();
        }
        let Some(primary) = tally.attempt("primary job", || wl.job(Arm::Primary, false, &mut off))
        else {
            continue;
        };
        let job_s = primary.times.job_s();
        let ckpt_run_s = primary.ckpt_run_s;
        s.job_s.push(job_s);
        s.restore_s.extend(primary.restore_s);
        drop(primary);
        match sides[i % sides.len()] {
            Side::Sequential => {
                if let Some(seq) = tally.attempt("sequential job", || {
                    wl.job(Arm::Sequential, false, &mut off)
                }) {
                    s.sequential_s.push(seq.times.job_s());
                    s.par_speedup
                        .extend(paired_ratios(&[seq.times.job_s()], &[job_s]));
                }
            }
            Side::Handcoded => {
                if let Some(hand_s) =
                    tally.attempt("hand-coded job", || wl.handcoded(s.handcoded_reps))
                {
                    s.handcoded_s.push(hand_s);
                    s.vs_handcoded.extend(paired_ratios(&[job_s], &[hand_s]));
                }
            }
            Side::NoCheckpoint => {
                if let Some(plain) = tally.attempt("no-checkpoint job", || {
                    wl.job(Arm::NoCheckpoint, false, &mut off)
                }) {
                    let plain_run_s = plain.times.new_s + plain.times.run_s;
                    s.ckpt_overhead
                        .extend(paired_ratios(&[ckpt_run_s.unwrap_or(0.0)], &[plain_run_s]));
                }
            }
        }
    }
    Ok((wl, tally, s))
}

/// What a traced job leaves behind once its engine is dropped.
struct Record {
    times: JobTimes,
    counters: Counters,
}

/// The audited counters of one job, by metric name.
fn audited_counters(c: &Counters) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("engine.steps", c.steps as f64),
        ("engine.tuples_processed", c.tuples_processed as f64),
        ("gamma.probes", c.gamma_probes as f64),
        ("gamma.join_seeks", c.join_seeks as f64),
        ("gamma.cursor_opens", c.cursor_opens as f64),
        ("gamma.index_cache_hit_rate", c.index_cache_hit_rate),
        ("gamma.index_build_tuples", c.index_build_tuples as f64),
        ("gamma.index_catchup_tuples", c.index_catchup_tuples as f64),
        ("delta.tuples", c.delta_tuples as f64),
        ("delta.classes", c.class_widths.len() as f64),
        ("delta.class_width_p50", median(&c.class_widths)),
        (
            "delta.class_width_max",
            c.class_widths.iter().copied().fold(0.0, f64::max),
        ),
    ])
}

fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m
}

/// The traced run: per-layer metrics. Jobs alternate untraced / traced
/// (spans and `record_steps` on), two sequential jobs audit which
/// counters are exact, then the probes replay the last traced job's
/// tuples through each layer.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let ramp_up_s = if opts.quick {
        0.0
    } else {
        meta::ramp_up(opts.threads)
    };
    let calibration_before = meta::calibration_ns(opts.threads, opts.quick);
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut tally = Tally::default();
    let (mut wl, _) = set_up(opts, &mut tr)?;
    tally.attempt("warm-up job", || wl.job(Arm::Primary, false, &mut off));

    let min_pairs = if opts.quick { 3 } else { TRACED_PAIRS };
    let seconds = if opts.quick { 0.0 } else { 0.4 * opts.seconds };
    let (mut untraced_s, mut overhead, mut build_ms, mut restore_s) =
        (vec![], vec![], vec![], vec![]);
    let mut traced: Vec<Record> = Vec::new();
    // The newest traced engine is kept for the probes to read its Gamma.
    let mut last_engine = None;
    let start = Instant::now();
    for i in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if (i >= min_pairs && elapsed >= seconds) || elapsed > HARD_CAP_S {
            break;
        }
        // Dropped before the next job, not after it: a job that cannot
        // reuse the previous engine's freed memory page-faults its way
        // through fresh pages (pvwatts ran 2.3x as long).
        drop(last_engine.take());
        let untraced = tally
            .attempt("untraced job", || wl.job(Arm::Primary, false, &mut off))
            .map(|job| {
                restore_s.extend(job.restore_s);
                job.times.job_s()
            });
        untraced_s.extend(untraced);
        tr.set_iter(i);
        let job = tr.span("job", |tr| {
            let t = Instant::now();
            tr.span("build_program", |_| wl.rebuild_program());
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.attempt("traced job", || wl.job(Arm::Primary, true, tr))
        });
        if let Some(job) = job {
            overhead.extend(untraced.map(|u| job.times.job_s() / u));
            traced.push(Record {
                times: job.times,
                counters: job.counters,
            });
            last_engine = Some(job.engine);
        }
    }
    let (Some(last), Some(engine)) = (traced.last(), last_engine) else {
        return Err(format!("no traced job succeeded: {:?}", tally.failures));
    };

    // Exactness audit: two sequential traced jobs, counter by counter.
    let audit: Vec<BTreeMap<&'static str, f64>> = (0..2)
        .filter_map(|_| {
            tally
                .attempt("sequential audit job", || {
                    wl.job(Arm::Sequential, true, &mut off)
                })
                .map(|job| audited_counters(&job.counters))
        })
        .collect();
    let exact: Vec<(&'static str, bool)> = metrics::AUDITED
        .iter()
        .map(|&name| (name, audit.len() == 2 && audit[0][name] == audit[1][name]))
        .collect();

    let scratch = opts.out.join("probe-scratch");
    // A probe that panics (a snapshot that does not restore, a probe set
    // that matches nothing) is a failed job, not an aborted run.
    let probed = tally
        .attempt("layer probes", || {
            Ok(probes::run(
                &*wl,
                &engine,
                &last.counters,
                &scratch,
                &mut tr,
            ))
        })
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&scratch);
    drop(engine);

    // Assemble: every listed per-layer metric, 0 where the layer was
    // bypassed.
    let mut values: BTreeMap<&'static str, f64> = probed.into_iter().collect();
    let over_jobs = |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let med = |f: &dyn Fn(&Record) -> f64| median(&over_jobs(f));
    let audited: Vec<_> = traced
        .iter()
        .map(|j| audited_counters(&j.counters))
        .collect();
    for &name in &metrics::AUDITED {
        let per_job: Vec<f64> = audited.iter().map(|a| a[name]).collect();
        values.insert(name, median(&per_job));
    }
    let c = &last.counters;
    let traced_job_s = med(&|j| j.times.job_s());
    let (drain_s, execute_s) = (med(&|j| j.counters.drain_s), med(&|j| j.counters.execute_s));
    let hi_pct = stats::highest_supported_percentile(c.step_us.len());
    values.extend([
        ("engine.max_class", med(&|j| j.counters.max_class as f64)),
        (
            "engine.inline_classes",
            med(&|j| j.counters.inline_classes as f64),
        ),
        (
            "engine.forked_classes",
            med(&|j| j.counters.forked_classes as f64),
        ),
        (
            "engine.delta_join_classes",
            med(&|j| j.counters.delta_join_classes as f64),
        ),
        ("engine.partition_s", med(&|j| j.counters.partition_s)),
        ("engine.merge_s", med(&|j| j.counters.merge_s)),
        ("engine.drain_s", drain_s),
        ("engine.overlap_s", med(&|j| j.counters.overlap_s)),
        ("engine.execute_s", execute_s),
        ("engine.drain_fraction", med(&|j| j.counters.drain_fraction)),
        (
            "engine.overlap_fraction",
            med(&|j| j.counters.overlap_fraction),
        ),
        ("engine.step_us_p50", median(&c.step_us)),
        (
            "engine.step_us_hi",
            quantile(&c.step_us, hi_pct.map_or(0.5, |p| f64::from(p) / 100.0)),
        ),
        (
            "engine.step_us_hi_percentile",
            hi_pct.map_or(50.0, f64::from),
        ),
        ("engine.new_ms", med(&|j| j.times.new_s * 1e3)),
        ("engine.extract_ms", med(&|j| j.times.extract_s * 1e3)),
        (
            "engine.other_s",
            (traced_job_s - drain_s - execute_s).max(0.0),
        ),
        ("engine.trace_overhead", median(&overhead)),
        ("engine.traced_job_s", traced_job_s),
        ("engine.untraced_job_s", median(&untraced_s)),
        (
            "engine.steps_spread",
            relative_range(&over_jobs(&|j| j.counters.steps as f64)),
        ),
        (
            "engine.tuples_processed_spread",
            relative_range(&over_jobs(&|j| j.counters.tuples_processed as f64)),
        ),
        (
            "gamma.probes_spread",
            relative_range(&over_jobs(&|j| j.counters.gamma_probes as f64)),
        ),
        (
            "persist.checkpoints",
            med(&|j| j.counters.checkpoints as f64),
        ),
        ("persist.checkpoint_s", med(&|j| j.counters.checkpoint_s)),
        ("persist.restore_s", median(&restore_s)),
        ("program.build_ms", median(&build_ms)),
    ]);
    let spans = trace::by_name(tr.spans());
    // Per traced job, the self time of what was recorded inside `job`
    // spans: set-up records spans of the same names (`build_program`
    // everywhere; a whole job on `dijkstra-ckpt`), and those are not a
    // job's.
    let (own, in_job) = (
        trace::self_times(tr.spans()),
        trace::inside(tr.spans(), "job"),
    );
    let jobs = traced.len().max(1) as f64;
    for (metric, span) in [
        ("span.engine_new_self_ms", "engine_new"),
        ("span.run_self_ms", "run"),
        ("span.extract_self_ms", "extract"),
        ("span.verify_self_ms", "verify"),
        ("span.build_program_self_ms", "build_program"),
        ("span.job_self_ms", "job"),
    ] {
        let self_ns: u64 = tr
            .spans()
            .iter()
            .zip(&own)
            .zip(&in_job)
            .filter(|((s, _), &in_job)| in_job && s.name == span)
            .map(|((_, &own), _)| own)
            .sum();
        values.insert(metric, self_ns as f64 / 1e6 / jobs);
    }

    let noise = Noise {
        threads: opts.threads,
        ramp_up_s,
        cpu_capacity: meta::cpu_capacity(opts.threads, opts.quick),
        calibration: (
            calibration_before,
            meta::calibration_ns(opts.threads, opts.quick),
        ),
        handcoded_drift: 0.0,
    };
    let noisy = !opts.quick && noise.noisy();
    let metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
            summary: None,
            self_spread: 0.0,
        })
        .collect();

    let name = wl.name();
    let layers = obj([
        ("schema", Json::from("spine-layers-1")),
        ("workload", Json::from(name)),
        ("quick", Json::from(opts.quick)),
        ("noisy", Json::from(noisy)),
        ("meta", meta::to_json(opts.seed, noise)),
        ("sizes", wl.sizes()),
        ("traced_jobs", Json::from(traced.len())),
        ("jobs_attempted", Json::from(tally.attempted)),
        ("jobs_failed", Json::from(tally.failed)),
        ("metrics", metrics_json(&metrics)),
        ("exact", obj(exact.iter().map(|&(n, e)| (n, Json::from(e))))),
        (
            "sequential_counters",
            obj(audit
                .first()
                .into_iter()
                .flatten()
                .map(|(&n, &v)| (n, Json::from(v)))),
        ),
        (
            "spans_by_name",
            Json::Arr(
                spans
                    .iter()
                    .map(|(n, count, total, own)| {
                        obj([
                            ("name", Json::from(n.as_str())),
                            ("count", Json::from(*count)),
                            ("total_ms", Json::from(*total as f64 / 1e6)),
                            ("self_ms", Json::from(*own as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_file(&opts.out.join(format!("{name}.layers.json")), &layers)?;
    write_file(
        &opts.out.join(format!("{name}.trace.json")),
        &tr.to_json(name),
    )?;
    Ok(Outcome {
        tally,
        metrics,
        noisy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(workload: &str, out: &str) -> Opts {
        Opts {
            workload: workload.into(),
            seed: 7,
            seconds: 0.0,
            quick: true,
            out: std::env::temp_dir().join(format!("spine-test-{}-{out}", std::process::id())),
            threads: 2,
        }
    }

    #[test]
    fn tally_counts_errors_and_panics_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.attempt("ok", || Ok(1)), Some(1));
        assert_eq!(t.attempt::<()>("err", || Err("wrong".into())), None);
        assert_eq!(t.attempt::<()>("panic", || panic!("boom")), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.failures[1].contains("boom"));
    }

    /// The oracle bites: against a deliberately wrong reference the one
    /// job run is counted failed and the run's exit code is non-zero.
    #[test]
    fn wrong_reference_fails_the_job_and_the_run() {
        for name in workloads::NAMES {
            let opts = quick_opts(name, "oracle");
            let mut off = Tracer::new(false);
            let (mut wl, _) = set_up(&opts, &mut off).expect("set-up");
            wl.corrupt_reference();
            let mut tally = Tally::default();
            tally.attempt("primary job", || wl.job(Arm::Primary, false, &mut off));
            let outcome = Outcome {
                tally,
                metrics: vec![],
                noisy: false,
            };
            assert_eq!(outcome.tally.failed, 1, "{name}");
            assert_ne!(outcome.exit_code(), 0, "{name}");
            let _ = std::fs::remove_dir_all(&opts.out);
        }
    }

    #[test]
    fn quick_runs_report_every_metric_and_no_failure() {
        for name in workloads::NAMES {
            let opts = quick_opts(name, "quick");
            let run = run_timed(&opts).expect("timed run");
            assert_eq!(run.tally.failed, 0, "{name}: {:?}", run.tally.failures);
            assert_eq!(run.exit_code(), 0);
            assert!(run
                .metrics
                .iter()
                .map(|m| m.name)
                .eq(metrics::end_to_end_for(name).map(|m| m.name)));
            assert!(run.metrics.iter().all(|m| m.value > 0.0), "{name}");

            let traced = run_traced(&opts).expect("traced run");
            assert_eq!(
                traced.tally.failed, 0,
                "{name}: {:?}",
                traced.tally.failures
            );
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(value("engine.steps") > 0.0);
            assert!(value("gamma.insert_ns") > 0.0);
            // The bypass predictions, at quick size.
            assert_eq!(value("gamma.cursor_opens") > 0.0, name == "triangles");
            assert_eq!(value("persist.checkpoints") > 0.0, name == "dijkstra-ckpt");
            assert_eq!(value("csv.parse_ns_per_record") > 0.0, name == "pvwatts");
            let _ = std::fs::remove_dir_all(&opts.out);
        }
    }
}
