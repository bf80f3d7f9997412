//! The one place a metric is defined: name, unit, direction and — for
//! end-to-end metrics — the regression bound. `BENCHMARK.json` is
//! generated from this file (`spine manifest`); a unit test keeps the
//! committed copy in step.

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Which workloads report it, and whether the driver reads it.
    pub scope: Scope,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workload reports it and `BENCHMARK.json` lists it.
    Driver,
    /// Every workload reports it, but only `spine` itself reads it: the
    /// box cannot hold it steady enough for the driver's spread rule.
    SpineOnly,
    /// Only this workload reports it, so the driver (which wants every
    /// metric from every workload) cannot list it.
    Only(&'static str),
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    scope: Scope,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        scope,
    }
}

const CKPT: Scope = Scope::Only("dijkstra-ckpt");

/// `jobs_failed` over `jobs_attempted` is the tenth: it has no bound
/// (any failure fails the run) and travels as its own pair of fields.
///
/// A bound has to be three times the spread the box itself shows over
/// ten runs of one commit (the driver's contract), and wider than the
/// shift between two such sets, or the driver refuses the benchmark and,
/// later, innocent PRs. README, "How steady it is", has the numbers each
/// bound stands on: `par_speedup` and `peak_rss_mb` hold the issue's 15 %
/// or better; anything in seconds, and `vs_handcoded` with them, does not
/// on the shared 2-core box this was written on.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Scope::Driver),
    e2e("job_s", "s", Better::Lower, 0.25, Scope::Driver),
    e2e("job_s_p75", "s", Better::Lower, 0.25, Scope::SpineOnly),
    e2e("items_per_s", "1/s", Better::Higher, 0.25, Scope::Driver),
    e2e("vs_handcoded", "ratio", Better::Lower, 0.25, Scope::Driver),
    e2e("par_speedup", "ratio", Better::Higher, 0.15, Scope::Driver),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Scope::Driver),
    e2e("restore_s", "s", Better::Lower, 0.25, CKPT),
    e2e("ckpt_overhead", "ratio", Better::Lower, 0.15, CKPT),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The end-to-end metrics `workload` reports.
pub fn end_to_end_for(workload: &str) -> impl Iterator<Item = &'static EndToEnd> + '_ {
    END_TO_END
        .iter()
        .filter(move |m| !matches!(m.scope, Scope::Only(w) if w != workload))
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics of the traced run, grouped by the module they
/// measure. A workload that never enters a layer reports 0 for that
/// layer's probes: the layer did no work for it. Which end-to-end metric
/// each one should move, on which workload, is the README's table.
pub const PER_LAYER: [Layer; 73] = [
    // jstar-csv
    lo("csv.parse_ns_per_record", "ns"),
    // jstar-pool
    lo("pool.fork_join_us", "us"),
    lo("pool.parallel_for_ns_per_item", "ns"),
    lo("pool.background_batch_us", "us"),
    // delta
    lo("delta.inbox_push_ns", "ns"),
    lo("delta.swap_epoch_ns", "ns"),
    lo("delta.insert_ns", "ns"),
    lo("delta.merge_partitioned_ns", "ns"),
    lo("delta.pop_min_class_ns", "ns"),
    lo("delta.tuples", "count"),
    lo("delta.classes", "count"),
    hi("delta.class_width_p50", "count"),
    hi("delta.class_width_max", "count"),
    // orderby / relation
    lo("orderby.key_of_ns", "ns"),
    lo("relation.decode_ns", "ns"),
    lo("relation.encode_ns", "ns"),
    // gamma stores
    lo("gamma.insert_ns", "ns"),
    lo("gamma.insert_batch_ns", "ns"),
    lo("gamma.insert_par_ns", "ns"),
    lo("gamma.dup_insert_ns", "ns"),
    lo("gamma.probe_hit_ns", "ns"),
    lo("gamma.probe_miss_ns", "ns"),
    lo("gamma.for_each_ns", "ns"),
    lo("gamma.probes", "count"),
    // gamma::cursor / gamma::cache
    lo("gamma.open_cursor_cold_ns", "ns"),
    lo("gamma.open_cursor_warm_ns", "ns"),
    lo("gamma.open_cursor_catchup_ns", "ns"),
    lo("gamma.cursor_seek_ns", "ns"),
    lo("gamma.cursor_next_ns", "ns"),
    lo("gamma.join_seeks", "count"),
    lo("gamma.cursor_opens", "count"),
    hi("gamma.index_cache_hit_rate", "ratio"),
    lo("gamma.index_build_tuples", "count"),
    lo("gamma.index_catchup_tuples", "count"),
    // engine
    lo("engine.steps", "count"),
    lo("engine.tuples_processed", "count"),
    hi("engine.max_class", "count"),
    lo("engine.inline_classes", "count"),
    lo("engine.forked_classes", "count"),
    hi("engine.delta_join_classes", "count"),
    lo("engine.partition_s", "s"),
    lo("engine.merge_s", "s"),
    lo("engine.drain_s", "s"),
    hi("engine.overlap_s", "s"),
    lo("engine.execute_s", "s"),
    lo("engine.drain_fraction", "ratio"),
    hi("engine.overlap_fraction", "ratio"),
    lo("engine.step_us_p50", "us"),
    lo("engine.step_us_hi", "us"),
    lo("engine.step_us_hi_percentile", "%"),
    lo("engine.new_ms", "ms"),
    lo("engine.extract_ms", "ms"),
    lo("engine.other_s", "s"),
    lo("engine.trace_overhead", "ratio"),
    lo("engine.traced_job_s", "s"),
    lo("engine.untraced_job_s", "s"),
    // persist
    lo("persist.snapshot_ns_per_tuple", "ns"),
    lo("persist.restore_ns_per_tuple", "ns"),
    lo("persist.bytes_per_tuple", "B"),
    lo("persist.checkpoints", "count"),
    lo("persist.checkpoint_s", "s"),
    lo("persist.restore_s", "s"),
    // program / causality
    lo("program.build_ms", "ms"),
    lo("causality.check_ms", "ms"),
    // self time of the benchmark's own spans, per traced job
    lo("span.engine_new_self_ms", "ms"),
    lo("span.run_self_ms", "ms"),
    lo("span.extract_self_ms", "ms"),
    lo("span.verify_self_ms", "ms"),
    lo("span.build_program_self_ms", "ms"),
    lo("span.job_self_ms", "ms"),
    // spread of the counters that wobble under parallel execution
    lo("engine.steps_spread", "ratio"),
    lo("engine.tuples_processed_spread", "ratio"),
    lo("gamma.probes_spread", "ratio"),
];

/// Why each workload is in the benchmark (`BENCHMARK.json` carries these;
/// the README has the long form).
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    (
        "pvwatts",
        "fig 8: CSV parsing, HashStore Gamma writes and indexed reducer scans; two steps, so the Delta queue is all but bypassed",
    ),
    (
        "matmul",
        "fig 11, the control: wide par classes of pure arithmetic over a custom store; only pool fan-out and the rule body matter",
    ),
    (
        "dijkstra",
        "fig 12: many narrow classes on one seq level; Delta inbox/merge/pop, the step loop and Gamma point probes; no cursor is opened",
    ),
    (
        "triangles",
        "join2 rule + join3 read: three steps of giant classes; ordered Gamma reads (index build, catch-up, galloping seeks) and decode",
    ),
    (
        "dijkstra-ckpt",
        "dijkstra with a checkpoint every 20 steps, then restore_latest + resume: persist's bulk journal walk and import beside CAS inserts",
    ),
];

/// The whole of `BENCHMARK.json`, generated from the tables above
/// (`spine manifest > BENCHMARK.json`).
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::from(*s)).collect());
    let dir = "crates/jstar-bench/src/bin/spine";
    obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                &format!("{dir}/Cargo.toml"),
                "--",
                "bench",
            ]),
        ),
        ("paths", strs(&[dir])),
        ("run_seconds", Json::from(crate::harness::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|&(name, why)| obj([("name", Json::from(name)), ("why", Json::from(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.scope == Scope::Driver)
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Counters the exactness audit holds to bit-for-bit agreement between
/// two traced `EngineConfig::sequential()` jobs.
pub const AUDITED: [&str; 12] = [
    "engine.steps",
    "engine.tuples_processed",
    "gamma.probes",
    "gamma.join_seeks",
    "gamma.cursor_opens",
    "gamma.index_cache_hit_rate",
    "gamma.index_build_tuples",
    "gamma.index_catchup_tuples",
    "delta.tuples",
    "delta.classes",
    "delta.class_width_p50",
    "delta.class_width_max",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(AUDITED
            .iter()
            .all(|a| PER_LAYER.iter().any(|m| m.name == *a)));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `spine manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_drivers_limits() {
        let m = manifest();
        let names = |k: &str| -> Vec<String> {
            m.get(k)
                .expect("section")
                .as_arr()
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), crate::workloads::NAMES);
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert!(names("end_to_end").len() <= 16 && names("per_layer").len() <= 128);
        assert!(WORKLOAD_WHY.iter().all(|(_, why)| why.len() <= 200));
        // The driver's ceiling, and its rule that set-up has the widest.
        let setup = end_to_end("setup_s").expect("setup_s").bound;
        assert!(END_TO_END.iter().all(|e| e.bound <= setup && setup <= 0.25));
        assert!(m.to_pretty().len() < 64 * 1024);
    }
}
