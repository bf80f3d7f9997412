//! Cross-feature integration for the case-study programs: the apps must
//! stay correct under every engine knob combination (lifetime hints,
//! shared pools, strict validation, delta-join mode).

use jstar_apps::pvwatts::{self, InputOrder, Variant};
use jstar_apps::{matmul, median, shortest_path};
use jstar_core::prelude::*;
use std::sync::Arc;

#[test]
fn apps_share_one_pool_safely() {
    // The paper's workflows run many configurations against one machine;
    // engines must be able to share a fork/join pool.
    let pool = Arc::new(jstar_pool::ThreadPool::new(4));
    let mut config = EngineConfig::parallel(4);
    config.pool = Some(Arc::clone(&pool));

    let n = 24;
    let a = Arc::new(matmul::gen_matrix(n, 3));
    let b = Arc::new(matmul::gen_matrix(n, 4));
    let c1 = matmul::run_jstar(n, Arc::clone(&a), Arc::clone(&b), config.clone()).unwrap();

    let spec = shortest_path::GraphSpec::new(500, 500, 4, 9);
    let d1 = shortest_path::run_jstar(spec, config.clone()).unwrap();

    let data = Arc::new(median::gen_data(20_000, 5));
    let m1 = median::run_jstar(Arc::clone(&data), 8, config).unwrap();

    assert_eq!(c1, matmul::multiply_naive(&a, &b, n));
    assert_eq!(
        d1,
        shortest_path::dijkstra_baseline(&shortest_path::adjacency(&spec), 0)
    );
    assert_eq!(m1, median::median_by_sort(&data));
}

#[test]
fn pvwatts_with_lifetime_hint_still_answers() {
    // Discarding PvWatts tuples for *past* years after each step (the
    // §6.2 "constant memory" idea, done coarsely) must not change the
    // single-year answer.
    let recs = pvwatts::generate_records(8_760, InputOrder::Chronological);
    let csv = Arc::new(pvwatts::render_csv(&recs));
    let want = pvwatts::data::expected_means(&recs);
    let app = pvwatts::build_program(Arc::clone(&csv), 2);
    let config = pvwatts::apply_variant(&app, Variant::HashStore, EngineConfig::sequential())
        // Keep everything (predicate always true): exercises the hint
        // machinery on a real program without changing results.
        .lifetime_hint(app.pvwatts, 1, |_| true);
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run().unwrap();
    assert_eq!(pvwatts::means_from_output(&report.output), want);
}

#[test]
fn all_apps_print_dot_graphs() {
    let csv = Arc::new(pvwatts::generate_csv(100, InputOrder::Chronological));
    let programs: Vec<Arc<Program>> = vec![
        Arc::new(jstar_apps::ship::program(7)),
        pvwatts::build_program(csv, 1).program,
        matmul::build_program(
            4,
            Arc::new(matmul::gen_matrix(4, 1)),
            Arc::new(matmul::gen_matrix(4, 2)),
        )
        .program,
        shortest_path::build_program(shortest_path::GraphSpec::new(10, 10, 1, 1)).program,
        median::build_program(100, 2).program,
    ];
    for prog in programs {
        let dot = prog.dependency_graph().to_dot(None);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"), "{dot}");
    }
}

#[test]
fn scaled_down_paper_workloads_run_in_parallel_without_error() {
    // One combined smoke run at moderately larger sizes than unit tests.
    let spec = shortest_path::GraphSpec::new(10_000, 10_000, 24, 2);
    let dist = shortest_path::run_jstar(spec, EngineConfig::parallel(8)).unwrap();
    assert_eq!(dist.len(), 10_000);
    assert!(dist.iter().all(|&d| d != i64::MAX));

    let data = Arc::new(median::gen_data(500_000, 8));
    let m = median::run_jstar(Arc::clone(&data), 16, EngineConfig::parallel(8)).unwrap();
    assert_eq!(m, median::median_by_sort(&data));
}

/// Runs `run` sequentially with the default delta-join threshold, with
/// every class wide enough to batch (`delta_join_from(1)`) and with
/// batching off (`delta_join_from(usize::MAX)`, the per-tuple reference),
/// and asserts the three runs are one run.
fn assert_join_free<T: PartialEq + std::fmt::Debug>(
    name: &str,
    program: &Program,
    run: impl Fn(EngineConfig) -> (T, RunReport),
) {
    assert!(
        program.rules().iter().all(|rule| rule.plan.is_none()),
        "{name}: a rule carries a join plan"
    );
    let counters = |r: &RunReport| (r.steps, r.tuples_processed, r.gamma_probes);
    let (want, reference) = run(EngineConfig::sequential().delta_join_from(usize::MAX));
    for config in [
        EngineConfig::sequential(),
        EngineConfig::sequential().delta_join_from(1),
    ] {
        let (got, report) = run(config);
        assert_eq!(got, want, "{name}");
        assert_eq!(report.delta_join_classes, 0, "{name} batched a class");
        assert_eq!(counters(&report), counters(&reference), "{name}");
    }
    assert_eq!(reference.delta_join_classes, 0, "{name}");
}

/// fig 8, 11, 12 and 13 have no join rule, so the batched delta-join mode
/// can never engage on them: the scheduler's per-class check answers no
/// for every class, and both modes run the same code to the same result
/// and the same step, tuple and probe counts.
#[test]
fn join_free_apps_run_identically_in_both_modes() {
    let csv = Arc::new(pvwatts::generate_csv(3_000, InputOrder::Chronological));
    assert_join_free(
        "pvwatts",
        &pvwatts::build_program(Arc::clone(&csv), 2).program,
        |config| pvwatts::run_jstar(Arc::clone(&csv), 2, Variant::HashStore, config).unwrap(),
    );

    let n = 24;
    let a = Arc::new(matmul::gen_matrix(n, 3));
    let b = Arc::new(matmul::gen_matrix(n, 4));
    assert_join_free(
        "matmul",
        &matmul::build_program(n, Arc::clone(&a), Arc::clone(&b)).program,
        |config| matmul::run_jstar_report(n, Arc::clone(&a), Arc::clone(&b), config).unwrap(),
    );

    let spec = shortest_path::GraphSpec::new(2_000, 2_000, 8, 7);
    assert_join_free(
        "shortest_path",
        &shortest_path::build_program(spec).program,
        |config| shortest_path::run_jstar_report(spec, config).unwrap(),
    );

    let data = Arc::new(median::gen_data(50_000, 6));
    assert_join_free(
        "median",
        &median::build_program(data.len(), 8).program,
        |config| median::run_jstar_report(Arc::clone(&data), 8, config).unwrap(),
    );
}
