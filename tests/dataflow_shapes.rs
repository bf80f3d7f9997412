//! Cross-crate integration: the execution *shapes* the paper draws.
//!
//! Fig. 7 shows PvWatts as a two-phase dataflow (N parallel CSV readers,
//! then M parallel month reducers); §6.4 shows MatrixMult as a single wave
//! of row tasks; §6.5's Dijkstra advances one distance level at a time.
//! These tests assert those shapes from the engine's step log — the same
//! information the paper's visualiser renders.

use jstar::apps::pvwatts::{self, InputOrder, Variant};
use jstar::apps::shortest_path::{self, GraphSpec};
use jstar::core::prelude::*;
use std::sync::Arc;

#[test]
fn pvwatts_runs_in_two_parallel_phases() {
    let csv = Arc::new(pvwatts::generate_csv(8_760, InputOrder::Chronological));
    let app = pvwatts::build_program(Arc::clone(&csv), 4);
    let config = pvwatts::apply_variant(
        &app,
        Variant::CustomStore,
        EngineConfig::parallel(4).record_steps(),
    );
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    engine.run().unwrap();

    let log = engine.stats().step_log.lock().clone();
    // Phase 1: one step with the 16 region requests of 4 readers (one
    // par class). Phase 2: one step with the 12 SumMonth tuples.
    assert_eq!(log.len(), 2, "{log:?}");
    assert_eq!(log[0].class_size, 16, "4 region requests per reader");
    assert_eq!(log[1].class_size, 12, "M parallel month reducers");

    // The profile chart shows both phases.
    let chart = engine.stats().render_parallelism_profile(10);
    assert!(chart.lines().count() >= 2, "{chart}");
}

#[test]
fn matmul_is_a_single_wave_of_row_tasks() {
    use jstar::apps::matmul;
    let n = 24;
    let a = Arc::new(matmul::gen_matrix(n, 1));
    let b = Arc::new(matmul::gen_matrix(n, 2));
    let app = matmul::build_program(n, a, b);
    let config = EngineConfig::parallel(4)
        .store(app.matrix, matmul::MatrixStore::factory(n))
        .record_steps();
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    engine.run().unwrap();
    let log = engine.stats().step_log.lock().clone();
    // Step 1: the MultRequest; step 2: all n rows at once.
    assert_eq!(log.len(), 2, "{log:?}");
    assert_eq!(log[1].class_size, n);
}

#[test]
fn dijkstra_advances_in_distance_order() {
    let spec = GraphSpec::new(500, 500, 4, 11);
    let app = shortest_path::build_program(spec);
    let config = shortest_path::optimised_config(&app, EngineConfig::parallel(4).record_steps());
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    engine.run().unwrap();
    let log = engine.stats().step_log.lock().clone();
    // After the generation wave, Estimate steps carry keys
    // "(S?, d, S?)" with non-decreasing d.
    let distances: Vec<i64> = log
        .iter()
        .filter_map(|r| {
            let inner = r.key.strip_prefix('(')?.strip_suffix(')')?;
            let mut parts = inner.split(", ");
            let _strat = parts.next()?;
            parts.next()?.parse().ok()
        })
        .collect();
    assert!(
        distances.windows(2).all(|w| w[0] <= w[1]),
        "distance keys must be non-decreasing: {distances:?}"
    );
    assert!(
        distances.len() > 10,
        "many distance levels: {}",
        distances.len()
    );
}

#[test]
fn mean_class_size_separates_scalable_from_serial_programs() {
    // MatrixMult (one wide wave) must report a much larger mean class size
    // than the Ship program (a chain) — the metric the paper's logging
    // system feeds into parallelisation decisions.
    use jstar::apps::{matmul, ship};
    let n = 32;
    let a = Arc::new(matmul::gen_matrix(n, 1));
    let b = Arc::new(matmul::gen_matrix(n, 2));
    let app = matmul::build_program(n, a, b);
    let mut wide = Engine::new(
        Arc::clone(&app.program),
        EngineConfig::sequential()
            .store(app.matrix, matmul::MatrixStore::factory(n))
            .record_steps(),
    );
    wide.run().unwrap();

    let prog = Arc::new(ship::program(20));
    let mut chain = Engine::new(prog, EngineConfig::sequential().record_steps());
    chain.run().unwrap();

    assert!(
        wide.stats().mean_class_size() > 10.0 * chain.stats().mean_class_size(),
        "wide {} vs chain {}",
        wide.stats().mean_class_size(),
        chain.stats().mean_class_size()
    );
}
