//! Cross-crate integration: the paper's §5.1 optimisation flags and §1.4
//! data-structure choices must change performance *only* — "this stage can
//! change the efficiency of the program but cannot change its correctness
//! (input-output behaviour is preserved)".

use jstar::core::prelude::*;
use std::sync::Arc;

/// A small two-stage pipeline program used to exercise flag combinations:
/// Source(t) -> Derived(t+1) -> output println.
fn pipeline_program() -> (Arc<Program>, TableId, TableId) {
    let mut p = ProgramBuilder::new();
    let src = p.table("Source", |b| {
        b.col_int("t")
            .col_int("v")
            .orderby(&[strat("Src"), seq("t")])
    });
    let der = p.table("Derived", |b| {
        b.col_int("t")
            .col_int("v")
            .orderby(&[strat("Der"), seq("t")])
    });
    p.order(&["Src", "Der"]);
    p.rule("derive", src, move |ctx, t| {
        ctx.put(Tuple::new(
            der,
            vec![Value::Int(t.int(0) + 1), Value::Int(t.int(1) * 2)],
        ));
    });
    p.rule("emit", der, move |ctx, t| {
        ctx.println(format!("{} {}", t.int(0), t.int(1)));
    });
    for i in 0..50 {
        p.put(Tuple::new(src, vec![Value::Int(i), Value::Int(i * i)]));
    }
    (Arc::new(p.build().unwrap()), src, der)
}

fn run_outputs(config: EngineConfig) -> Vec<String> {
    let (prog, _, _) = pipeline_program();
    let mut engine = Engine::new(prog, config);
    let mut out = engine.run().unwrap().output;
    out.sort();
    out
}

#[test]
fn no_delta_preserves_output() {
    let (_, _, der) = pipeline_program();
    let reference = run_outputs(EngineConfig::sequential());
    let got = run_outputs(EngineConfig::sequential().no_delta(der));
    assert_eq!(got, reference);
    let got = run_outputs(EngineConfig::parallel(4).no_delta(der));
    assert_eq!(got, reference);
}

#[test]
fn no_gamma_preserves_output_for_trigger_only_tables() {
    let (_, src, der) = pipeline_program();
    let reference = run_outputs(EngineConfig::sequential());
    // Derived is only ever used as a trigger, Source is never queried:
    // both can skip Gamma without changing the printed output.
    let got = run_outputs(EngineConfig::sequential().no_gamma(src).no_gamma(der));
    assert_eq!(got, reference);
}

#[test]
fn no_gamma_actually_skips_storage() {
    let (prog, src, der) = pipeline_program();
    let mut engine = Engine::new(
        Arc::clone(&prog),
        EngineConfig::sequential().no_gamma(src).no_gamma(der),
    );
    engine.run().unwrap();
    assert_eq!(engine.gamma().total_len(), 0);
}

#[test]
fn store_choice_preserves_output() {
    let (_, src, der) = pipeline_program();
    let reference = run_outputs(EngineConfig::sequential());
    for kind in [
        StoreKind::Ordered,
        StoreKind::ConcurrentOrdered,
        StoreKind::Hash {
            index_fields: vec!["t".into()],
        },
    ] {
        let config = EngineConfig::parallel(4)
            .store(src, kind.clone())
            .store(der, kind.clone());
        assert_eq!(run_outputs(config), reference, "{kind:?}");
    }
}

#[test]
fn flags_change_measured_work_not_results() {
    let (prog, _, der) = pipeline_program();
    let mut with_delta = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    with_delta.run().unwrap();
    let (prog2, _, _) = pipeline_program();
    let mut without_delta = Engine::new(prog2, EngineConfig::sequential().no_delta(der));
    without_delta.run().unwrap();

    let d1 = with_delta.stats().tables[der.index()].snapshot();
    let d2 = without_delta.stats().tables[der.index()].snapshot();
    assert!(d1.delta_inserts > 0);
    assert_eq!(d2.delta_inserts, 0);
    assert_eq!(d1.gamma_fresh, d2.gamma_fresh);
    assert_eq!(d1.triggers, d2.triggers);
}

#[test]
fn retain_lifetime_hints_shrink_gamma() {
    // §5's step 4: manual lifetime hints discard tuples that can never be
    // queried again.
    let (prog, src, _) = pipeline_program();
    let mut engine = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    engine.run().unwrap();
    let store = engine.gamma().store(src);
    let before = store.len();
    store.retain(&|t| t.int(0) >= 25);
    assert_eq!(store.len(), before - 25);
}

#[test]
fn record_steps_builds_parallelism_profile() {
    let (prog, _, _) = pipeline_program();
    let mut engine = Engine::new(prog, EngineConfig::parallel(4).record_steps());
    engine.run().unwrap();
    let hist = engine.stats().class_size_histogram();
    assert!(!hist.is_empty());
    assert!(engine.stats().mean_class_size() >= 1.0);
}

#[test]
fn dot_graph_renders_for_real_apps() {
    let csv = Arc::new(jstar::apps::pvwatts::generate_csv(
        100,
        jstar::apps::pvwatts::InputOrder::Chronological,
    ));
    let app = jstar::apps::pvwatts::build_program(csv, 2);
    let dot = app.program.dependency_graph().to_dot(None);
    for needle in ["PvWattsRequest", "PvWatts", "SumMonth", "read-csv", "->"] {
        assert!(dot.contains(needle), "missing {needle} in {dot}");
    }
}
