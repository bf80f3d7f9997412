//! Stress tests for the coordinator's boundary absorb: 8 worker threads
//! staging at full rate into the sharded inbox while a class executes,
//! and the coordinator swapping the epoch out and merging it into the
//! Delta tree once the class has joined.
//!
//! The determinism *properties* live in `prop_engine.rs`; these tests
//! hammer one adversarial configuration — every class forked
//! (`inline_classes_up_to(0)`), every absorb merged in parallel
//! (`parallel_merge_from(1)`, which drives `merge_partitioned`'s
//! parallel arm), wide classes so every absorb has work for the pool —
//! and assert exact agreement with the sequential engine across
//! repeated runs.

use jstar_core::prelude::*;
use std::sync::Arc;

/// A fan-out program with deliberately wide equivalence classes: every
/// `(t, v)` tuple of generation `t` puts `fanout` tuples of generation
/// `t + 1`, values folded modulo `modp`, until `horizon`. All tuples of
/// one generation share an order key, so each step executes a class of
/// up to `modp` tuples while staging up to `class × fanout` — exactly
/// the shape that keeps every boundary absorb busy.
fn fanout_program(fanout: i64, modp: i64, horizon: i64, seeds: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| {
        b.col_int("t").col_int("v").orderby(&[strat("T"), seq("t")])
    });
    p.rule("fan", t, move |ctx, tr| {
        if tr.int(0) < horizon {
            for k in 0..fanout {
                ctx.put(Tuple::new(
                    t,
                    vec![
                        Value::Int(tr.int(0) + 1),
                        Value::Int((tr.int(1) * 31 + 7 * k + 1).rem_euclid(modp)),
                    ],
                ));
            }
        }
    });
    for s in 0..seeds {
        p.put(Tuple::new(t, vec![Value::Int(0), Value::Int(s)]));
    }
    Arc::new(p.build().unwrap())
}

fn canonical(eng: &Engine, table: TableId) -> Vec<Tuple> {
    let mut all = eng.gamma().collect(&Query::on(table));
    all.sort();
    all
}

/// A two-horizon fan-out built to ambush the boundary absorb: every
/// `(t, v)` tuple puts `fanout` tuples at `t + 2` (wide far classes)
/// and, for a third of values, one tuple at `t + 1` (a sparse near
/// class). The tree's minimum while a step executes is therefore the
/// `t + 1` or `t + 2` class, and the step's own staging always includes
/// keys at or below it — every non-final forked step absorbs an epoch
/// that extends or precedes the class about to be popped. Staging is
/// pure puts (no queries), so the pop schedule itself is deterministic
/// and comparable across configurations.
fn ambush_program(fanout: i64, modp: i64, horizon: i64, seeds: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| {
        b.col_int("t").col_int("v").orderby(&[strat("T"), seq("t")])
    });
    p.rule("fan", t, move |ctx, tr| {
        if tr.int(0) < horizon {
            for k in 0..fanout {
                ctx.put(Tuple::new(
                    t,
                    vec![
                        Value::Int(tr.int(0) + 2),
                        Value::Int((tr.int(1) * 37 + 11 * k + 1).rem_euclid(modp)),
                    ],
                ));
            }
            if tr.int(1) % 3 == 0 {
                ctx.put(Tuple::new(
                    t,
                    vec![Value::Int(tr.int(0) + 1), Value::Int(tr.int(1) + 1)],
                ));
            }
        }
    });
    for s in 0..seeds {
        p.put(Tuple::new(t, vec![Value::Int(0), Value::Int(s * 3)]));
    }
    Arc::new(p.build().unwrap())
}

#[test]
fn eight_thread_epoch_swap_stress() {
    for (name, prog) in [
        ("fanout", fanout_program(6, 500, 40, 4)),
        ("ambush", ambush_program(6, 400, 40, 4)),
    ] {
        let table = prog.table_id("T").unwrap();

        let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        let seq_report = seq_eng.run().unwrap();
        let want = canonical(&seq_eng, table);
        assert!(want.len() > 1000, "the stress load must be non-trivial");

        // Repeated runs: which worker stages what, and so the merge's
        // partition runs, differ every time; the result must not.
        for round in 0..5 {
            let mut eng = Engine::new(
                Arc::clone(&prog),
                EngineConfig::parallel(8)
                    .inline_classes_up_to(0)
                    .parallel_merge_from(1),
            );
            let report = eng.run().unwrap();
            assert_eq!(
                canonical(&eng, table),
                want,
                "{name} round {round}: gamma diverged from sequential"
            );
            assert_eq!(
                report.tuples_processed, seq_report.tuples_processed,
                "{name} round {round}: tuple counts diverged"
            );
            assert_eq!(
                report.steps, seq_report.steps,
                "{name} round {round}: pop schedule diverged"
            );
        }
    }
}

#[test]
fn pipelined_run_accounts_overlap_consistently() {
    // With record_steps on, the timers must partition cleanly: drain =
    // partition + merge, and no drain work runs under a class, so the
    // overlap timer stays zero in both modes.
    let prog = fanout_program(6, 400, 30, 4);
    for config in [
        EngineConfig::sequential(),
        EngineConfig::parallel(8)
            .inline_classes_up_to(0)
            .parallel_merge_from(1),
    ] {
        let mut eng = Engine::new(Arc::clone(&prog), config.record_steps());
        let report = eng.run().unwrap();
        assert_eq!(
            report.drain_time,
            report.partition_time + report.merge_time,
            "serial drain must be the sum of its phases"
        );
        assert_eq!(report.overlap_time, std::time::Duration::ZERO);
        assert_eq!(report.overlap_fraction(), 0.0);
        assert!((0.0..=1.0).contains(&report.drain_fraction()));
    }
}

#[test]
fn pipelining_composes_with_lifetime_hints_and_compaction() {
    // The maintain phase (hints + quiescent compaction) runs between
    // forked steps; surviving tuples must match the sequential
    // engine's under the same hint.
    let prog = fanout_program(5, 300, 30, 3);
    let table = prog.table_id("T").unwrap();
    let configure = |c: EngineConfig| c.lifetime_hint(table, 7, |t| t.int(0) >= 20);

    let mut seq_eng = Engine::new(Arc::clone(&prog), configure(EngineConfig::sequential()));
    seq_eng.run().unwrap();
    let want = canonical(&seq_eng, table);

    let mut eng = Engine::new(
        Arc::clone(&prog),
        configure(
            EngineConfig::parallel(8)
                .inline_classes_up_to(0)
                .parallel_merge_from(1),
        ),
    );
    eng.run().unwrap();
    assert_eq!(canonical(&eng, table), want);
    assert!(
        eng.stats().tables[table.index()].snapshot().compactions > 0,
        "the aggressive hint must trip compaction on the reservation store"
    );
}
