//! Unit tests for the engine module family.

use super::*;
use crate::orderby::{seq, strat};
use crate::program::{Program, ProgramBuilder};
use crate::query::Query;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// The paper's bounded Ship program (§3): move right while x < 400.
fn ship_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let ship = p.table("Ship", |b| {
        b.col_int("frame")
            .col_int("x")
            .col_int("y")
            .col_int("dx")
            .col_int("dy")
            .orderby(&[strat("Int"), seq("frame")])
    });
    p.rule("move-right", ship, move |ctx, s| {
        if s.int(1) < 400 {
            ctx.put(Tuple::new(
                ship,
                vec![
                    Value::Int(s.int(0) + 1),
                    Value::Int(s.int(1) + 150),
                    Value::Int(s.int(2)),
                    Value::Int(s.int(3)),
                    Value::Int(s.int(4)),
                ],
            ));
        }
    });
    p.put(Tuple::new(
        ship,
        vec![
            Value::Int(0),
            Value::Int(10),
            Value::Int(10),
            Value::Int(150),
            Value::Int(0),
        ],
    ));
    Arc::new(p.build().unwrap())
}

#[test]
fn ship_moves_until_bound_sequential() {
    let prog = ship_program();
    let mut eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    let report = eng.run().unwrap();
    // Frames 0..=3: x = 10, 160, 310, 460 (460 >= 400 stops the rule).
    let ship = prog.table_id("Ship").unwrap();
    let all = eng.gamma().collect(&Query::on(ship));
    assert_eq!(all.len(), 4);
    let mut xs: Vec<i64> = all.iter().map(|t| t.int(1)).collect();
    xs.sort();
    assert_eq!(xs, vec![10, 160, 310, 460]);
    assert_eq!(report.steps, 4);
}

#[test]
fn parallel_and_sequential_agree() {
    let prog = ship_program();
    let ship = prog.table_id("Ship").unwrap();
    let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    seq_eng.run().unwrap();
    let mut par_eng = Engine::new(Arc::clone(&prog), EngineConfig::parallel(4));
    par_eng.run().unwrap();
    let mut a = seq_eng.gamma().collect(&Query::on(ship));
    let mut b = par_eng.gamma().collect(&Query::on(ship));
    a.sort();
    b.sort();
    assert_eq!(a, b, "deterministic output independent of strategy");
}

#[test]
fn unbounded_rule_hits_step_limit() {
    // §3's first rule: "effectively creates an infinite loop that keeps
    // moving the Ship infinitely far to the right!"
    let mut p = ProgramBuilder::new();
    let ship = p.table("Ship", |b| {
        b.col_int("frame").col_int("x").orderby(&[seq("frame")])
    });
    p.rule("move-unbounded", ship, move |ctx, s| {
        ctx.put(Tuple::new(
            ship,
            vec![Value::Int(s.int(0) + 1), Value::Int(s.int(1) + 150)],
        ));
    });
    p.put(Tuple::new(ship, vec![Value::Int(0), Value::Int(10)]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential().max_steps(100));
    let err = eng.run().unwrap_err();
    assert!(err.to_string().contains("step limit"));
}

#[test]
fn causality_violation_is_caught_at_runtime() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("time").orderby(&[seq("time")]));
    p.rule("back-in-time", t, move |ctx, tr| {
        ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) - 1)]));
    });
    p.put(Tuple::new(t, vec![Value::Int(5)]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    let err = eng.run().unwrap_err();
    assert!(
        matches!(err, crate::error::JStarError::CausalityViolation { .. }),
        "{err}"
    );
}

#[test]
fn key_violation_detected() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| {
        b.col_int("k").col_int("v").key(1).orderby(&[seq("k")])
    });
    p.put(Tuple::new(t, vec![Value::Int(1), Value::Int(10)]));
    p.put(Tuple::new(t, vec![Value::Int(1), Value::Int(20)]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    let err = eng.run().unwrap_err();
    assert!(
        matches!(err, crate::error::JStarError::KeyViolation { .. }),
        "{err}"
    );
}

#[test]
fn type_error_detected() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("k").orderby(&[seq("k")]));
    p.put(Tuple::new(t, vec![Value::str("not an int")]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    let err = eng.run().unwrap_err();
    assert!(matches!(err, crate::error::JStarError::Type(_)), "{err}");
}

#[test]
fn duplicates_trigger_rules_once() {
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("t").orderby(&[strat("A"), seq("t")]));
    let b = p.table("B", |bb| bb.col_int("t").orderby(&[strat("B"), seq("t")]));
    p.order(&["A", "B"]);
    p.rule("fan-in", a, move |ctx, tr| {
        // Many A tuples map to the same B tuple (like PvWatts →
        // SumMonth); B's rule must fire once per distinct tuple.
        ctx.put(Tuple::new(b, vec![Value::Int(tr.int(0) / 10)]));
    });
    p.rule("count-b", b, move |ctx, tr| {
        ctx.println(format!("B {}", tr.int(0)));
    });
    for i in 0..30 {
        p.put(Tuple::new(a, vec![Value::Int(i)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    let report = eng.run().unwrap();
    let mut out = report.output;
    out.sort();
    assert_eq!(out, vec!["B 0", "B 1", "B 2"]);
}

#[test]
fn no_delta_fires_rules_inline() {
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("t").orderby(&[strat("A"), seq("t")]));
    let b = p.table("B", |bb| bb.col_int("t").orderby(&[strat("B"), seq("t")]));
    p.order(&["A", "B"]);
    p.rule("emit", a, move |ctx, tr| {
        ctx.put(Tuple::new(b, vec![Value::Int(tr.int(0))]));
    });
    p.rule("sink", b, move |ctx, tr| {
        ctx.println(format!("got {}", tr.int(0)));
    });
    p.put(Tuple::new(a, vec![Value::Int(1)]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(
        Arc::clone(&prog),
        EngineConfig::sequential().no_delta(prog.table_id("B").unwrap()),
    );
    let report = eng.run().unwrap();
    assert_eq!(report.output, vec!["got 1"]);
    // B bypassed the Delta tree entirely.
    let snap = eng.stats().tables[prog.table_id("B").unwrap().index()].snapshot();
    assert_eq!(snap.delta_inserts, 0);
    assert_eq!(snap.gamma_fresh, 1);
}

#[test]
fn no_gamma_tables_are_not_stored() {
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("t").orderby(&[seq("t")]));
    p.rule("noop", a, move |_ctx, _t| {});
    p.put(Tuple::new(a, vec![Value::Int(1)]));
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(
        Arc::clone(&prog),
        EngineConfig::sequential().no_gamma(prog.table_id("A").unwrap()),
    );
    eng.run().unwrap();
    assert_eq!(eng.gamma().total_len(), 0);
    // The rule still fired.
    let snap = eng.stats().tables[0].snapshot();
    assert_eq!(snap.triggers, 1);
}

#[test]
fn injected_events_trigger_rules() {
    let mut p = ProgramBuilder::new();
    let ev = p.table("Event", |b| b.col_int("t").orderby(&[seq("t")]));
    p.rule("log", ev, move |ctx, t| {
        ctx.println(format!("ev {}", t.int(0)))
    });
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    eng.inject(Tuple::new(ev, vec![Value::Int(9)]));
    let report = eng.run().unwrap();
    assert_eq!(report.output, vec!["ev 9"]);
}

#[test]
fn lifetime_hints_discard_old_tuples() {
    let prog = ship_program();
    let ship = prog.table_id("Ship").unwrap();
    // Keep only ships at frame >= 2 — the two-generation idea of §6.6.
    let config = EngineConfig::sequential().lifetime_hint(ship, 1, |t| t.int(0) >= 2);
    let mut eng = Engine::new(Arc::clone(&prog), config);
    eng.run().unwrap();
    let left = eng.gamma().collect(&Query::on(ship));
    assert!(left.len() < 4, "hints discarded early frames: {left:?}");
    assert!(left.iter().all(|t| t.int(0) >= 2));
}

#[test]
fn lifetime_hints_keep_their_own_intervals() {
    // T and U advance in lockstep, one class per step (41 steps); both
    // hooks drop everything, T's every 3 steps and U's every 10. What
    // survives is what each table inserted after its own last firing.
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("i").orderby(&[seq("i")]));
    let u = p.table("U", |b| b.col_int("i").orderby(&[seq("i")]));
    p.rule("advance", t, move |ctx, tr| {
        if tr.int(0) < 40 {
            ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) + 1)]));
            ctx.put(Tuple::new(u, vec![Value::Int(tr.int(0) + 1)]));
        }
    });
    p.put(Tuple::new(t, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    let config = EngineConfig::sequential()
        .lifetime_hint(t, 3, |_| false)
        .lifetime_hint(u, 10, |_| false);
    let mut eng = Engine::new(Arc::clone(&prog), config);
    assert_eq!(eng.run().unwrap().steps, 41);
    let ints = |table| {
        let mut v: Vec<i64> = eng
            .gamma()
            .collect(&Query::on(table))
            .iter()
            .map(|t| t.int(0))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ints(t), vec![39, 40], "T's hook last ran after step 39");
    assert_eq!(ints(u), vec![40], "U's hook last ran after step 40");
}

#[test]
fn lifetime_hints_trigger_quiescent_compaction() {
    // Parallel mode uses the reservation-table stores, whose `retain`
    // only tombstones. An aggressive hint + a low threshold must make
    // the maintain phase rebuild the store — and the rebuilt store must
    // answer queries identically.
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("i").orderby(&[seq("i")]));
    p.rule("advance", t, move |ctx, tr| {
        if tr.int(0) < 200 {
            ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) + 1)]));
        }
    });
    p.put(Tuple::new(t, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    let config = EngineConfig::parallel(2)
        .lifetime_hint(prog.table_id("T").unwrap(), 10, |t| t.int(0) >= 190);
    let mut eng = Engine::new(Arc::clone(&prog), config);
    eng.run().unwrap();
    let snap = eng.stats().tables[0].snapshot();
    assert!(
        snap.compactions > 0,
        "hint-heavy run must compact: {snap:?}"
    );
    let left = eng.gamma().collect(&Query::on(prog.table_id("T").unwrap()));
    assert!(left.iter().all(|t| t.int(0) >= 190));
    assert!(!left.is_empty());
}

#[test]
fn compaction_runs_only_above_half_tombstones() {
    // One 100-wide class fills T, then a hint drops the rows below
    // `cut`: 49 tombstones of 100 slots stay, 51 compact. Either way
    // the parallel engine keeps the sequential engine's rows.
    let run = |cut: i64, config: EngineConfig| {
        let mut p = ProgramBuilder::new();
        let t = p.table("T", |b| b.col_int("i").orderby(&[strat("Int")]));
        for i in 0..100 {
            p.put(Tuple::new(t, vec![Value::Int(i)]));
        }
        let prog = Arc::new(p.build().unwrap());
        let mut eng = Engine::new(
            Arc::clone(&prog),
            config.lifetime_hint(t, 1, move |r| r.int(0) >= cut),
        );
        eng.run().unwrap();
        let mut rows = eng.gamma().collect(&Query::on(t));
        rows.sort();
        (rows, eng.stats().tables[0].snapshot().compactions)
    };
    for (cut, compacts) in [(49, false), (51, true)] {
        let (want, _) = run(cut, EngineConfig::sequential());
        assert_eq!(want.len(), 100 - cut as usize);
        let (got, compactions) = run(cut, EngineConfig::parallel(2));
        assert_eq!(got, want, "cut {cut}");
        assert_eq!(
            compactions > 0,
            compacts,
            "cut {cut}: {compactions} compactions"
        );
    }
}

#[test]
fn stats_count_puts_and_triggers() {
    let prog = ship_program();
    let mut eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    eng.run().unwrap();
    let snap = eng.stats().tables[0].snapshot();
    assert_eq!(snap.puts, 4, "initial + 3 rule puts");
    assert_eq!(snap.gamma_fresh, 4);
    assert_eq!(snap.triggers, 4);
}
