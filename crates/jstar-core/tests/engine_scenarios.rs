//! Engine integration scenarios beyond the unit tests: the §4 example
//! rule shape, multi-stage pipelines, aggregate helpers, `par` keys and
//! mixed optimisation flags.

use jstar_core::prelude::*;
use std::sync::Arc;

/// The §4 example rule:
/// ```text
/// foreach (Trigger trig) {
///   if (Cond) { put Tuple1(args1) }
///   else { val q1 = get min Tuple1(queryArgs); put Tuple2(args2) }
/// }
/// ```
/// with its three proof obligations (two puts, one strict query).
#[test]
fn section4_example_rule_runs_and_proves() {
    let mut p = ProgramBuilder::new();
    let trigger = p.table("Trigger", |b| {
        b.col_int("t")
            .col_bool("cond")
            .orderby(&[seq("t"), strat("Trig")])
    });
    let tuple1 = p.table("Tuple1", |b| {
        b.col_int("t")
            .col_int("v")
            .orderby(&[seq("t"), strat("One")])
    });
    let tuple2 = p.table("Tuple2", |b| {
        b.col_int("t")
            .col_int("minv")
            .orderby(&[seq("t"), strat("Two")])
    });
    p.order(&["One", "Trig", "Two"]);

    // Causality model: obligation 1 (put Tuple1 under Cond), obligation 2
    // (put Tuple2 under !Cond), obligation 3 (the min-query's timestamp is
    // strictly before the trigger).
    let mut cx = ModelCtx::new();
    let put1 = PutModel {
        out_table: "Tuple1".into(),
        guard: vec![],
        bindings: cx.out("t").eq_(&(cx.trig("t") + 1)),
        label: "then-branch put".into(),
    };
    let put2 = PutModel {
        out_table: "Tuple2".into(),
        guard: vec![],
        bindings: cx.out("t").eq_(&cx.trig("t")),
        label: "else-branch put".into(),
    };
    let q1 = QueryModel {
        q_table: "Tuple1".into(),
        guard: vec![],
        bindings: vec![cx.q("t").lt(&cx.trig("t"))],
        label: "get min Tuple1".into(),
    };
    let model = CausalityModel {
        ctx: cx,
        invariants: vec![],
        puts: vec![put1, put2],
        queries: vec![q1],
    };

    p.rule_with_model("section4", trigger, model, move |ctx, trig| {
        let t = trig.int(0);
        if trig.bool(1) {
            ctx.put(Tuple::new(
                tuple1,
                vec![Value::Int(t + 1), Value::Int(t * 10)],
            ));
        } else {
            let minv = ctx.min_int(&Query::on(tuple1).lt(0, t), 1).unwrap_or(-1);
            ctx.put(Tuple::new(tuple2, vec![Value::Int(t), Value::Int(minv)]));
        }
    });

    // Triggers: cond=true at t=0,1; cond=false at t=5 — the min over
    // Tuple1 rows below t=5 must see both earlier puts.
    p.put(Tuple::new(trigger, vec![Value::Int(0), Value::Bool(true)]));
    p.put(Tuple::new(trigger, vec![Value::Int(1), Value::Bool(true)]));
    p.put(Tuple::new(trigger, vec![Value::Int(5), Value::Bool(false)]));

    let prog = Arc::new(p.build().unwrap());
    prog.validate_strict()
        .expect("all three obligations proved");

    for config in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
        let mut engine = Engine::new(Arc::clone(&prog), config);
        engine.run().unwrap();
        let t2 = engine.gamma().collect(&Query::on(tuple2));
        assert_eq!(t2.len(), 1);
        // min of {0*10, 1*10} = 0.
        assert_eq!(t2[0].int(1), 0);
    }
}

#[test]
fn aggregate_helpers_match_reducers() {
    let mut p = ProgramBuilder::new();
    let data = p.table("D", |b| {
        b.col_int("t").col_int("v").orderby(&[strat("D"), seq("t")])
    });
    let probe = p.table("P", |b| b.col_int("t").orderby(&[strat("P")]));
    p.order(&["D", "P"]);
    p.rule("probe", probe, move |ctx, _| {
        let q = Query::on(data);
        ctx.println(format!(
            "min={:?} max={:?} count={}",
            ctx.min_int(&q, 1),
            ctx.max_int(&q, 1),
            ctx.count(&q)
        ));
    });
    for (t, v) in [(0, 7), (1, -3), (2, 12)] {
        p.put(Tuple::new(data, vec![Value::Int(t), Value::Int(v)]));
    }
    p.put(Tuple::new(probe, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    let report = engine.run().unwrap();
    assert_eq!(report.output, vec!["min=Some(-3) max=Some(12) count=3"]);
}

#[test]
fn par_component_collapses_to_one_class() {
    // orderby (W, par id): all workers in one equivalence class.
    let mut p = ProgramBuilder::new();
    let w = p.table("W", |b| b.col_int("id").orderby(&[strat("W"), par("id")]));
    p.rule("noop", w, |_, _| {});
    for i in 0..32 {
        p.put(Tuple::new(w, vec![Value::Int(i)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::parallel(4).record_steps());
    let report = engine.run().unwrap();
    assert_eq!(report.steps, 1, "one wave");
    assert_eq!(
        engine
            .stats()
            .max_class
            .load(std::sync::atomic::Ordering::Relaxed),
        32
    );
}

#[test]
fn seq_component_orders_waves() {
    // orderby (W, seq round, par id): rounds are barriers, ids parallel.
    let mut p = ProgramBuilder::new();
    let w = p.table("W", |b| {
        b.col_int("round")
            .col_int("id")
            .orderby(&[strat("W"), seq("round"), par("id")])
    });
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    p.rule("log", w, move |_, t| {
        log2.lock().push((t.int(0), t.int(1)));
    });
    for round in 0..4 {
        for id in 0..8 {
            p.put(Tuple::new(w, vec![Value::Int(round), Value::Int(id)]));
        }
    }
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::parallel(4));
    let report = engine.run().unwrap();
    assert_eq!(report.steps, 4, "one step per round");
    let seen = log.lock();
    // Rounds must be monotone in execution order.
    let rounds: Vec<i64> = seen.iter().map(|&(r, _)| r).collect();
    assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "{rounds:?}");
    assert_eq!(seen.len(), 32);
}

#[test]
fn three_stage_pipeline_with_all_flags() {
    // Source -> Middle (noDelta) -> Sink (noGamma for Source), with hash
    // stores — every §5.1 flag at once on a multi-rule program.
    let mut p = ProgramBuilder::new();
    let src = p.table("Src", |b| b.col_int("i").orderby(&[strat("S")]));
    let mid = p.table("Mid", |b| b.col_int("i").orderby(&[strat("M")]));
    let sink = p.table("Sink", |b| b.col_int("i").orderby(&[strat("K")]));
    p.order(&["S", "M", "K"]);
    p.rule("a", src, move |ctx, t| {
        ctx.put(Tuple::new(mid, vec![Value::Int(t.int(0) * 2)]));
    });
    p.rule("b", mid, move |ctx, t| {
        ctx.put(Tuple::new(sink, vec![Value::Int(t.int(0) + 1)]));
    });
    for i in 0..20 {
        p.put(Tuple::new(src, vec![Value::Int(i)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let config = EngineConfig::parallel(4).no_delta(mid).no_gamma(src).store(
        sink,
        StoreKind::Hash {
            index_fields: vec!["i".into()],
            shards: 4,
        },
    );
    let mut engine = Engine::new(Arc::clone(&prog), config);
    engine.run().unwrap();
    let mut got: Vec<i64> = engine
        .gamma()
        .collect(&Query::on(sink))
        .iter()
        .map(|t| t.int(0))
        .collect();
    got.sort();
    let want: Vec<i64> = (0..20).map(|i| i * 2 + 1).collect();
    assert_eq!(got, want);
}

#[test]
fn no_delta_chain_fires_transitively_inline() {
    // A -> B -> C with both B and C noDelta: the whole chain runs inside
    // the A step.
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("i").orderby(&[strat("A")]));
    let bt = p.table("B", |b| b.col_int("i").orderby(&[strat("B")]));
    let ct = p.table("C", |b| b.col_int("i").orderby(&[strat("C")]));
    p.order(&["A", "B", "C"]);
    p.rule("ab", a, move |ctx, t| {
        ctx.put(Tuple::new(bt, vec![t.get(0).clone()]));
    });
    p.rule("bc", bt, move |ctx, t| {
        ctx.put(Tuple::new(ct, vec![t.get(0).clone()]));
    });
    p.put(Tuple::new(a, vec![Value::Int(1)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(
        Arc::clone(&prog),
        EngineConfig::sequential().no_delta(bt).no_delta(ct),
    );
    let report = engine.run().unwrap();
    assert_eq!(report.steps, 1, "B and C processed inline within A's step");
    assert_eq!(engine.gamma().collect(&Query::on(ct)).len(), 1);
}

#[test]
fn rule_internal_parallel_loops_match_sequential() {
    // §5.2: parallel iteration/reduction inside a rule body must produce
    // the same answers as the sequential forms.
    let mut p = ProgramBuilder::new();
    let data = p.table("D", |b| {
        b.col_int("i").col_int("v").orderby(&[strat("D"), seq("i")])
    });
    let go = p.table("Go", |b| b.col_int("x").orderby(&[strat("Go")]));
    p.order(&["D", "Go"]);
    p.rule("aggregate", go, move |ctx, _| {
        let q = Query::on(data);
        let seq_stats = ctx.reduce(&q, &Statistics { field: 1 });
        let par_stats = ctx.reduce_parallel(&q, &Statistics { field: 1 });
        assert_eq!(seq_stats.count, par_stats.count);
        assert_eq!(seq_stats.sum, par_stats.sum);
        let seen = std::sync::atomic::AtomicU64::new(0);
        ctx.par_for_each_match(&q, |t| {
            seen.fetch_add(t.int(1) as u64, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(
            seen.load(std::sync::atomic::Ordering::Relaxed) as f64,
            seq_stats.sum
        );
        ctx.println(format!("sum {}", seq_stats.sum));
    });
    for i in 0..500 {
        p.put(Tuple::new(data, vec![Value::Int(i), Value::Int(i % 97)]));
    }
    p.put(Tuple::new(go, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
        let mut engine = Engine::new(Arc::clone(&prog), config);
        let report = engine.run().unwrap();
        assert_eq!(report.output.len(), 1);
    }
}

#[test]
fn errors_from_parallel_workers_abort_the_run() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("i").orderby(&[strat("T"), par("i")]));
    p.rule("fail-some", t, |ctx, tr| {
        if tr.int(0) == 13 {
            ctx.fail("unlucky tuple");
        }
    });
    for i in 0..64 {
        p.put(Tuple::new(t, vec![Value::Int(i)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let err = Engine::new(prog, EngineConfig::parallel(4))
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("unlucky"));
}

jstar_core::jstar_table! {
    /// Left side of the read-side fold join.
    #[derive(Copy, Eq, PartialOrd, Ord)]
    pub Emp(int id, int dept, int site) orderby (Emp)
}

jstar_core::jstar_table! {
    /// Right side of the read-side fold join.
    #[derive(Copy, Eq, PartialOrd, Ord)]
    pub Desk(int dept, int site, int no) orderby (Desk)
}

/// `join_fold` splits `A`'s distinct keys into pieces: collecting every
/// row and sorting shows that no row is dropped or duplicated at a
/// piece boundary — also when the root has fewer distinct keys than the
/// pool would cut pieces (`depts` = 1, 3) or none at all — and that the
/// fold, the `FnMut` form and two nested loops agree on every pool.
#[test]
fn join_fold_matches_join_rel_and_nested_loops_at_piece_boundaries() {
    for depts in [0i64, 1, 3, 40] {
        let mut p = ProgramBuilder::new();
        p.relation::<Emp>();
        p.relation::<Desk>();
        p.order(&["Emp", "Desk"]);
        let (mut emps, mut desks) = (Vec::new(), Vec::new());
        for d in 0..depts {
            // Departments 1 mod 5 have no desk, 2 mod 5 no employee.
            for i in 0..(d % 5 != 2) as i64 * (1 + d % 3) {
                emps.push(Emp {
                    id: d * 10 + i,
                    dept: d,
                    site: i % 2,
                });
            }
            for no in 0..(d % 5 != 1) as i64 * (1 + d % 4) {
                desks.push(Desk {
                    dept: d,
                    site: no % 2,
                    no,
                });
            }
        }
        emps.iter().for_each(|&e| p.put_rel(e));
        desks.iter().for_each(|&d| p.put_rel(d));
        let program = Arc::new(p.build().unwrap());

        let mut want: Vec<(Emp, Desk)> = Vec::new();
        for e in &emps {
            for d in &desks {
                if e.dept == d.dept && e.site == d.site {
                    want.push((*e, *d));
                }
            }
        }
        want.sort();

        let on = || {
            join::<Emp, Desk>()
                .on(Emp::dept, Desk::dept)
                .on(Emp::site, Desk::site)
        };
        for config in [
            EngineConfig::sequential(),
            EngineConfig::parallel(2),
            EngineConfig::parallel(4),
        ] {
            let threads = config.threads;
            let mut engine = Engine::new(Arc::clone(&program), config);
            engine.run().unwrap();
            let mut folded = engine.join_fold(
                on(),
                Vec::new,
                |rows, e, d| rows.push((e, d)),
                |mut left, right| {
                    left.extend(right);
                    left
                },
            );
            folded.sort();
            assert_eq!(folded, want, "fold, depts={depts} threads={threads}");
            let mut walked = Vec::new();
            engine.join_rel(on(), |e, d| walked.push((e, d)));
            walked.sort();
            assert_eq!(walked, want, "FnMut form, depts={depts} threads={threads}");
        }
    }
}
