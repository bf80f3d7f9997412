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

jstar_core::jstar_table! {
    /// A join trigger that `seq round` cuts into one class a round.
    #[derive(Copy, Eq)]
    pub Wave(int round, int id) orderby (Int, seq round, Wave)
}

jstar_core::jstar_table! {
    /// The join's probe table, grown between the trigger's rounds.
    #[derive(Copy, Eq)]
    pub Lit(int id, int round) orderby (Int, seq round, Lit)
}

jstar_core::jstar_table! {
    /// What the wave join emits.
    #[derive(Copy, Eq)]
    pub Hit(int round, int id) orderby (Hit)
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

    // Waves of a join rule over a probe table that grows between them:
    // 40 `Lit` rows, a 40-wide wave, 40 more rows, an 80-wide wave, then
    // a 32-wide wave with nothing new. Each wave is one walked class
    // and opens the `Lit.id` view once, and every open builds it — a
    // miss that sorts every live row, 40, then 80, and 80 again for the
    // unchanged table.
    let mut p = ProgramBuilder::new();
    p.relation::<Wave>();
    p.relation::<Lit>();
    p.relation::<Hit>();
    p.order(&["Lit", "Wave"]);
    p.order(&["Int", "Hit"]);
    p.rule_rel_join(
        "wave",
        join::<Wave, Lit>().on(Wave::id, Lit::id),
        |ctx, (w, l)| {
            ctx.put_rel(Hit {
                round: w.round,
                id: l.id,
            })
        },
    );
    for (round, lits) in [(0, 0..40), (2, 40..80)] {
        lits.for_each(|id| p.put_rel(Lit { id, round }));
    }
    for (round, width) in [(1, 40), (3, 80), (4, 32)] {
        (0..width).for_each(|id| p.put_rel(Wave { round, id }));
    }
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let threads = config.threads;
        let mut engine = Engine::new(Arc::clone(&prog), config);
        let r = engine.run().unwrap();
        assert_eq!(engine.collect_rel(Hit::query()).len(), 40 + 80 + 32);
        assert_eq!((r.delta_join_classes, r.join_cursor_opens), (3, 3));
        let cache = (r.index_cache_misses, r.index_cache_hits);
        assert_eq!(cache, (3, 0), "{threads} threads: every open builds");
        // `Hit` triggers no rule: it is write-once, and the end of the
        // run seals its 152 rows — sorted work the counter owns too.
        assert_eq!(
            r.index_build_tuples,
            40 + 80 + 80 + 152,
            "{threads} threads"
        );
        assert_eq!(r.index_catchup_tuples, 0);
    }
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
        assert_eq!(seq_stats.min, par_stats.min);
        assert_eq!(seq_stats.max, par_stats.max);
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
    // One thread runs the chunk tasks inline on the rule's thread; more
    // threads share them out.
    for config in [
        EngineConfig::sequential(),
        EngineConfig::parallel(1),
        EngineConfig::parallel(2),
        EngineConfig::parallel(4),
    ] {
        let mut engine = Engine::new(Arc::clone(&prog), config);
        let report = engine.run().unwrap();
        assert_eq!(report.output, vec!["sum 23385".to_string()]);
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
                |rows, row| rows.push(row),
                |mut left, right| {
                    left.extend(right);
                    left
                },
            );
            folded.sort();
            assert_eq!(folded, want, "fold, depts={depts} threads={threads}");
            let mut walked = Vec::new();
            engine.join_rel(on(), |row| walked.push(row));
            walked.sort();
            assert_eq!(walked, want, "FnMut form, depts={depts} threads={threads}");
        }
    }
}

jstar_core::jstar_table! {
    /// A named arc for the read-side inequality joins: `int` and
    /// `String` columns, both totally ordered.
    #[derive(Eq, PartialOrd, Ord)]
    pub Hop(int from, int to, String name) orderby (Hop)
}

/// Every read-side inequality builder — `Join::lt`, and `Join3`'s root
/// check `lt_a` and its `lt_ab`, `lt_ac`, `lt_bc` — keeps exactly the
/// rows two or three nested loops keep with the same comparisons in
/// their bodies, on `int` and on `String` fields, in the fold and the
/// `FnMut` forms, sequentially and on a pool.
#[test]
fn read_side_inequalities_match_nested_loops() {
    let mut p = ProgramBuilder::new();
    p.relation::<Hop>();
    let mut hops = Vec::new();
    for from in 0..14i64 {
        for k in 0..4 {
            let to = (from * 5 + k * 3 + 1) % 14;
            let name: std::sync::Arc<str> = format!("h{}", (from * 3 + to) % 5).into();
            hops.push(Hop { from, to, name });
        }
    }
    hops.sort();
    hops.dedup();
    hops.iter().for_each(|h| p.put_rel(h.clone()));
    let program = Arc::new(p.build().unwrap());

    let mut want2 = Vec::new();
    for a in &hops {
        for b in &hops {
            if a.from == b.from && a.to < b.to && a.name < b.name {
                want2.push((a.clone(), b.clone()));
            }
        }
    }
    want2.sort();
    let mut want3 = Vec::new();
    for a in hops.iter().filter(|a| a.from < a.to) {
        for b in &hops {
            if a.to != b.from || a.name >= b.name {
                continue;
            }
            for c in &hops {
                if b.to == c.from && a.from < c.to && b.from < c.to {
                    want3.push((a.clone(), b.clone(), c.clone()));
                }
            }
        }
    }
    want3.sort();
    assert!(
        want2.len() > 10 && want3.len() > 10,
        "the fixture must have rows to find"
    );

    let two = || {
        join::<Hop, Hop>()
            .on(Hop::from, Hop::from)
            .lt(Hop::to, Hop::to)
            .lt(Hop::name, Hop::name)
    };
    let three = || {
        join3::<Hop, Hop, Hop>()
            .on_ab(Hop::to, Hop::from)
            .on_bc(Hop::to, Hop::from)
            .lt_a(Hop::from, Hop::to)
            .lt_ab(Hop::name, Hop::name)
            .lt_ac(Hop::from, Hop::to)
            .lt_bc(Hop::from, Hop::to)
    };
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let threads = config.threads;
        let mut engine = Engine::new(Arc::clone(&program), config);
        engine.run().unwrap();
        let mut got2 = Vec::new();
        engine.join_rel(two(), |row| got2.push(row));
        got2.sort();
        assert_eq!(got2, want2, "join, {threads} threads");
        let mut got3 = engine.join_fold(
            three(),
            Vec::new,
            |rows, row| rows.push(row),
            |mut left, right| {
                left.extend(right);
                left
            },
        );
        got3.sort();
        assert_eq!(got3, want3, "join3 fold, {threads} threads");
        let mut walked = Vec::new();
        engine.join_rel(three(), |row| walked.push(row));
        walked.sort();
        assert_eq!(walked, want3, "join3, {threads} threads");
    }
}

// ── `-noDelta` staging and the inbox's run-length combining ─────────────

/// `Src(n)` puts `A(0..n)` (plus one repeat of `A(0)`), `-noDelta` `A`'s
/// rule puts `-noDelta` `B`, whose rule puts Delta-table `C`.
fn cascade_program(n: i64) -> (Arc<Program>, [TableId; 4]) {
    let mut p = ProgramBuilder::new();
    let src = p.table("Src", |b| b.col_int("n").orderby(&[strat("S")]));
    let a = p.table("A", |b| b.col_int("i").orderby(&[strat("A")]));
    let bt = p.table("B", |b| b.col_int("i").orderby(&[strat("B")]));
    let ct = p.table("C", |b| b.col_int("i").orderby(&[strat("C")]));
    p.order(&["S", "A", "B", "C"]);
    p.rule("fan", src, move |ctx, t| {
        for i in 0..t.int(0) {
            ctx.put(Tuple::new(a, vec![Value::Int(i)]));
        }
        if t.int(0) > 0 {
            ctx.put(Tuple::new(a, vec![Value::Int(0)]));
        }
    });
    p.rule("ab", a, move |ctx, t| {
        ctx.put(Tuple::new(bt, vec![Value::Int(t.int(0) * 3)]));
    });
    p.rule("bc", bt, move |ctx, t| {
        ctx.put(Tuple::new(ct, vec![Value::Int(t.int(0) % 50)]));
    });
    p.put(Tuple::new(src, vec![Value::Int(n)]));
    (Arc::new(p.build().unwrap()), [src, a, bt, ct])
}

/// Scenario (a): one firing putting 0, 1, 255, 256, 257 and 1,000 staged
/// tuples — below, at and above the flush size, and several flushes —
/// gives the same database and the same per-table counters on every
/// engine, with the whole cascade inside the `Src` step.
#[test]
fn staged_no_delta_cascade_counts_the_same_on_every_engine() {
    for n in [0i64, 1, 255, 256, 257, 1000] {
        let (prog, tables) = cascade_program(n);
        let [_, a, bt, _] = tables;
        let run = |config: EngineConfig| {
            let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(a).no_delta(bt));
            let report = engine.run().unwrap();
            let stats: Vec<_> = tables
                .iter()
                .map(|t| engine.stats().tables[t.index()].snapshot())
                .collect();
            (engine.content_hash(), stats, report.steps)
        };
        let (want_hash, want_stats, want_steps) = run(EngineConfig::sequential());
        let (src_s, a_s, b_s, c_s) = (want_stats[0], want_stats[1], want_stats[2], want_stats[3]);
        let n = n as u64;
        assert_eq!((src_s.puts, src_s.triggers), (1, 1));
        assert_eq!(a_s.puts, if n > 0 { n + 1 } else { 0 });
        assert_eq!((a_s.gamma_fresh, a_s.gamma_dups), (n, u64::from(n > 0)));
        assert_eq!((a_s.triggers, a_s.delta_inserts), (n, 0));
        assert_eq!((b_s.puts, b_s.gamma_fresh, b_s.triggers), (n, n, n));
        assert_eq!((c_s.puts, c_s.gamma_fresh), (n, n.min(50)));
        assert_eq!(c_s.delta_inserts, n.min(50), "C alone goes through Delta");
        assert_eq!(want_steps, if n > 0 { 2 } else { 1 }, "Src, then C");
        for threads in [2, 4] {
            let (hash, stats, steps) = run(EngineConfig::parallel(threads));
            assert_eq!(hash, want_hash, "n={n} threads={threads}");
            assert_eq!(stats, want_stats, "n={n} threads={threads}");
            assert_eq!(steps, want_steps);
        }
    }
}

/// Scenario (a), depth: a 100,000-long chain of `-noDelta` puts, each
/// made by the rule the previous one fired, runs in constant stack — the
/// flush loops instead of recursing (one stack frame set per link would
/// overflow the test thread's stack many times over).
#[test]
fn a_long_no_delta_chain_does_not_grow_the_stack() {
    const LINKS: i64 = 100_000;
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("i").orderby(&[strat("A")]));
    p.rule("next", a, move |ctx, t| {
        if t.int(0) < LINKS {
            ctx.put(Tuple::new(a, vec![Value::Int(t.int(0) + 1)]));
        }
    });
    p.put(Tuple::new(a, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(a));
        let report = engine.run().unwrap();
        assert_eq!(report.steps, 0, "nothing ever reaches the Delta set");
        let stats = engine.stats().tables[a.index()].snapshot();
        assert_eq!(stats.gamma_fresh, LINKS as u64 + 1);
        assert_eq!(stats.triggers, LINKS as u64 + 1);
    }
}

/// Scenario (a), reads: a rule reads back each `-noDelta` put it made in
/// the same firing — its query flushes the slot its thread staged into
/// — whether the firing runs on the coordinator or on a worker, and on
/// either side of the slot's flush size.
#[test]
fn a_rule_sees_its_own_no_delta_puts() {
    const PUTS: i64 = 300;
    let mut p = ProgramBuilder::new();
    let go = p.table("Go", |b| b.col_int("x").orderby(&[strat("Go")]));
    let m = p.table("M", |b| b.col_int("i").orderby(&[strat("M")]));
    p.order(&["Go", "M"]);
    p.rule("put-then-read", go, move |ctx, t| {
        for i in 0..PUTS {
            let v = t.int(0) * PUTS + i;
            ctx.put(Tuple::new(m, vec![Value::Int(v)]));
            if !ctx.exists(&Query::on(m).eq(0, v)) {
                ctx.fail(format!("put {v} not seen by the rule that made it"));
            }
        }
    });
    for x in 0..16 {
        p.put(Tuple::new(go, vec![Value::Int(x)]));
    }
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        // `M` triggers no rule, so by default it would be write-once, and
        // read only once the run has passed its stratum — this rule reads
        // it in the `Go` stratum that fills it. A store of its own keeps
        // `M` a hash store, whose reads see each put as it is flushed.
        let config = config.no_delta(m).store(m, StoreKind::ConcurrentOrdered);
        let mut engine = Engine::new(Arc::clone(&prog), config);
        engine.run().unwrap();
        let stats = engine.stats().tables[m.index()].snapshot();
        assert_eq!(stats.gamma_fresh, 16 * PUTS as u64);
    }
}

/// Scenario (b): `-noDelta` puts made inside `par_for_each_match` are
/// staged on whichever helper thread ran the closure; those threads are
/// not inside a chunk of the class, so it is the coordinator's flush
/// after the step that inserts them and fires their rules — before the
/// next class (`Check`) is extracted. On a one-thread pool the closure
/// runs inline on the rule's own thread, and the puts must land just as
/// early.
#[test]
fn helper_thread_no_delta_puts_land_before_the_next_step() {
    let mut p = ProgramBuilder::new();
    let data = p.table("D", |b| b.col_int("i").orderby(&[strat("D")]));
    let go = p.table("Go", |b| b.col_int("x").orderby(&[strat("Go")]));
    let m = p.table("M", |b| b.col_int("i").orderby(&[strat("M")]));
    let n = p.table("N", |b| b.col_int("i").orderby(&[strat("N")]));
    let check = p.table("Check", |b| b.col_int("x").orderby(&[strat("Z")]));
    p.order(&["D", "Go", "M", "N", "Z"]);
    p.rule("spread", go, move |ctx, _| {
        ctx.par_for_each_match(&Query::on(data), |t| {
            ctx.put(Tuple::new(m, vec![t.get(0).clone()]));
        });
        ctx.put(Tuple::new(check, vec![Value::Int(0)]));
    });
    p.rule("mn", m, move |ctx, t| {
        ctx.put(Tuple::new(n, vec![t.get(0).clone()]));
    });
    p.rule("check", check, move |ctx, _| {
        let (ms, ns) = (ctx.count(&Query::on(m)), ctx.count(&Query::on(n)));
        ctx.println(format!("{ms} {ns}"));
    });
    for i in 0..700 {
        p.put(Tuple::new(data, vec![Value::Int(i)]));
    }
    p.put(Tuple::new(go, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    for config in [
        EngineConfig::sequential(),
        EngineConfig::parallel(1),
        EngineConfig::parallel(2),
        EngineConfig::parallel(4),
    ] {
        let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(m).no_delta(n));
        let report = engine.run().unwrap();
        assert_eq!(report.output, vec!["700 700".to_string()]);
    }
}

/// Scenario (c): the staging shard drops a put equal to the one it staged
/// immediately before; anything else is left to the merge, which dedups
/// as it always did; and the shard remembers nothing across steps.
#[test]
fn equal_consecutive_puts_are_combined_and_counted_as_before() {
    const N: i64 = 300;
    let mut p = ProgramBuilder::new();
    let src = p.table("Src", |b| b.col_int("i").orderby(&[strat("S")]));
    let runs = p.table("Runs", |b| b.col_int("v").orderby(&[strat("R")]));
    let mixed = p.table("Mixed", |b| b.col_int("v").orderby(&[strat("X")]));
    p.order(&["S", "R", "X"]);
    p.rule("emit", src, move |ctx, _| {
        for _ in 0..N {
            ctx.put(Tuple::new(runs, vec![Value::Int(7)]));
        }
        for v in [1, 2, 1, 2] {
            ctx.put(Tuple::new(mixed, vec![Value::Int(v)]));
        }
    });
    p.put(Tuple::new(src, vec![Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let mut engine = Engine::new(Arc::clone(&prog), config);
        engine.run().unwrap();
        let r = engine.stats().tables[runs.index()].snapshot();
        assert_eq!((r.puts, r.delta_inserts, r.gamma_fresh), (N as u64, 1, 1));
        let x = engine.stats().tables[mixed.index()].snapshot();
        assert_eq!((x.puts, x.delta_inserts, x.gamma_fresh), (4, 2, 2));
    }
}

/// Scenario (c), epochs: a `-noGamma` tuple put again in a later step is
/// an event again. `Ping(5)` fires, `Pong(5)` (same order key, stored)
/// answers by putting `Ping(5)` a second time; the second `Ping` fires
/// too, and only `Pong`'s Gamma dedup ends the exchange. A combiner that
/// remembered the first `Ping` across the epoch swap would swallow the
/// second.
#[test]
fn a_no_gamma_tuple_put_in_two_steps_triggers_twice() {
    let mut p = ProgramBuilder::new();
    let ping = p.table("Ping", |b| b.col_int("t").orderby(&[seq("t"), strat("P")]));
    let pong = p.table("Pong", |b| b.col_int("t").orderby(&[seq("t"), strat("P")]));
    p.rule("ping", ping, move |ctx, t| {
        ctx.println("ping");
        ctx.put(Tuple::new(pong, vec![t.get(0).clone()]));
    });
    p.rule("pong", pong, move |ctx, t| {
        ctx.put(Tuple::new(ping, vec![t.get(0).clone()]));
    });
    p.put(Tuple::new(ping, vec![Value::Int(5)]));
    let prog = Arc::new(p.build().unwrap());
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let mut engine = Engine::new(Arc::clone(&prog), config.no_gamma(ping));
        let report = engine.run().unwrap();
        assert_eq!(report.output, vec!["ping".to_string(); 2]);
        assert_eq!(report.steps, 4, "Ping, Pong, Ping, Pong (a duplicate)");
        let s = engine.stats().tables[ping.index()].snapshot();
        assert_eq!((s.puts, s.delta_inserts, s.triggers), (2, 2, 2));
    }
}

/// Scenario (e): a staged put is still checked at the put, so a causality
/// violation or a type error fails the run under the putting rule's name
/// (the type error names the offending column).
#[test]
fn staged_puts_are_checked_at_the_put() {
    let build = |bad: Tuple, early: &'static str, late: &'static str| {
        let mut p = ProgramBuilder::new();
        let early = p.table("Early", |b| b.col_int("i").orderby(&[strat(early)]));
        let late = p.table("Late", |b| b.col_int("i").orderby(&[strat(late)]));
        p.order(&["First", "Second"]);
        p.rule("backwards", late, move |ctx, _| ctx.put(bad.clone()));
        p.put(Tuple::new(late, vec![Value::Int(0)]));
        (Arc::new(p.build().unwrap()), early)
    };
    for parallel in [false, true] {
        let config = || match parallel {
            true => EngineConfig::parallel(2),
            false => EngineConfig::sequential(),
        };
        // Early orders before its trigger Late: a causality violation.
        let (prog, early) = build(
            Tuple::new(TableId(0), vec![Value::Int(1)]),
            "First",
            "Second",
        );
        let err = Engine::new(prog, config().no_delta(early))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, JStarError::CausalityViolation { rule, .. } if rule == "backwards"),
            "{err}"
        );
        // Right order, wrong column type.
        let (prog, early) = build(
            Tuple::new(TableId(0), vec![Value::str("one".to_string())]),
            "Second",
            "First",
        );
        let err = Engine::new(prog, config().no_delta(early))
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, JStarError::Type(msg) if msg.contains("Early")),
            "{err}"
        );
    }
}

// ── A rule that panics, and the pool it ran on ──────────────────────────

/// The tuple numbered 13 is the one a panicking rule panics on.
const UNLUCKY: i64 = 13;

/// One 64-wide `par` class whose rule puts `Out(i)`: forked on a pool.
/// Its rule panics on the unlucky tuple when `panics`.
fn forked_class_program(panics: bool) -> (Arc<Program>, Option<TableId>) {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("i").orderby(&[strat("T"), par("i")]));
    let out = p.table("Out", |b| b.col_int("i").orderby(&[strat("Out")]));
    p.order(&["T", "Out"]);
    p.rule("fork", t, move |ctx, tr| {
        assert!(!(panics && tr.int(0) == UNLUCKY), "a rule panicked");
        ctx.put(Tuple::new(out, vec![Value::Int(tr.int(0))]));
    });
    (0..64).for_each(|i| p.put(Tuple::new(t, vec![Value::Int(i)])));
    (Arc::new(p.build().unwrap()), None)
}

/// A 4-wide `par` class of `Src(k)`, each putting 250 `-noDelta` `A`
/// rows; `A`'s rule, fired as a staging slot flushes, panics on the
/// unlucky tuple when `panics`.
fn no_delta_flush_program(panics: bool) -> (Arc<Program>, Option<TableId>) {
    let mut p = ProgramBuilder::new();
    let src = p.table("Src", |b| b.col_int("k").orderby(&[strat("S"), par("k")]));
    let a = p.table("A", |b| b.col_int("i").orderby(&[strat("A")]));
    let bt = p.table("B", |b| b.col_int("i").orderby(&[strat("B")]));
    p.order(&["S", "A", "B"]);
    p.rule("fan", src, move |ctx, t| {
        let k = t.int(0);
        (k * 250..(k + 1) * 250).for_each(|i| ctx.put(Tuple::new(a, vec![Value::Int(i)])));
    });
    p.rule("flush", a, move |ctx, t| {
        assert!(!(panics && t.int(0) == UNLUCKY), "a rule panicked");
        ctx.put(Tuple::new(bt, vec![Value::Int(t.int(0) * 3)]));
    });
    (0..4).for_each(|k| p.put(Tuple::new(src, vec![Value::Int(k)])));
    (Arc::new(p.build().unwrap()), Some(a))
}

/// A 40-wide `Wave` class joined with 40 `Lit` rows; the join rule's
/// emit panics on the unlucky row when `panics`.
fn join_walk_program(panics: bool) -> (Arc<Program>, Option<TableId>) {
    let mut p = ProgramBuilder::new();
    p.relation::<Wave>();
    p.relation::<Lit>();
    p.relation::<Hit>();
    p.order(&["Lit", "Wave"]);
    p.order(&["Int", "Hit"]);
    p.rule_rel_join(
        "walk",
        join::<Wave, Lit>().on(Wave::id, Lit::id),
        move |ctx, (w, l)| {
            assert!(!(panics && w.id == UNLUCKY), "a rule panicked");
            ctx.put_rel(Hit {
                round: w.round,
                id: l.id,
            })
        },
    );
    (0..40).for_each(|id| p.put_rel(Lit { id, round: 0 }));
    (0..40).for_each(|id| p.put_rel(Wave { round: 1, id }));
    (Arc::new(p.build().unwrap()), None)
}

/// A rule panicking in a forked class, in a `-noDelta` flush or in a
/// join rule's walk unwinds out of `Engine::run` at 1, 2 and 4 threads,
/// and leaves the pool it ran on usable: a second engine sharing that
/// pool (through `EngineConfig::pool`) runs the same program without
/// the panic to the sequential engine's content, within a minute.
#[test]
fn a_shared_pool_runs_the_next_program_after_a_rule_panics() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;
    type Build = fn(bool) -> (Arc<Program>, Option<TableId>);
    let scenarios: [(&str, Build); 3] = [
        ("forked class", forked_class_program),
        ("-noDelta flush", no_delta_flush_program),
        ("join walk", join_walk_program),
    ];
    for (name, build) in scenarios {
        let (prog, no_delta) = build(false);
        let flags = move |c: EngineConfig| match no_delta {
            Some(t) => c.no_delta(t),
            None => c,
        };
        let mut sequential = Engine::new(Arc::clone(&prog), flags(EngineConfig::sequential()));
        sequential.run().unwrap();
        let want = sequential.content_hash();
        for threads in [1, 2, 4] {
            let pool = Arc::new(jstar_pool::ThreadPool::new(threads));
            let shared = |pool: &Arc<jstar_pool::ThreadPool>| EngineConfig {
                pool: Some(Arc::clone(pool)),
                ..flags(EngineConfig::parallel(threads))
            };
            let mut engine = Engine::new(build(true).0, shared(&pool));
            let run = catch_unwind(AssertUnwindSafe(|| engine.run()));
            assert!(
                run.is_err(),
                "{name} at {threads} threads: the panic unwinds"
            );
            drop(engine);

            // On its own thread, so that a hang fails the test instead
            // of stalling the suite.
            let (done, finished) = mpsc::channel();
            let (prog, config) = (Arc::clone(&prog), shared(&pool));
            let next = std::thread::spawn(move || {
                let mut engine = Engine::new(prog, config);
                let run = engine.run().map(|_| engine.content_hash());
                let _ = done.send(run.map_err(|e| e.to_string()));
            });
            let hash = finished.recv_timeout(Duration::from_secs(60));
            let hash = hash.unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            assert_eq!(hash, Ok(want), "{name} at {threads} threads");
            assert!(next.join().is_ok());
        }
    }
}
