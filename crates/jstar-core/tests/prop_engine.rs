//! Determinism property tests for the engine's sharded hot path.
//!
//! The engine rewrite (sharded staging inbox, bulk drain, borrowed
//! trigger keys, adaptive scheduling) must not be observable in results:
//! for random rule programs, the parallel engine's final Gamma contents
//! must equal the sequential engine's, whatever the thread count, chunk
//! decisions, or shard interleavings. This is the paper's core promise —
//! "parallel execution is deterministic" (§4–5) — restated as a property.

use jstar_core::gamma::{HashStore, StoreFactory};
use jstar_core::jstar_table;
use jstar_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// Probe-side dimension table for the join-program generator.
    #[derive(Copy, Eq)]
    pub Dim(int k, int w) orderby (Dim)
}

jstar_table! {
    /// Trigger of the first join stage; one wide equivalence class.
    #[derive(Copy, Eq)]
    pub Src(int k, int v) orderby (Src)
}

jstar_table! {
    /// Output of stage 1, trigger of stage 2.
    #[derive(Copy, Eq)]
    pub Mid(int k2, int s) orderby (Mid)
}

jstar_table! {
    /// Stage-2 probe table of the asymmetric two-stage join.
    #[derive(Copy, Eq)]
    pub Wt(int k, int w) orderby (Wt)
}

jstar_table! {
    /// Final join output.
    #[derive(Copy, Eq)]
    pub Out(int a, int b) orderby (Out)
}

/// A randomly shaped layered rule program:
///
/// * `layers` tables `T0 < T1 < ... < T{layers-1}` (strat-ordered), each
///   with a `seq t` time column and a value column;
/// * per layer, a rule that maps each `(t, v)` tuple of layer `i` to
///   `fanout` tuples of layer `i + 1` with value `(v * mul + add) % modp`
///   and time `t + dt` — dt ≥ 0 keeps the program causal;
/// * a same-layer advance rule on layer 0 bounded by `horizon`, so one
///   table also feeds itself through the Delta set;
/// * `seeds` initial tuples at layer 0.
///
/// Duplicate tuples arise naturally from the modulus, exercising the
/// set-semantics dedup paths in both the inbox drain and Gamma.
#[allow(clippy::too_many_arguments)]
fn build_program(
    layers: usize,
    fanout: i64,
    mul: i64,
    add: i64,
    modp: i64,
    dt: i64,
    horizon: i64,
    seeds: i64,
) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let names: Vec<String> = (0..layers).map(|i| format!("T{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let ids: Vec<TableId> = names
        .iter()
        .map(|n| {
            p.table(n, |b| {
                b.col_int("t").col_int("v").orderby(&[strat(n), seq("t")])
            })
        })
        .collect();
    p.order(&name_refs);

    for i in 0..layers.saturating_sub(1) {
        let next = ids[i + 1];
        p.rule(&format!("fan{i}"), ids[i], move |ctx, tr| {
            for k in 0..fanout {
                let v = (tr.int(1) * mul + add + k).rem_euclid(modp);
                ctx.put(Tuple::new(
                    next,
                    vec![Value::Int(tr.int(0) + dt), Value::Int(v)],
                ));
            }
        });
    }
    let t0 = ids[0];
    p.rule("advance", t0, move |ctx, tr| {
        if tr.int(0) < horizon {
            ctx.put(Tuple::new(
                t0,
                vec![
                    Value::Int(tr.int(0) + 1),
                    Value::Int((tr.int(1) + 1) % modp),
                ],
            ));
        }
    });
    for s in 0..seeds {
        p.put(Tuple::new(t0, vec![Value::Int(0), Value::Int(s % modp)]));
    }
    Arc::new(p.build().unwrap())
}

/// A fig12 (Dijkstra)-shaped relaxation program on a deterministic
/// pseudo-random graph: `Estimate(vertex, distance)` self-feeds through
/// the Delta tree (which acts as the priority queue, ordered by
/// distance) and finalises into keyed `Done(vertex -> distance)`
/// tuples. Edges are a pure function of `(vertex, j)`, so every engine
/// configuration explores the same graph.
fn relaxation_program(n: i64, degree: i64, weight_mod: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let estimate = p.table("Estimate", |b| {
        b.col_int("vertex").col_int("distance").orderby(&[
            strat("Int"),
            seq("distance"),
            strat("Estimate"),
        ])
    });
    let done = p.table("Done", |b| {
        b.col_int("vertex").col_int("distance").key(1).orderby(&[
            strat("Int"),
            seq("distance"),
            strat("Done"),
        ])
    });
    p.order(&["Estimate", "Done"]);
    p.rule("relax", estimate, move |ctx, tr| {
        let (v, d) = (tr.int(0), tr.int(1));
        if ctx.none(&Query::on(done).eq(0, v).le(1, d)) {
            ctx.put(Tuple::new(done, vec![Value::Int(v), Value::Int(d)]));
            for j in 0..degree {
                let to = (v * 7919 + j * 104_729 + 13).rem_euclid(n);
                let w = 1 + (v + j * 31).rem_euclid(weight_mod);
                if ctx.none(&Query::on(done).eq(0, to)) {
                    ctx.put(Tuple::new(
                        estimate,
                        vec![Value::Int(to), Value::Int(d + w)],
                    ));
                }
            }
        }
    });
    p.put(Tuple::new(estimate, vec![Value::Int(0), Value::Int(0)]));
    Arc::new(p.build().unwrap())
}

/// A two-stage join program whose trigger classes are wide (no `seq`
/// columns), so the batched delta-join pass has something to batch:
///
/// * `Dim` is the probe-side table (popped first, no rules);
/// * `Src ⋈ Dim` on `k` with a residual filter feeds `Mid`;
/// * `Mid ⋈ Dim` on the derived key feeds `Out`;
/// * an *opaque* rule also triggers on `Src`, so delta-join classes mix
///   planned and per-tuple rule execution in one pop.
///
/// `nested_loop` builds both joins as hand-written opaque rules, two
/// `ctx.query_rel` loops invisible to every join optimisation: the
/// per-tuple reference the planned lowering must match.
fn join_program(dims: i64, srcs: i64, key_mod: i64, filt: i64, nested_loop: bool) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.relation::<Dim>();
    p.relation::<Src>();
    p.relation::<Mid>();
    p.relation::<Out>();
    p.order(&["Dim", "Src", "Mid", "Out"]);
    let keep = move |s: &Src, d: &Dim| (s.v + d.w).rem_euclid(filt) != 0;
    let mid = move |s: &Src, d: &Dim| Mid {
        k2: (s.v * 3 + d.w).rem_euclid(key_mod),
        s: s.v + d.w,
    };
    if nested_loop {
        p.rule_rel("stage1-nested", move |ctx, s: Src| {
            for d in ctx.query_rel(Dim::query().eq(Dim::k, s.k)) {
                if keep(&s, &d) {
                    ctx.put_rel(mid(&s, &d));
                }
            }
        });
        p.rule_rel("stage2-nested", |ctx, m: Mid| {
            for d in ctx.query_rel(Dim::query().eq(Dim::k, m.k2)) {
                ctx.put_rel(Out { a: m.s, b: d.w });
            }
        });
    } else {
        p.rule_rel_join(
            "stage1",
            JoinOn::new().eq(Src::k, Dim::k),
            keep,
            move |ctx, s: &Src, d: &Dim| ctx.put_rel(mid(s, d)),
        );
        p.rule_rel_join(
            "stage2",
            JoinOn::new().eq(Mid::k2, Dim::k),
            |_m: &Mid, _d: &Dim| true,
            |ctx, m: &Mid, d: &Dim| {
                ctx.put_rel(Out { a: m.s, b: d.w });
            },
        );
    }
    p.rule_rel("mirror", |ctx, s: Src| {
        ctx.put_rel(Out { a: s.v, b: -1 });
    });
    for i in 0..dims {
        p.put_rel(Dim {
            k: i.rem_euclid(key_mod),
            w: i,
        });
    }
    for i in 0..srcs {
        p.put_rel(Src {
            k: (i * 7).rem_euclid(key_mod),
            v: i,
        });
    }
    Arc::new(p.build().unwrap())
}

/// How many of `widths` (the widths of classes whose table triggers a
/// join-plan rule) reach the delta-join minimum of 32 tuples: the
/// `delta_join_classes` a run must report.
fn batched_classes(widths: &[usize]) -> u64 {
    widths.iter().filter(|&&w| w >= 32).count() as u64
}

/// Runs `nested` sequentially as the reference, then `joined`
/// sequentially, at `threads` threads, and at `threads` threads with
/// every staged batch merged by the pool. Each run must reach the
/// reference's Gamma and content hash with **bit-identical pop
/// schedules** (same step and tuple counts), in as many delta-join
/// classes as `batched` counts from the reference Gamma. Every batched
/// class after the first reopens a probe view that no later step has
/// changed, so each run — the sequential one too — reports at least
/// that many index-cache hits.
fn assert_matches_nested_loop(
    nested: &Arc<Program>,
    joined: &Arc<Program>,
    threads: usize,
    batched: impl Fn(&[Tuple]) -> u64,
) -> std::result::Result<(), TestCaseError> {
    let run = |prog: &Arc<Program>, config| {
        let mut eng = Engine::new(Arc::clone(prog), config);
        let r = eng.run().unwrap();
        let outcome = (
            canonical_gamma(&eng),
            eng.content_hash(),
            r.steps,
            r.tuples_processed,
        );
        (
            outcome,
            r.delta_join_classes,
            r.delta_join_build_tuples,
            r.index_cache_hits,
        )
    };
    let (want, base_batched, _, _) = run(nested, EngineConfig::sequential());
    prop_assert_eq!(base_batched, 0, "the nested loop has no plan to batch");
    let classes = batched(&want.0);
    let configs = [
        EngineConfig::sequential(),
        EngineConfig::parallel(threads),
        EngineConfig::parallel(threads).parallel_merge_from(1),
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let (got, got_batched, build_tuples, hits) = run(joined, config);
        prop_assert_eq!(&got, &want, "lowerings diverged (config {})", i);
        prop_assert_eq!(got_batched, classes, "delta-join classes (config {})", i);
        prop_assert!(
            build_tuples >= 32 * classes,
            "each batched class is 32 wide"
        );
        prop_assert!(
            hits >= classes.saturating_sub(1),
            "{} index-cache hits over {} batched classes (config {})",
            hits,
            classes,
            i
        );
    }
    Ok(())
}

/// A two-**stage** join program built in one of two lowerings that must
/// be observationally identical:
///
/// * `nested_loop = false` — one [`ProgramBuilder::rule_rel_join2`]
///   rule carrying the full two-stage [`jstar_core::rule::JoinPlan`]
///   (`Src ⋈ Dim` on `k`, then a second probe on the first match's `w`),
///   its inequalities stated in the builder, eligible for batched
///   delta-join execution and the leapfrog walk;
/// * `nested_loop = true` — a hand-written opaque rule performing the
///   same join as two nested `ctx.query_rel` loops, invisible to every
///   join optimisation, checking each inequality in its body.
///
/// Stage 2 probes `Dim` again, or — `asymmetric` — its own table `Wt`,
/// with only odd `Dim` keys present, so about half the triggers find no
/// stage-1 row. `bounds` says which stages carry an inequality (bit 0:
/// stage 1, `Src.k < Dim.w`; bit 1: stage 2, `Src.k <` the stage-2
/// row's weight). Tables, orderings, seeds and the filter are identical
/// across the lowerings, so the two programs must reach the same
/// fixpoint with the same pop schedule.
fn join2_program(
    dims: i64,
    srcs: i64,
    key_mod: i64,
    filt: i64,
    nested_loop: bool,
    asymmetric: bool,
    bounds: usize,
) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.relation::<Dim>();
    p.relation::<Wt>();
    p.relation::<Src>();
    p.relation::<Out>();
    p.order(&["Dim", "Wt", "Src", "Out"]);
    if asymmetric {
        chain_rule(
            &mut p,
            nested_loop,
            filt,
            bounds,
            (Wt::k, Wt::w),
            |d: &Wt| d.w,
        );
    } else {
        chain_rule(
            &mut p,
            nested_loop,
            filt,
            bounds,
            (Dim::k, Dim::w),
            |d: &Dim| d.w,
        );
    }
    // `w` values overlap the key range so stage 2 matches regularly
    // (but not always — missing keys exercise the empty-descent path).
    for i in 0..dims {
        let (k, w) = (i.rem_euclid(key_mod), (i * 5 + 1).rem_euclid(key_mod + 3));
        if !asymmetric {
            p.put_rel(Dim { k, w });
        } else if k % 2 == 1 {
            p.put_rel(Dim { k, w });
            if i % 3 != 0 {
                p.put_rel(Wt { k: w, w: i });
            }
        }
    }
    for i in 0..srcs {
        p.put_rel(Src {
            k: (i * 7).rem_euclid(key_mod),
            v: i,
        });
    }
    Arc::new(p.build().unwrap())
}

/// Adds [`join2_program`]'s chain `Src ⋈ Dim ⋈ S2` (stage 2 on
/// `Dim.w = key`, weighing by `weight`, which reads `weight_field`) in
/// the chosen lowering.
fn chain_rule<S2: Relation>(
    p: &mut ProgramBuilder,
    nested_loop: bool,
    filt: i64,
    bounds: usize,
    (key, weight_field): (Field<S2, i64>, Field<S2, i64>),
    weight: fn(&S2) -> i64,
) {
    let (bound1, bound2) = (bounds & 1 != 0, bounds & 2 != 0);
    let filter = move |s: &Src, d1: &Dim, d2: &S2| (s.v + d1.w + weight(d2)).rem_euclid(filt) != 0;
    let emit = move |s: &Src, d1: &Dim, d2: &S2| Out {
        a: s.v + d1.w,
        b: weight(d2),
    };
    if nested_loop {
        p.rule_rel("chain-nested", move |ctx, s: Src| {
            for d1 in ctx.query_rel(Dim::query().eq(Dim::k, s.k)) {
                if bound1 && s.k >= d1.w {
                    continue;
                }
                for d2 in ctx.query_rel(S2::query().eq(key, d1.w)) {
                    if bound2 && s.k >= weight(&d2) {
                        continue;
                    }
                    if filter(&s, &d1, &d2) {
                        ctx.put_rel(emit(&s, &d1, &d2));
                    }
                }
            }
        });
    } else {
        let mut stage1 = JoinOn::new().eq(Src::k, Dim::k);
        if bound1 {
            stage1 = stage1.lt(Src::k, Dim::w);
        }
        let mut stage2 = JoinOn2::new().eq_p(Dim::w, key);
        if bound2 {
            stage2 = stage2.lt_t(Src::k, weight_field);
        }
        p.rule_rel_join2(
            "chain-join",
            stage1,
            stage2,
            filter,
            move |ctx, s: &Src, d1: &Dim, d2: &S2| {
                ctx.put_rel(emit(s, d1, d2));
            },
        );
    }
}

/// Collects every Gamma tuple of every table, sorted — the canonical form
/// compared across engine configurations.
fn canonical_gamma(engine: &Engine) -> Vec<Tuple> {
    let mut all = Vec::new();
    for i in 0..engine.program().defs().len() {
        all.extend(engine.gamma().collect(&Query::on(TableId(i as u32))));
    }
    all.sort();
    all
}

/// Walks a fresh field-0 cursor over every table and collects the visible
/// `(value, group)` pairs — what a join walk would actually see through
/// the index cache. Group-internal order is journal (insertion) order,
/// which differs across runs at different thread counts, so groups are
/// sorted before comparison; the *set* of values and each value's tuple
/// multiset must be identical whatever the cache policy.
fn cursor_groups(engine: &Engine) -> Vec<(Value, Vec<Tuple>)> {
    let mut all = Vec::new();
    for i in 0..engine.program().defs().len() {
        let idx = engine.gamma().open_cursor(TableId(i as u32), 0);
        let mut c = idx.cursor();
        while let (Some(k), Some(g)) = (c.key(), c.group()) {
            let mut g = g.to_vec();
            g.sort();
            all.push((k.clone(), g));
            c.next();
        }
    }
    all
}

/// A custom store over [`HashStore`] that forwards only the required
/// methods. It reports no [`TableStore::index_stamp`], so the index
/// cache cannot keep its views: every cursor opened on it is a cold
/// build.
struct ColdStore(HashStore);

impl TableStore for ColdStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        self.0.insert(t)
    }
    fn contains(&self, t: &Tuple) -> bool {
        self.0.contains(t)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        self.0.for_each(f)
    }
    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        self.0.retain(keep)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded-inbox parallel engine — staging on many workers and
    /// absorbing each epoch through the partitioned merge — produces
    /// exactly the sequential engine's fixpoint, pop schedule and
    /// per-table Delta insert counts, for random thread counts, on two
    /// program shapes:
    ///
    /// * random layered fan-out programs (fig8's request→fan→summarise
    ///   shape and fig11's wide single-key classes both arise from the
    ///   generator), once with default merging and once with the merge
    ///   threshold dropped to 1 so even small epochs take the parallel
    ///   subtree path;
    /// * the fig12 (Dijkstra) shape: a self-feeding relaxation whose
    ///   orderby makes the Delta tree the priority queue, with
    ///   `-noDelta`/hash-indexed Done and `-noGamma` Estimate exactly
    ///   like the real app; every multi-tuple class forks, so small
    ///   programs stage from pool workers too.
    #[test]
    fn sharded_parallel_matches_sequential(
        layers in 1usize..4,
        fanout in 1i64..5,
        mul in 1i64..7,
        add in 0i64..5,
        modp in 2i64..40,
        dt in 0i64..3,
        horizon in 0i64..12,
        seeds in 1i64..6,
        threads in 1usize..6,
        n in 20i64..120,
        degree in 1i64..4,
        weight_mod in 1i64..9,
    ) {
        let prog = build_program(layers, fanout, mul, add, modp, dt, horizon, seeds);

        let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        let seq_report = seq_eng.run().unwrap();
        let want = canonical_gamma(&seq_eng);
        // Fresh Delta inserts per table, flushed by the boundary absorb.
        let delta_inserts = |eng: &Engine| -> Vec<u64> {
            eng.stats().tables.iter().map(|t| t.snapshot().delta_inserts).collect()
        };
        let want_inserts = delta_inserts(&seq_eng);

        let par_config = EngineConfig::parallel(threads);
        for (arm, config) in [par_config.clone(), par_config.parallel_merge_from(1)]
            .into_iter()
            .enumerate()
        {
            let mut par_eng = Engine::new(Arc::clone(&prog), config);
            let par_report = par_eng.run().unwrap();
            let got = canonical_gamma(&par_eng);

            prop_assert_eq!(&got, &want, "gamma contents diverged (arm {})", arm);
            prop_assert_eq!(
                par_report.tuples_processed,
                seq_report.tuples_processed,
                "tuple counts diverged (arm {})",
                arm
            );
            prop_assert_eq!(
                par_report.steps,
                seq_report.steps,
                "pop schedules diverged (arm {})",
                arm
            );
            prop_assert_eq!(
                delta_inserts(&par_eng),
                want_inserts.clone(),
                "Delta insert counts diverged (arm {})",
                arm
            );
        }

        let prog = relaxation_program(n, degree, weight_mod);
        let done = prog.table_id("Done").unwrap();
        let estimate = prog.table_id("Estimate").unwrap();
        let configure = |c: EngineConfig| {
            c.no_delta(done).no_gamma(estimate).store(
                done,
                StoreKind::Hash {
                    index_fields: vec!["vertex".into()],
                },
            )
        };

        let mut seq_eng = Engine::new(
            Arc::clone(&prog),
            configure(EngineConfig::sequential()),
        );
        seq_eng.run().unwrap();
        let mut want = seq_eng.gamma().collect(&Query::on(done));
        want.sort();

        let mut eng = Engine::new(
            Arc::clone(&prog),
            configure(
                EngineConfig::parallel(threads).parallel_merge_from(1),
            ),
        );
        eng.run().unwrap();
        let mut got = eng.gamma().collect(&Query::on(done));
        got.sort();
        // Step counts are not compared here: the relax rule *queries*
        // Done mid-class, so which Estimates get staged is timing-
        // dependent in every parallel configuration (the fixpoint is
        // not).
        prop_assert_eq!(&got, &want, "Done set diverged");
    }

    /// The persisted Gamma digest is a pure function of the logical
    /// fixpoint: for random programs, `Engine::content_hash()` — the
    /// hash a snapshot stores per table and recovery compares against —
    /// is bit-identical across the sequential engine and the parallel
    /// one at every thread count, with the default merge and with every
    /// epoch merged on the pool. This is what
    /// makes crash-recovery checkable: restore + resume must land on
    /// this exact hash whatever configuration resumes the run.
    #[test]
    fn content_hash_is_identical_across_configurations(
        layers in 1usize..4,
        fanout in 1i64..4,
        mul in 1i64..7,
        add in 0i64..5,
        modp in 2i64..40,
        dt in 0i64..3,
        horizon in 0i64..12,
        seeds in 1i64..6,
        threads in 2usize..6,
    ) {
        let prog = build_program(layers, fanout, mul, add, modp, dt, horizon, seeds);

        let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        seq_eng.run().unwrap();
        let want = seq_eng.content_hash();

        let configs = [
            EngineConfig::parallel(threads),
            EngineConfig::parallel(threads).parallel_merge_from(1),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            let mut eng = Engine::new(Arc::clone(&prog), config);
            eng.run().unwrap();
            prop_assert_eq!(
                eng.content_hash(),
                want,
                "content hash diverged at {} threads (config {})",
                threads,
                i
            );
        }
    }

    /// Semi-naive delta-join execution is a pure execution-strategy
    /// change: for random two-stage join programs, the planned lowering
    /// — batched (one grouped cursor walk per class) once a trigger
    /// class is 32 wide, per tuple below that — matches the hand-written
    /// nested loops (see [`assert_matches_nested_loop`]), with the
    /// opaque `mirror` rule riding in the same trigger classes.
    #[test]
    fn delta_join_matches_per_tuple(
        dims in 1i64..30,
        srcs in 1i64..80,
        key_mod in 1i64..12,
        filt in 1i64..6,
        threads in 2usize..6,
    ) {
        let nested = join_program(dims, srcs, key_mod, filt, true);
        let joined = join_program(dims, srcs, key_mod, filt, false);
        // Src is one class of `srcs` distinct tuples, Mid one class of
        // every Mid row; both trigger a join-plan rule.
        let mid = joined.table_id("Mid").unwrap();
        assert_matches_nested_loop(&nested, &joined, threads, |gamma| {
            let mids = gamma.iter().filter(|t| t.table() == mid).count();
            batched_classes(&[srcs as usize, mids])
        })?;
    }

    /// `join()` lowering equivalence: for random two-stage join
    /// programs — stage 2 probing the stage-1 table again or a table of
    /// its own, with or without an inequality at either stage — the
    /// typed join-rule lowering (two-stage plan) matches the
    /// hand-written nested-loop lowering, which checks each inequality
    /// in its body (see [`assert_matches_nested_loop`]). Every case runs
    /// a `Src` class narrower than the 32-wide delta-join minimum (the
    /// per-tuple fallback) and one at least that wide (the batched walk).
    #[test]
    fn typed_join_matches_nested_loop_lowering(
        dims in 1i64..25,
        narrow in 1i64..32,
        wide in 32i64..80,
        key_mod in 1i64..10,
        filt in 1i64..6,
        threads in 2usize..6,
        asymmetric in any::<bool>(),
        bounds in 0usize..4,
    ) {
        for srcs in [narrow, wide] {
            let nested = join2_program(dims, srcs, key_mod, filt, true, asymmetric, bounds);
            let joined = join2_program(dims, srcs, key_mod, filt, false, asymmetric, bounds);
            assert_matches_nested_loop(&nested, &joined, threads, |_| {
                batched_classes(&[srcs as usize])
            })?;
        }
    }

    /// The generation-stamped index cache is a pure execution-strategy
    /// change: for random two-stage join programs — with a lifetime hint
    /// on the probe table so retain/compaction interleaves with the join
    /// walks mid-run — the cached, journal-caught-up column views of the
    /// default stores produce **bit-identical pop schedules** (same
    /// step count, same tuple count), the same Gamma fixpoint, the same
    /// content hash, and the same cursor-visible group sets as a
    /// `-sequential` reference that keeps `Dim` in a [`ColdStore`], which
    /// has no claim journal and so builds every view cold, at 1/4/8
    /// threads, batched from a 32-wide trigger class and per tuple below
    /// it. The hint tombstones more than half of — and so, through
    /// compaction, epoch-bumps — the very table whose cached views the
    /// join keeps reopening, so wholesale invalidation and journal-suffix
    /// catch-up both run under live traffic.
    #[test]
    fn cached_index_matches_cold_build(
        dims in 8i64..30,
        srcs in 1i64..80,
        key_mod in 1i64..12,
        filt in 1i64..6,
        threads_idx in 0usize..3,
        hint_keep_mod in 3i64..6,
    ) {
        let threads = [1usize, 4, 8][threads_idx];
        let prog = join_program(dims, srcs, key_mod, filt, false);
        let dim = prog.table_id("Dim").unwrap();
        // Dim has no producing rules, so retaining away some of its
        // tuples mid-run is deterministic (nothing re-derives them) and
        // directly invalidates the cached views the join walks reopen.
        // Keeping one `w` in `hint_keep_mod` of 8 or more drops over half.
        let configure = move |c: EngineConfig| {
            c.lifetime_hint(dim, 2, move |t| t.int(1).rem_euclid(hint_keep_mod) == 0)
        };

        let cold: StoreFactory = Arc::new(|def| Arc::new(ColdStore(HashStore::new(def, vec![0]))));
        let reference = EngineConfig::sequential().store(dim, StoreKind::Custom(cold));
        let mut base = Engine::new(Arc::clone(&prog), configure(reference));
        let base_report = base.run().unwrap();
        prop_assert_eq!(base_report.index_cache_hits, 0, "the reference builds cold");
        let want = canonical_gamma(&base);
        let want_hash = base.content_hash();
        let want_groups = cursor_groups(&base);

        let mut eng = Engine::new(
            Arc::clone(&prog),
            configure(EngineConfig::parallel(threads).parallel_merge_from(1)),
        );
        let report = eng.run().unwrap();
        let got = canonical_gamma(&eng);
        prop_assert_eq!(&got, &want, "gamma diverged ({} threads)", threads);
        prop_assert_eq!(
            eng.content_hash(),
            want_hash,
            "content hash diverged ({} threads)",
            threads
        );
        prop_assert_eq!(
            (report.steps, report.tuples_processed),
            (base_report.steps, base_report.tuples_processed),
            "pop schedule diverged ({} threads)",
            threads
        );
        let groups = cursor_groups(&eng);
        prop_assert_eq!(
            &groups, &want_groups,
            "cursor-visible groups diverged ({} threads)",
            threads
        );
        prop_assert!(
            eng.stats().tables[dim.index()].snapshot().compactions > 0,
            "the hint must compact Dim ({} threads)",
            threads
        );
    }
}

/// A join rule with no key pair (a cross join) gives the batched walk
/// nothing to seek on, so a class of any width must fire it through the
/// synthesised per-tuple body: same Gamma and same pop schedule as the
/// hand-written nested loop, sequentially and at 4 threads, on either
/// side of the 32-wide delta-join minimum.
#[test]
fn keyless_join_class_fires_per_tuple() {
    let cross = |srcs: i64, nested_loop: bool| {
        let mut p = ProgramBuilder::new();
        p.relation::<Dim>();
        p.relation::<Src>();
        p.relation::<Out>();
        p.order(&["Dim", "Src", "Out"]);
        let keep = |s: &Src, d: &Dim| (s.v + d.w) % 3 != 0;
        if nested_loop {
            p.rule_rel("cross-nested", move |ctx, s: Src| {
                for d in ctx.query_rel(Dim::query()) {
                    if keep(&s, &d) {
                        ctx.put_rel(Out { a: s.v, b: d.w });
                    }
                }
            });
        } else {
            p.rule_rel_join("cross", JoinOn::new(), keep, |ctx, s: &Src, d: &Dim| {
                ctx.put_rel(Out { a: s.v, b: d.w })
            });
        }
        for i in 0..7 {
            p.put_rel(Dim { k: i, w: i * 2 });
        }
        for i in 0..srcs {
            p.put_rel(Src { k: i % 5, v: i });
        }
        Arc::new(p.build().unwrap())
    };
    for srcs in [31, 32, 40] {
        let nested = cross(srcs, true);
        let (want, base) = run_join(&nested, EngineConfig::sequential());
        let out = nested.table_id("Out").unwrap();
        assert!(want.iter().any(|t| t.table() == out));
        let prog = cross(srcs, false);
        for config in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
            let (got, report) = run_join(&prog, config);
            assert_eq!(
                report.delta_join_classes,
                batched_classes(&[srcs as usize]),
                "the Src class is {srcs} wide"
            );
            assert_eq!(got, want);
            assert_eq!(report.steps, base.steps);
        }
    }
}

/// Runs `prog` under `config`: its canonical Gamma and run report.
fn run_join(prog: &Arc<Program>, config: EngineConfig) -> (Vec<Tuple>, RunReport) {
    let mut eng = Engine::new(Arc::clone(prog), config);
    let report = eng.run().unwrap();
    (canonical_gamma(&eng), report)
}

/// The asymmetric chain at a fixed size — 400 triggers, half of them
/// finding no stage-1 row — reaches the nested loop's Gamma sequentially
/// and at 2 and 4 threads.
#[test]
fn asymmetric_join_matches_nested_loop_sequential_and_parallel() {
    let nested = join2_program(50, 400, 24, 5, true, true, 0);
    let (want, _) = run_join(&nested, EngineConfig::sequential());
    let out = nested.table_id("Out").unwrap();
    assert!(want.iter().any(|t| t.table() == out), "some chains emit");
    let joined = join2_program(50, 400, 24, 5, false, true, 0);
    for config in [
        EngineConfig::sequential(),
        EngineConfig::parallel(2),
        EngineConfig::parallel(4),
    ] {
        assert_eq!(run_join(&joined, config).0, want);
    }
}

/// On the same chain the batched walk agrees with the nested loop and
/// searches Gamma less: its probes and seeks together stay under the
/// nested loop's probes. A 31-wide `Src` class stays per tuple.
#[test]
fn asymmetric_join_batched_walk_searches_less() {
    for srcs in [31, 400] {
        let nested = join2_program(50, srcs, 24, 5, true, true, 0);
        let joined = join2_program(50, srcs, 24, 5, false, true, 0);
        let (want, pt) = run_join(&nested, EngineConfig::sequential());
        let (got, dj) = run_join(&joined, EngineConfig::sequential());
        assert_eq!(got, want);
        assert_eq!(dj.delta_join_classes, batched_classes(&[srcs as usize]));
        if srcs >= 32 {
            assert!(
                dj.gamma_probes + dj.join_seeks < pt.gamma_probes,
                "batched probes={} seeks={} vs nested-loop probes={}",
                dj.gamma_probes,
                dj.join_seeks,
                pt.gamma_probes
            );
        }
    }
}
