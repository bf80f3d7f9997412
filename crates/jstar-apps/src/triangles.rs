//! Triangle counting over a random undirected graph — the multi-way
//! join showcase workload.
//!
//! The program lists each triangle `a < b < c` exactly once via **one
//! join rule**, `join3::<Probe, Edge, Edge>()`: the trigger `Probe(a,
//! b)` meets `Edge(b, c)` and `Edge(a, c)` in a single descent, and no
//! intermediate wedge relation is materialised. Both edges come from
//! the one `Edge.from` view, whose groups are vertices' neighbour
//! lists sorted by `Edge.to` (a view orders each group by its next
//! column). The rule is two sorted-list intersections, as the
//! hand-coded [`triangles_baseline`] is:
//!
//! * `.on_ab(Probe::b, Edge::from)` picks `b`'s list, and the bound
//!   `.lt_ab(Probe::b, Edge::to)` (`b < c`) seeks past `b` inside it —
//!   a wedge that fails the bound is never formed, so it never seeks
//!   the closing edge;
//! * `.on_ac(Probe::a, Edge::from)` picks `a`'s list, and
//!   `.on_bc(Edge::to, Edge::to)` seeks `c` inside it. Successive `c`s
//!   of one `b` ascend, so `a`'s list is walked once per probe, as a
//!   merge.
//!
//! The rule is registered through [`ProgramBuilder::rule_rel_join_with_model`],
//! so it is an inspectable two-stage [`JoinPlan`] with a causality
//! model, and the engine runs the `Probe` class as one walk: the class
//! is cut into a view on `Probe.b` that leapfrogs against `Edge.from`,
//! its rows fanned over the pool. The test
//! `delta_join_and_per_tuple_agree_and_counters_move` checks, at 1, 2
//! and 4 threads, that this walk searches the store less than an
//! opaque nested-loop twin of the rule (probes + seeks against its
//! probes), and that it seeks less than the same rule with its bound
//! left as an `if` in `emit`, which forms every wedge and so seeks the
//! closing edge for those the stated bound prunes.
//!
//! The same count is also available *after* the run as a read-side
//! query: [`count_via_join3`] folds `join3::<Edge, Edge, Edge>()` over
//! the stored half-edges — the same kind of join value, walked by the
//! same leapfrog walk and split over the engine's pool like the
//! rule-side one. All three relations are keyed on `Edge.from`, the
//! view the rule side has already built, and the join is the same two
//! intersections: `x`'s list past `y` for `z`, then `z` sought in
//! `y`'s list.

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

jstar_table! {
    /// One graph-loading task (parallel class, like Dijkstra's GenTask).
    #[derive(Copy, Eq)]
    pub Load(int id) orderby (Load, par id)
}

jstar_table! {
    /// Directed half-edge; every undirected edge is stored both ways so
    /// joins can probe by source vertex.
    #[derive(Copy, Eq)]
    pub Edge(int from, int to) orderby (Edge)
}

jstar_table! {
    /// One probe per undirected edge `a < b`; the trigger of the
    /// triangle join. All probes share a single equivalence class.
    #[derive(Copy, Eq)]
    pub Probe(int a, int b) orderby (Probe)
}

jstar_table! {
    /// A closed triangle `a < b < c`, listed exactly once.
    #[derive(Copy, Eq)]
    pub Triangle(int a, int b, int c) orderby (Tri)
}

/// Random-graph parameters.
#[derive(Debug, Clone, Copy)]
pub struct TriSpec {
    /// Number of vertices.
    pub n: u32,
    /// Number of distinct undirected edges requested (the generator
    /// deduplicates, so the final count can be slightly lower).
    pub m: u32,
    /// Graph-loading tasks.
    pub tasks: u32,
    /// RNG seed.
    pub seed: u64,
}

impl TriSpec {
    pub fn new(n: u32, m: u32, tasks: u32, seed: u64) -> Self {
        assert!(n >= 1);
        TriSpec {
            n,
            m,
            tasks: tasks.max(1),
            seed,
        }
    }
}

/// The graph as a sorted, duplicate-free list of undirected edges
/// `(a, b)` with `a < b` — a deterministic function of the spec, so the
/// JStar rules and the baseline see exactly the same graph.
pub fn edge_list(spec: &TriSpec) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA076_1D64_78BD_642F);
    let mut set = BTreeSet::new();
    if spec.n >= 2 {
        for _ in 0..spec.m {
            let a = rng.gen_range(0..spec.n);
            let b = rng.gen_range(0..spec.n);
            if a != b {
                set.insert((a.min(b), a.max(b)));
            }
        }
    }
    set.into_iter().collect()
}

/// The contiguous slice of [`edge_list`] owned by one loading task.
pub fn task_edges(edges: &[(u32, u32)], tasks: u32, task: u32) -> &[(u32, u32)] {
    let per = edges.len().div_ceil(tasks as usize).max(1);
    let lo = (task as usize * per).min(edges.len());
    let hi = ((task as usize + 1) * per).min(edges.len());
    &edges[lo..hi]
}

/// Hand-coded baseline: for each edge `a < b`, count the common
/// neighbours `c > b` via sorted higher-adjacency intersection. Each
/// triangle `a < b < c` is counted exactly once, matching the rules.
pub fn triangles_baseline(spec: &TriSpec) -> u64 {
    let edges = edge_list(spec);
    let mut higher = vec![Vec::new(); spec.n as usize];
    for &(a, b) in &edges {
        higher[a as usize].push(b);
    }
    // BTreeSet iteration already yields each adjacency list sorted.
    let mut count = 0u64;
    for &(a, b) in &edges {
        let (mut xs, mut ys) = (higher[a as usize].iter(), higher[b as usize].iter());
        let (mut x, mut y) = (xs.next(), ys.next());
        while let (Some(&cx), Some(&cy)) = (x, y) {
            match cx.cmp(&cy) {
                std::cmp::Ordering::Less => x = xs.next(),
                std::cmp::Ordering::Greater => y = ys.next(),
                std::cmp::Ordering::Equal => {
                    if cx > b {
                        count += 1;
                    }
                    x = xs.next();
                    y = ys.next();
                }
            }
        }
    }
    count
}

/// The built program plus handles.
pub struct TrianglesApp {
    pub program: Arc<Program>,
    pub load: TableId,
    pub edge: TableId,
    pub probe: TableId,
    pub tri: TableId,
}

/// Builds the triangle-counting program.
pub fn build_program(spec: TriSpec) -> TrianglesApp {
    build(spec, Lowering::Bounded)
}

/// How the triangle rule is lowered: as written ([`Lowering::Bounded`]),
/// or one of the two references the tests compare it against.
enum Lowering {
    /// The join rule with its bound `b < c` in the builder.
    Bounded,
    /// The same join rule with the bound left as an `if` in `emit`,
    /// which runs only once a whole row combination exists; counts the
    /// combinations `emit` sees.
    #[cfg(test)]
    Filtered(Arc<AtomicU64>),
    /// An opaque twin of two nested `ctx.query_rel` loops, invisible to
    /// every join optimisation: the per-tuple reference.
    #[cfg(test)]
    NestedLoop,
}

/// The program with its triangle rule lowered as `lowering` says.
fn build(spec: TriSpec, lowering: Lowering) -> TrianglesApp {
    let mut p = ProgramBuilder::new();

    let load = p.relation::<Load>().id();
    let edge = p.relation::<Edge>().id();
    let probe = p.relation::<Probe>().id();
    let tri = p.relation::<Triangle>().id();
    // Strictly increasing strata: every put points forward, so the Law
    // of Causality holds by construction (no recursion anywhere).
    p.order(&["Load", "Edge", "Probe", "Tri"]);

    // Graph loading: each task stores its slice of the edge list both
    // ways and seeds one Probe per undirected edge. Opaque rule — no
    // join plan, always per-tuple.
    let edges = Arc::new(edge_list(&spec));
    let tasks = spec.tasks;
    let load_edges = Arc::clone(&edges);
    let load_model = strata_model(&["Edge", "Probe"], &[]);
    p.rule_rel_with_model("load-graph", load_model, move |ctx, t: Load| {
        for &(a, b) in task_edges(&load_edges, tasks, t.id as u32) {
            ctx.put_rel(Edge {
                from: a as i64,
                to: b as i64,
            });
            ctx.put_rel(Edge {
                from: b as i64,
                to: a as i64,
            });
            ctx.put_rel(Probe {
                a: a as i64,
                b: b as i64,
            });
        }
    });

    // The whole triangle in one rule: a higher neighbour c of b (stage
    // 1: b's list in `Edge.from`, sought past b), then the closing edge
    // a→c (stage 2: a's list, c sought in it — both directions are
    // stored, so it exists iff a ~ c).
    let emit = |p: Probe, e1: Edge| Triangle {
        a: p.a,
        b: p.b,
        c: e1.to,
    };
    let triangle = join3::<Probe, Edge, Edge>()
        .on_ab(Probe::b, Edge::from)
        .on_ac(Probe::a, Edge::from)
        .on_bc(Edge::to, Edge::to);
    let model = || strata_model(&["Triangle"], &["Edge"]);
    match lowering {
        Lowering::Bounded => p.rule_rel_join_with_model(
            "triangles",
            triangle.lt_ab(Probe::b, Edge::to),
            model(),
            move |ctx, (p, e1, _e2)| ctx.put_rel(emit(p, e1)),
        ),
        #[cfg(test)]
        Lowering::Filtered(seen) => p.rule_rel_join_with_model(
            "triangles-filtered",
            triangle,
            model(),
            move |ctx, (p, e1, _e2)| {
                seen.fetch_add(1, Ordering::Relaxed);
                if p.b < e1.to {
                    ctx.put_rel(emit(p, e1));
                }
            },
        ),
        #[cfg(test)]
        Lowering::NestedLoop => {
            p.rule_rel_with_model("triangles-nested", model(), move |ctx, p: Probe| {
                for e1 in ctx.query_rel(Edge::query().eq(Edge::from, p.b)) {
                    let closing = Edge::query().eq(Edge::from, e1.to).eq(Edge::to, p.a);
                    for _e2 in ctx.query_rel(closing) {
                        // The bound, checked once the combination exists.
                        if p.b < e1.to {
                            ctx.put_rel(emit(p, e1));
                        }
                    }
                }
            })
        }
    }

    for task in 0..spec.tasks {
        p.put_rel(Load { id: task as i64 });
    }

    TrianglesApp {
        program: Arc::new(p.build().expect("triangles program builds")),
        load,
        edge,
        probe,
        tri,
    }
}

/// A causality model that proves the stratum order only: the rule puts
/// into the tables `puts` (each a later stratum than its trigger) and
/// reads the tables `reads` (each an earlier one).
fn strata_model(puts: &[&str], reads: &[&str]) -> CausalityModel {
    CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: (puts.iter())
            .map(|&table| PutModel {
                out_table: table.into(),
                guard: vec![],
                bindings: vec![],
                label: format!("put {table}"),
            })
            .collect(),
        queries: (reads.iter())
            .map(|&table| QueryModel {
                q_table: table.into(),
                guard: vec![],
                bindings: vec![],
                label: format!("read {table}"),
            })
            .collect(),
    }
}

/// Per-app optimisation flags in the paper's style: `Edge` never
/// triggers a rule (`-noDelta`); `Load` and `Probe` are trigger-only
/// (`-noGamma`). `Edge` keeps the default store, which makes it a
/// write-once table: it is read only by its `from` field, its first
/// column, and only once it has closed, so its one sorted view — built
/// when the `Probe` class is popped — is the `Edge.from` view both walks
/// read.
pub fn optimised_config(app: &TrianglesApp, config: EngineConfig) -> EngineConfig {
    config
        .no_delta(app.edge)
        .no_gamma(app.load)
        .no_gamma(app.probe)
}

/// Runs the JStar program and returns the triangle count.
pub fn run_jstar(spec: TriSpec, config: EngineConfig) -> Result<u64> {
    run_app(&build_program(spec), config).map(|(count, _)| count)
}

/// Runs `app` under [`optimised_config`]: its triangle count and report.
fn run_app(app: &TrianglesApp, config: EngineConfig) -> Result<(u64, RunReport)> {
    let config = optimised_config(app, config);
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    let mut count = 0u64;
    engine.for_each_rel_gamma(Triangle::query(), |_t: Triangle| {
        count += 1;
        true
    });
    Ok((count, report))
}

/// Counts triangles *after* a run as a read-side query: one ternary
/// `join3::<Edge, Edge, Edge>()` over the stored half-edges, evaluated
/// by [`Engine::join_fold`] — the engine's leapfrog walk, split over
/// its pool when it has one, each piece counting into its own total.
/// Every relation is keyed on `Edge.from`, the view the rule side
/// already opened, so the count builds no second index.
pub fn count_via_join3(engine: &Engine) -> u64 {
    engine.join_fold(
        triangle_join(),
        || 0u64,
        |count, _| *count += 1,
        |x, y| x + y,
    )
}

/// `a = x→y`, `b = x→z`, `c = y→z` with `x < y < z`: each triangle in
/// exactly one orientation. `x < y` is a root check on `a`; `y < z`
/// seeks past `y` in `x`'s list as `b` is matched, so only the
/// surviving `(a, b)` wedges seek `C`; `C` is `y`'s list, in which `z`
/// is sought.
fn triangle_join() -> Join3<Edge, Edge, Edge> {
    join3::<Edge, Edge, Edge>()
        .on_ab(Edge::from, Edge::from)
        .on_ac(Edge::to, Edge::from)
        .on_bc(Edge::to, Edge::to)
        .lt_a(Edge::from, Edge::to)
        .lt_ab(Edge::to, Edge::to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TriSpec {
        TriSpec::new(60, 150, 4, 42)
    }

    #[test]
    fn edge_list_is_deterministic_sorted_and_duplicate_free() {
        let spec = small_spec();
        let a = edge_list(&spec);
        assert_eq!(a, edge_list(&spec));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&(x, y)| x < y && y < spec.n));
        let concat: Vec<_> = (0..spec.tasks)
            .flat_map(|t| task_edges(&a, spec.tasks, t).iter().copied())
            .collect();
        assert_eq!(concat, a, "tasks partition the edge list");
    }

    #[test]
    fn baseline_counts_a_known_graph() {
        // K4 has 4 triangles; removing one edge leaves 2.
        let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let count = |edges: &[(u32, u32)]| {
            let mut higher = vec![Vec::new(); 4];
            for &(a, b) in edges {
                higher[a as usize].push(b);
            }
            let mut c = 0u64;
            for &(a, b) in edges {
                for x in &higher[a as usize] {
                    if *x > b && higher[b as usize].contains(x) {
                        c += 1;
                    }
                }
            }
            c
        };
        assert_eq!(count(&k4), 4);
        assert_eq!(count(&k4[1..]), 2);
    }

    #[test]
    fn jstar_matches_baseline_sequential() {
        let spec = small_spec();
        let want = triangles_baseline(&spec);
        assert!(want > 0, "spec should contain triangles");
        let got = run_jstar(spec, EngineConfig::sequential()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn jstar_matches_baseline_parallel() {
        let spec = small_spec();
        let want = triangles_baseline(&spec);
        for threads in [2, 4] {
            let got = run_jstar(spec, EngineConfig::parallel(threads)).unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn delta_join_and_per_tuple_agree_and_counters_move() {
        let spec = small_spec();
        let want = triangles_baseline(&spec);
        let seen = Arc::new(AtomicU64::new(0));
        let [joined, filtered, nested] = [
            Lowering::Bounded,
            Lowering::Filtered(Arc::clone(&seen)),
            Lowering::NestedLoop,
        ]
        .map(|lowering| build(spec, lowering));

        for base in [
            EngineConfig::sequential(),
            EngineConfig::parallel(2),
            EngineConfig::parallel(4),
        ] {
            let threads = base.threads;
            let (dj_count, dj) = run_app(&joined, base.clone()).unwrap();
            let seen_before = seen.load(Ordering::Relaxed);
            let (fi_count, fi) = run_app(&filtered, base.clone()).unwrap();
            let (pt_count, pt) = run_app(&nested, base).unwrap();

            assert_eq!(dj_count, want, "{threads} threads");
            assert_eq!(fi_count, want, "{threads} threads");
            assert_eq!(pt_count, want, "{threads} threads");
            assert!(dj.delta_join_classes > 0, "the join rule walked: {dj:?}");
            assert!(dj.join_cursor_opens > 0, "cursors opened: {dj:?}");
            assert_eq!(
                pt.delta_join_classes, 0,
                "the opaque twin walks nothing: {pt:?}"
            );
            assert_eq!(pt.join_cursor_opens, 0, "the opaque twin opens no cursors");
            // Every cursor open is counted once, as a hit (a sealed or
            // shared view) or as a build; no open catches a view up.
            for r in [&dj, &fi, &pt] {
                assert_eq!(
                    r.index_cache_hits + r.index_cache_misses,
                    r.join_cursor_opens,
                    "{threads} threads: {r:?}"
                );
                assert_eq!(r.index_catchup_tuples, 0, "{threads} threads");
            }
            assert!(
                dj.gamma_probes + dj.join_seeks < pt.gamma_probes,
                "{threads} threads: merged walk does less store searching: \
                 dj probes={} seeks={} vs nested-loop probes={}",
                dj.gamma_probes,
                dj.join_seeks,
                pt.gamma_probes
            );
            // Each triangle a < b < c is closed from three probes: (a,
            // b) with c above b, and (a, c), (b, c) with the third
            // vertex below. With the bound in `emit`, every wedge seeks
            // C, and `emit` sees all three closed ones. The bound stated
            // in the builder sits on stage 1 (`join_rules_expose_plans`),
            // whose seek past `b` never forms a wedge below it, so C is
            // sought for fewer wedges and the walk counts fewer seeks.
            // Run the bound after C is sought instead and both walks seek
            // exactly alike: the strict inequality fails.
            assert!(dj.delta_join_classes > 0 && fi.delta_join_classes > 0);
            assert!(
                dj.join_seeks < fi.join_seeks,
                "{threads} threads: bounded seeks={} vs filtered seeks={}",
                dj.join_seeks,
                fi.join_seeks
            );
            assert_eq!(
                seen.load(Ordering::Relaxed) - seen_before,
                3 * want,
                "{threads} threads: the filtered rule's emit sees every closed wedge"
            );
        }
    }

    #[test]
    fn join_rules_expose_plans() {
        let app = build_program(small_spec());
        let rules = app.program.rules();
        assert!(rules[0].plan().is_none(), "load-graph is opaque");
        let plan = rules[1].plan().expect("triangles has a plan");
        assert!(
            rules.iter().all(|r| r.model.is_some()),
            "every rule has a model"
        );
        assert_eq!(plan.stages.len(), 2, "one rule, two probe stages");
        assert_eq!(plan.stages[0].probe_table, app.edge);
        assert_eq!(
            plan.stages[0].keys,
            vec![((0, 1), 0)],
            "Probe.b = Edge.from"
        );
        assert_eq!(plan.stages[0].less, vec![((0, 1), 1)], "Probe.b < Edge.to");
        assert!(plan.stages[1].less.is_empty());
        assert_eq!(plan.stages[1].probe_table, app.edge);
        assert_eq!(
            plan.stages[1].keys,
            vec![((0, 0), 0), ((1, 1), 1)],
            "Probe.a = e2.from (the walked column), e1.to = e2.to (sought in the group)"
        );
        assert!(plan.root_less.is_empty());
    }

    #[test]
    fn read_side_join3_matches_rule_count() {
        let spec = small_spec();
        let want = triangles_baseline(&spec);
        let app = build_program(spec);
        for base in [
            EngineConfig::sequential(),
            EngineConfig::parallel(2),
            EngineConfig::parallel(4),
        ] {
            let threads = base.threads;
            let config = optimised_config(&app, base);
            let mut engine = Engine::new(Arc::clone(&app.program), config);
            engine.run().unwrap();
            let opens = |e: &Engine| {
                e.stats()
                    .join_cursor_opens
                    .load(std::sync::atomic::Ordering::Relaxed)
            };
            let misses = |e: &Engine| e.gamma().view_counts().1;
            let (before, missed) = (opens(&engine), misses(&engine));
            assert_eq!(count_via_join3(&engine), want, "{threads} threads");
            // The read-side walk opened three cursors and charged them
            // to the same counters the rule-side walk uses; all three
            // are the `Edge.from` view the rule side already built.
            assert_eq!(opens(&engine), before + 3, "{threads} threads");
            assert_eq!(misses(&engine), missed, "{threads} threads: no cold build");
            // The `FnMut` form is the one-piece case of the same walk,
            // and each triangle comes out in its one orientation.
            let mut walked = 0u64;
            engine.join_rel(triangle_join(), |(a, b, c)| {
                assert!(a.from < a.to && a.to < b.to, "{a:?} {b:?}");
                assert_eq!((a.from, a.to, b.to), (b.from, c.from, c.to));
                walked += 1;
            });
            assert_eq!(walked, want, "{threads} threads");
        }
    }

    #[test]
    fn program_passes_strict_validation() {
        let app = build_program(small_spec());
        app.program.validate_strict().unwrap();
    }

    #[test]
    fn probe_is_trigger_only() {
        // `Probe` is `-noGamma`: its rows fire the join and are never
        // stored, and both counts come out as before.
        let spec = small_spec();
        let want = triangles_baseline(&spec);
        let app = build_program(spec);
        for base in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
            let threads = base.threads;
            let mut engine = Engine::new(Arc::clone(&app.program), optimised_config(&app, base));
            engine.run().unwrap();
            assert!(
                engine.collect_rel(Probe::query()).is_empty(),
                "{threads} threads"
            );
            assert_eq!(engine.collect_rel(Triangle::query()).len() as u64, want);
            assert_eq!(count_via_join3(&engine), want, "{threads} threads");
        }
    }

    #[test]
    fn tiny_graphs() {
        for (n, m) in [(1, 0), (2, 1), (3, 3)] {
            let spec = TriSpec::new(n, m, 2, 7);
            let want = triangles_baseline(&spec);
            let got = run_jstar(spec, EngineConfig::sequential()).unwrap();
            assert_eq!(got, want, "n={n} m={m}");
        }
    }
}
