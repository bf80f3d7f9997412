//! Triangle counting over a random undirected graph — the multi-way
//! join showcase workload.
//!
//! The program lists each triangle `a < b < c` exactly once via **one
//! join rule**: `join3::<Probe, Edge, Edge>()` extends the trigger
//! `Probe(a, b)` through `Edge(b, c)` (bounded by `b < c`) and closes
//! it through `Edge(c, a)` in a single descent — no intermediate wedge
//! relation is materialised. The bound is stated in the join value
//! (`.lt_ab(Probe::b, Edge::to)`), so it runs where the first `Edge`
//! binds `c`: a wedge that fails it never seeks the closing edge. The
//! rule is registered through [`ProgramBuilder::rule_rel_join`], so it
//! carries an inspectable two-stage [`JoinPlan`] and every `Probe`
//! stratum drains through the engine's batched delta-join pass: one
//! coordinated sorted-merge walk over the `Edge` indexes per class.
//! The test `delta_join_and_per_tuple_agree_and_counters_move` checks,
//! at 1, 2 and 4 threads, that this walk searches the store less than
//! an opaque nested-loop twin of the rule (probes + seeks against its
//! probes), and at most half as much as the same rule with its bound
//! left as an `if` in `emit`.
//!
//! The same count is also available *after* the run as a read-side
//! query: [`count_via_join3`] folds `join3::<Edge, Edge, Edge>()` over
//! the stored half-edges — the same kind of join value, walked by the
//! same leapfrog walk and split over the engine's pool like the
//! rule-side one. Its three relations are keyed on `Edge.from`, the
//! view the rule side has already built, and its `x < y < z` bounds
//! keep one orientation of each triangle as early as the rows bind
//! them.

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
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
    /// which runs only once a whole row combination exists.
    #[cfg(test)]
    Filtered,
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
    p.rule_rel("load-graph", move |ctx, t: Load| {
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

    // The whole triangle in one rule: extend the edge a–b (a < b) by a
    // higher neighbour c of b (stage 1, bounded by b < c), then require
    // the closing edge c→a (stage 2 — both directions are stored, so it
    // exists iff a ~ c). Stage 2's leading key comes from stage 1's
    // tuple, which is what the leapfrog walk seeks on.
    let emit = |p: Probe, e1: Edge| Triangle {
        a: p.a,
        b: p.b,
        c: e1.to,
    };
    let triangle = join3::<Probe, Edge, Edge>()
        .on_ab(Probe::b, Edge::from)
        .on_bc(Edge::to, Edge::from)
        .on_ac(Probe::a, Edge::to);
    match lowering {
        Lowering::Bounded => p.rule_rel_join(
            "triangles",
            triangle.lt_ab(Probe::b, Edge::to),
            move |ctx, (p, e1, _e2)| ctx.put_rel(emit(p, e1)),
        ),
        #[cfg(test)]
        Lowering::Filtered => {
            p.rule_rel_join("triangles-filtered", triangle, move |ctx, (p, e1, _e2)| {
                if p.b < e1.to {
                    ctx.put_rel(emit(p, e1));
                }
            })
        }
        #[cfg(test)]
        Lowering::NestedLoop => p.rule_rel("triangles-nested", move |ctx, p: Probe| {
            for e1 in ctx.query_rel(Edge::query().eq(Edge::from, p.b)) {
                let closing = Edge::query().eq(Edge::from, e1.to).eq(Edge::to, p.a);
                for _e2 in ctx.query_rel(closing) {
                    // The bound, checked once the combination exists.
                    if p.b < e1.to {
                        ctx.put_rel(emit(p, e1));
                    }
                }
            }
        }),
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

/// Per-app optimisation flags in the paper's style: `Edge` never
/// triggers a rule (`-noDelta`) and is only ever probed by its `from`
/// field, so it gets a sharded hash index; `Load` and `Probe` are
/// trigger-only (`-noGamma`).
pub fn optimised_config(app: &TrianglesApp, config: EngineConfig) -> EngineConfig {
    config.no_delta(app.edge).no_gamma(app.load).store(
        app.edge,
        StoreKind::Hash {
            index_fields: vec!["from".into()],
        },
    )
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

/// `a = x→y`, `b = x→z`, `c = z→y` with `x < y < z`: each triangle in
/// exactly one orientation. `x < y` is a root check on `a`, `y < z`
/// runs as `b` is matched, so only the surviving `(a, b)` wedges seek
/// `C`.
fn triangle_join() -> Join3<Edge, Edge, Edge> {
    join3::<Edge, Edge, Edge>()
        .on_ab(Edge::from, Edge::from)
        .on_bc(Edge::to, Edge::from)
        .on_ac(Edge::to, Edge::to)
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
        let [joined, filtered, nested] =
            [Lowering::Bounded, Lowering::Filtered, Lowering::NestedLoop]
                .map(|lowering| build(spec, lowering));

        for base in [
            EngineConfig::sequential(),
            EngineConfig::parallel(2),
            EngineConfig::parallel(4),
        ] {
            let threads = base.threads;
            let (dj_count, dj) = run_app(&joined, base.clone()).unwrap();
            let (fi_count, fi) = run_app(&filtered, base.clone()).unwrap();
            let (pt_count, pt) = run_app(&nested, base).unwrap();

            assert_eq!(dj_count, want, "{threads} threads");
            assert_eq!(fi_count, want, "{threads} threads");
            assert_eq!(pt_count, want, "{threads} threads");
            assert!(dj.delta_join_classes > 0, "batched mode engaged: {dj:?}");
            assert!(dj.join_cursor_opens > 0, "cursors opened: {dj:?}");
            assert!(dj.delta_join_build_tuples > 0);
            assert_eq!(pt.delta_join_classes, 0, "per-tuple mode engaged: {pt:?}");
            assert_eq!(pt.join_cursor_opens, 0, "per-tuple mode opens no cursors");
            assert!(
                dj.gamma_probes + dj.join_seeks < pt.gamma_probes,
                "{threads} threads: merged walk does less store searching: \
                 dj probes={} seeks={} vs nested-loop probes={}",
                dj.gamma_probes,
                dj.join_seeks,
                pt.gamma_probes
            );
            // The bound stated in the builder prunes at stage 1, so
            // stage 2 seeks for at most half the wedges it did when the
            // bound ran in `emit` after the whole combination.
            assert!(
                2 * dj.join_seeks <= fi.join_seeks,
                "{threads} threads: bounded seeks={} vs filtered seeks={}",
                dj.join_seeks,
                fi.join_seeks
            );
        }
    }

    #[test]
    fn join_rules_expose_plans() {
        let app = build_program(small_spec());
        let rules = app.program.rules();
        assert!(rules[0].plan.is_none(), "load-graph is opaque");
        let plan = rules[1].plan.as_ref().expect("triangles has a plan");
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
            vec![((1, 1), 0), ((0, 0), 1)],
            "e1.to = e2.from (the walked column), Probe.a = e2.to (residual)"
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
            let misses = |e: &Engine| e.gamma().index_cache().stats().misses;
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
                assert_eq!((a.from, b.to, c.to), (b.from, c.from, a.to));
                walked += 1;
            });
            assert_eq!(walked, want, "{threads} threads");
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
