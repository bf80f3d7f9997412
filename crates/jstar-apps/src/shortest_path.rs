//! Dijkstra's shortest path — §6.5, Fig. 5, Fig. 12.
//!
//! "This generates a random connected graph with one million vertices and
//! two million edges, and then uses Dijkstra's shortest-path algorithm to
//! find the shortest path from the starting vertex (0) to each vertex ...
//! It is quite concise, because the Delta tree acts as the priority queue
//! (ordered by the distance to the vertex), which is the main data
//! structure used in this algorithm."
//!
//! Graph creation was originally one rule; "due to the overhead of random
//! number generation, this phase was a bottleneck, taking more than 60% of
//! the total time. So we modified the JStar program to allow more
//! parallelism, by splitting the graph creation into 24 separate tasks
//! (tuples)." — reproduced here via [`GraphSpec::tasks`] GenTask tuples in
//! one `par` equivalence class.
//!
//! Per the paper's optimisation pass: `-noDelta` on the non-trigger tables
//! (Edge, Done) and `-noGamma` on Estimate (trigger-only).

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

jstar_table! {
    /// One graph-generation task (the paper's 24-way split).
    #[derive(Copy, Eq)]
    pub GenTask(int id) orderby (Gen, par id)
}

jstar_table! {
    /// `table Edge(int from, int to, int value) orderby (Edge)` — Fig. 5.
    #[derive(Copy, Eq)]
    pub Edge(int from, int to, int value) orderby (Edge)
}

jstar_table! {
    /// `table Estimate(int vertex, int distance)
    ///  orderby (Int, seq distance, Estimate)` — Fig. 5. The Delta tree
    /// *is* the priority queue, ordered by distance.
    #[derive(Copy, Eq)]
    pub Estimate(int vertex, int distance)
        orderby (Int, seq distance, Estimate)
}

jstar_table! {
    /// `table Done(int vertex -> int distance)
    ///  orderby (Int, seq distance, Done)` — Fig. 5.
    #[derive(Copy, Eq)]
    pub Done(int vertex -> int distance)
        orderby (Int, seq distance, Done)
}

/// Random-graph parameters.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Number of vertices (paper: 1,000,000).
    pub n: u32,
    /// Extra random edges beyond the spanning tree (paper: 1,000,000).
    pub extra: u32,
    /// Graph-generation tasks (paper: 24).
    pub tasks: u32,
    /// RNG seed.
    pub seed: u64,
}

impl GraphSpec {
    pub fn new(n: u32, extra: u32, tasks: u32, seed: u64) -> Self {
        assert!(n >= 1);
        GraphSpec {
            n,
            extra,
            tasks: tasks.clamp(1, n),
            seed,
        }
    }
}

/// The edges generated by one task — a deterministic function of
/// `(spec, task)`, so the JStar rules and the baseline build exactly the
/// same graph. Task `t` owns a contiguous vertex range: for each owned
/// vertex `i > 0` it emits the tree edge `parent(i) -> i` (parent random
/// below `i`, guaranteeing reachability from vertex 0), plus its share of
/// the extra random edges. Weights are uniform 1..=10, matching "each edge
/// has a random length between 1 to 10".
pub fn task_edges(spec: &GraphSpec, task: u32) -> Vec<(u32, u32, u32)> {
    let per = spec.n.div_ceil(spec.tasks);
    let lo = task * per;
    let hi = ((task + 1) * per).min(spec.n);
    if lo >= hi {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ (0x9E37_79B9 + task as u64));
    let mut edges = Vec::new();
    for i in lo.max(1)..hi {
        let parent = rng.gen_range(0..i);
        let w = rng.gen_range(1..=10);
        edges.push((parent, i, w));
    }
    // Extra edges: distribute spec.extra across tasks.
    let extra_per = spec.extra / spec.tasks + u32::from(task < spec.extra % spec.tasks);
    for _ in 0..extra_per {
        let from = rng.gen_range(0..spec.n);
        let to = rng.gen_range(0..spec.n);
        let w = rng.gen_range(1..=10);
        edges.push((from, to, w));
    }
    edges
}

/// All edges of the graph (concatenation over tasks).
pub fn all_edges(spec: &GraphSpec) -> Vec<(u32, u32, u32)> {
    (0..spec.tasks).flat_map(|t| task_edges(spec, t)).collect()
}

/// Adjacency-list form for the baseline.
pub fn adjacency(spec: &GraphSpec) -> Vec<Vec<(u32, u32)>> {
    let mut adj = vec![Vec::new(); spec.n as usize];
    for (from, to, w) in all_edges(spec) {
        adj[from as usize].push((to, w));
    }
    adj
}

/// Hand-coded baseline: binary-heap Dijkstra (the paper's Java version
/// "uses a PriorityQueue"). Returns the distance to each vertex
/// (`i64::MAX` if unreachable — cannot happen with the tree edges).
pub fn dijkstra_baseline(adj: &[Vec<(u32, u32)>], source: u32) -> Vec<i64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![i64::MAX; adj.len()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0i64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(to, w) in &adj[v as usize] {
            let nd = d + w as i64;
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                heap.push(Reverse((nd, to)));
            }
        }
    }
    dist
}

/// The built program plus handles.
pub struct ShortestPathApp {
    pub program: Arc<Program>,
    pub gen_task: TableId,
    pub edge: TableId,
    pub estimate: TableId,
    pub done: TableId,
}

/// Builds the Fig. 5 program.
pub fn build_program(spec: GraphSpec) -> ShortestPathApp {
    let mut p = ProgramBuilder::new();

    // The typed declarations above carry the schemas; registration
    // assigns the table ids in declaration order.
    let gen_task = p.relation::<GenTask>().id();
    let edge = p.relation::<Edge>().id();
    let estimate = p.relation::<Estimate>().id();
    let done = p.relation::<Done>().id();
    // order Gen < Edge < Int; order Estimate < Done (Fig. 5's orders, with
    // Gen standing in for the Vertex stratum).
    p.order(&["Gen", "Edge", "Int"]);
    p.order(&["Estimate", "Done"]);

    // Graph generation: 24 independent tasks (one par class).
    let gen_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "Edge".into(),
            guard: vec![],
            bindings: vec![],
            label: "generate edges".into(),
        }],
        queries: vec![],
    };
    p.rule_rel_with_model("generate-graph", gen_model, move |ctx, t: GenTask| {
        let task = t.id as u32;
        for (from, to, w) in task_edges(&spec, task) {
            ctx.put_rel(Edge {
                from: from as i64,
                to: to as i64,
                value: w as i64,
            });
        }
    });

    // The Dijkstra rule, verbatim from Fig. 5.
    let dijkstra_model = {
        let mut cx = ModelCtx::new();
        // Done put: same distance, Estimate < Done stratum.
        let done_bindings = cx.out("distance").eq_(&cx.trig("distance"));
        // Estimate put: distance + weight, weight >= 1.
        let w = cx.aux("weight");
        let mut est_bindings = cx
            .out("distance")
            .eq_(&(cx.trig("distance").clone() + w.clone()));
        est_bindings.push(w.ge(&cx.k(1)));
        // Negative query 1: Done(dist.vertex, [distance < dist.distance]).
        let q1 = vec![cx.q("distance").lt(&cx.trig("distance"))];
        // Negative query 2: Done(edge.to). The Dijkstra frontier invariant
        // (every Done tuple was finalised at a distance at most the current
        // frontier; ties resolve within the same step where Done is not yet
        // visible) justifies declaring q.distance < trig.distance — the
        // paper relies on the same programmer-supplied invariant style.
        let q2 = vec![cx.q("distance").lt(&cx.trig("distance"))];
        CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![
                PutModel {
                    out_table: "Done".into(),
                    guard: vec![],
                    bindings: done_bindings,
                    label: "finalise vertex".into(),
                },
                PutModel {
                    out_table: "Estimate".into(),
                    guard: vec![],
                    bindings: est_bindings,
                    label: "relax edge".into(),
                },
            ],
            queries: vec![
                QueryModel {
                    q_table: "Done".into(),
                    guard: vec![],
                    bindings: q1,
                    label: "uniq? Done(vertex)".into(),
                },
                QueryModel {
                    q_table: "Done".into(),
                    guard: vec![],
                    bindings: q2,
                    label: "uniq? Done(edge.to)".into(),
                },
            ],
        }
    };
    // The inner loop runs millions of times with queries that differ
    // only in trigger-derived values: prepare them once per rule with
    // bind slots, so an invocation lends its values to the store instead
    // of rebuilding eq/range vectors (and allocating) per call. The
    // typed binder (`.binder().set(...)`) names slots by `Field` token,
    // so values supplied in the wrong order cannot compile into a wrong
    // query.
    let done_h = p.relation::<Done>();
    let edge_h = p.relation::<Edge>();
    let finalised_at_most = Done::query()
        .bind_eq(Done::vertex)
        .bind_le(Done::distance)
        .prepare(done_h);
    let edges_from = Edge::query().bind_eq(Edge::from).prepare(edge_h);
    let done_probe = Done::query().bind_eq(Done::vertex).prepare(done_h);
    p.rule_rel_with_model("dijkstra", dijkstra_model, move |ctx, dist: Estimate| {
        let (v, d) = (dist.vertex, dist.distance);
        // if (get uniq? Done(dist.vertex, [distance < dist.distance]) == null)
        // (distance <= d also suppresses re-finalising at an equal
        // distance from a later step.)
        if ctx.none_rel(
            finalised_at_most
                .binder()
                .set(Done::vertex, v)
                .set(Done::distance, d),
        ) {
            ctx.put_rel(Done {
                vertex: v,
                distance: d,
            });
            // process all adjacent nodes not yet done
            ctx.for_each_rel(edges_from.binder().set(Edge::from, v), |e: Edge| {
                if ctx.none_rel(done_probe.binder().set(Done::vertex, e.to)) {
                    ctx.put_rel(Estimate {
                        vertex: e.to,
                        distance: d + e.value,
                    });
                }
                true
            });
        }
    });

    // Initial puts: the generation tasks and the origin estimate.
    for task in 0..spec.tasks {
        p.put_rel(GenTask { id: task as i64 });
    }
    p.put_rel(Estimate {
        vertex: 0,
        distance: 0,
    });

    ShortestPathApp {
        program: Arc::new(p.build().expect("shortest-path program builds")),
        gen_task,
        edge,
        estimate,
        done,
    }
}

/// Applies the paper's optimisation flags: Edge/Done skip the Delta tree
/// (they never trigger rules) and Estimate skips Gamma (trigger-only).
/// Both probed tables keep the default store, which already serves their
/// queries: `Done.vertex` is its key, and `Edge` — which triggers no
/// rule, and closes (`order Gen < Edge < Int`) before the first
/// `Estimate` reads it — is a write-once table, whose sorted view is
/// grouped by `Edge.from`, its first column.
pub fn optimised_config(app: &ShortestPathApp, config: EngineConfig) -> EngineConfig {
    config
        .no_delta(app.edge)
        .no_delta(app.done)
        .no_gamma(app.estimate)
        .no_gamma(app.gen_task)
}

/// Runs the JStar program and returns `dist[vertex]` (`i64::MAX` when a
/// vertex was never finalised).
pub fn run_jstar(spec: GraphSpec, config: EngineConfig) -> Result<Vec<i64>> {
    run_jstar_report(spec, config).map(|(dist, _)| dist)
}

/// Like [`run_jstar`], but also returns the engine's [`RunReport`] so
/// callers (the hot-path exhibits) can read throughput and the
/// drain/execute split.
pub fn run_jstar_report(spec: GraphSpec, config: EngineConfig) -> Result<(Vec<i64>, RunReport)> {
    let app = build_program(spec);
    let config = optimised_config(&app, config);
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    let mut dist = vec![i64::MAX; spec.n as usize];
    engine.for_each_rel_gamma(Done::query(), |d: Done| {
        dist[d.vertex as usize] = d.distance;
        true
    });
    Ok((dist, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> GraphSpec {
        GraphSpec::new(300, 300, 4, 42)
    }

    #[test]
    fn graph_generation_is_deterministic_and_task_partitioned() {
        let spec = small_spec();
        let a = all_edges(&spec);
        let b = all_edges(&spec);
        assert_eq!(a, b);
        // Tree edges: exactly n-1 of them plus the extras.
        assert_eq!(a.len() as u32, spec.n - 1 + spec.extra);
        // Tree edges keep every vertex reachable: parent < child.
        let tree: Vec<_> = (0..spec.tasks)
            .flat_map(|t| task_edges(&spec, t))
            .filter(|(f, t, _)| f < t)
            .collect();
        assert!(tree.len() as u32 >= spec.n - 1);
    }

    #[test]
    fn weights_in_paper_range() {
        let spec = small_spec();
        assert!(all_edges(&spec)
            .iter()
            .all(|&(_, _, w)| (1..=10).contains(&w)));
    }

    #[test]
    fn program_passes_strict_validation() {
        let app = build_program(small_spec());
        app.program.validate_strict().unwrap();
    }

    #[test]
    fn jstar_matches_heap_dijkstra_sequential() {
        let spec = small_spec();
        let want = dijkstra_baseline(&adjacency(&spec), 0);
        let got = run_jstar(spec, EngineConfig::sequential()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn jstar_matches_heap_dijkstra_parallel() {
        let spec = small_spec();
        let want = dijkstra_baseline(&adjacency(&spec), 0);
        for threads in [2, 4] {
            let got = run_jstar(spec, EngineConfig::parallel(threads)).unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn all_vertices_reachable() {
        let spec = small_spec();
        let dist = run_jstar(spec, EngineConfig::sequential()).unwrap();
        assert!(dist.iter().all(|&d| d != i64::MAX));
        assert_eq!(dist[0], 0);
    }

    #[test]
    fn single_vertex_graph() {
        let spec = GraphSpec::new(1, 0, 1, 7);
        let dist = run_jstar(spec, EngineConfig::sequential()).unwrap();
        assert_eq!(dist, vec![0]);
    }

    #[test]
    fn estimate_tuples_flood_the_delta_tree() {
        // The paper's diagnosis: "the inner loop of the program puts
        // several million Estimate tuples through the Delta tree".
        let spec = small_spec();
        let app = build_program(spec);
        let config = optimised_config(&app, EngineConfig::sequential());
        let mut engine = Engine::new(Arc::clone(&app.program), config);
        engine.run().unwrap();
        let est = engine.stats().tables[app.estimate.index()].snapshot();
        assert!(
            est.delta_inserts as u32 > spec.n,
            "estimates dominate delta traffic: {est:?}"
        );
        let edges = engine.stats().tables[app.edge.index()].snapshot();
        assert_eq!(edges.delta_inserts, 0, "-noDelta Edge");
    }
}
