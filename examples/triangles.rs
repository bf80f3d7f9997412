//! Triangle counting — the multi-way join workload.
//!
//! One join rule lists every triangle `a < b < c` of a random graph as
//! two sorted-list intersections over the `Edge.from` view; a read-side
//! `join3` counts them again after the run, and a hand-coded merge of
//! sorted adjacency lists counts them a third time. The three must
//! agree, sequentially and in parallel.
//!
//! ```text
//! cargo run --release --example triangles [vertices] [edges] [threads]
//! ```

use jstar::apps::triangles::{self, TriSpec, Triangle};
use jstar::core::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn main() -> Result<()> {
    let arg = |i: usize, default: u32| -> u32 {
        std::env::args()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let spec = TriSpec::new(arg(1, 2_000), arg(2, 12_000), 8, 7);
    let threads = arg(3, 2) as usize;
    let edges = triangles::edge_list(&spec).len();
    println!("random graph: {} vertices, {edges} edges", spec.n);

    let want = triangles::triangles_baseline(&spec);
    println!("hand-coded baseline:     {want} triangles");

    let app = triangles::build_program(spec);
    app.program.validate_strict()?;
    for base in [EngineConfig::sequential(), EngineConfig::parallel(threads)] {
        let label = format!("{} thread(s)", base.threads);
        let config = triangles::optimised_config(&app, base);
        let mut engine = Engine::new(Arc::clone(&app.program), config);
        let report = engine.run()?;
        let listed = engine.collect_rel(Triangle::query()).len() as u64;
        let joined = triangles::count_via_join3(&engine);
        let seeks = engine.stats().join_seeks.load(Ordering::Relaxed);
        println!(
            "JStar, {label}: rule {listed}, join3 {joined}; join_seeks {} (rule) + {} (join3)",
            report.join_seeks,
            seeks - report.join_seeks
        );
        assert_eq!(listed, want, "{label}: the rule lists every triangle once");
        assert_eq!(joined, want, "{label}: the read-side join3 agrees");
    }
    Ok(())
}
