//! Shared workload builders and measured runners, used by both the
//! Criterion benches and the `figures` binary so that every exhibit runs
//! exactly the same code.

use crate::{scaled, time_once};
use jstar_apps::matmul;
use jstar_apps::median;
use jstar_apps::pvwatts::{self, DisruptorConfig, InputOrder, Variant};
use jstar_apps::shortest_path::{self, GraphSpec};
use jstar_apps::triangles::{self, TriSpec};
use jstar_core::prelude::*;
use jstar_pool::ThreadPool;
use std::sync::Arc;
use std::time::Duration;

/// PvWatts CSV at the harness scale. Scale 1 ≈ 87,600 records (1 % of the
/// paper's 8,760,000); scale 100 = the paper's full size.
pub fn pvwatts_csv(order: InputOrder) -> Arc<Vec<u8>> {
    Arc::new(pvwatts::generate_csv(scaled(87_600, 8_760), order))
}

/// MatrixMult dimension. Scale 1 → N=400 (paper's N=1000 ≈ scale 16,
/// since cost grows as N³).
pub fn matmul_n() -> usize {
    (400.0 * crate::scale().cbrt()) as usize
}

/// Dijkstra graph spec. Scale 1 → 50k vertices / 100k edges (paper: 1M/2M
/// at scale 20).
pub fn dijkstra_spec() -> GraphSpec {
    let n = scaled(50_000, 1_000) as u32;
    GraphSpec::new(n, n, 24, 0xD1785)
}

/// Median array length. Scale 1 → 10M doubles (paper: 100M at scale 10).
pub fn median_len() -> usize {
    scaled(10_000_000, 10_000)
}

/// Triangle-counting graph spec (the delta-join exhibit). Scale 1 →
/// 20k vertices, ~80k undirected edges; the `Probe` and `Wedge` strata
/// pop as single wide classes, so this is the workload where batched
/// delta-join execution shows up directly in the Gamma probe counters.
pub fn triangles_spec() -> TriSpec {
    let n = scaled(20_000, 500) as u32;
    TriSpec::new(n, 4 * n, 24, 0x7A1A)
}

/// Runs PvWatts under a variant/engine config; returns wall time.
pub fn run_pvwatts(
    csv: &Arc<Vec<u8>>,
    readers: usize,
    variant: Variant,
    config: EngineConfig,
) -> Duration {
    let (result, d) = time_once(|| {
        pvwatts::run_jstar(Arc::clone(csv), readers, variant, config).expect("pvwatts runs")
    });
    assert!(!result.0.is_empty());
    d
}

/// Runs the Disruptor PvWatts; returns wall time.
pub fn run_pvwatts_disruptor(csv: &[u8], cfg: DisruptorConfig) -> Duration {
    let (result, d) = time_once(|| pvwatts::disruptor_version::run(csv, cfg));
    assert!(!result.is_empty());
    d
}

/// Runs the hand-coded PvWatts baseline; returns wall time.
pub fn run_pvwatts_baseline(csv: &[u8]) -> Duration {
    let (result, d) = time_once(|| pvwatts::baseline::monthly_means_string_style(csv));
    assert!(!result.is_empty());
    d
}

/// Runs JStar MatrixMult; returns wall time.
pub fn run_matmul(
    n: usize,
    a: &Arc<Vec<i64>>,
    b: &Arc<Vec<i64>>,
    config: EngineConfig,
) -> Duration {
    let (c, d) = time_once(|| {
        matmul::run_jstar(n, Arc::clone(a), Arc::clone(b), config).expect("matmul runs")
    });
    assert_eq!(c.len(), n * n);
    d
}

/// Runs JStar Dijkstra; returns wall time.
pub fn run_dijkstra(spec: GraphSpec, config: EngineConfig) -> Duration {
    let (dist, d) = time_once(|| shortest_path::run_jstar(spec, config).expect("dijkstra runs"));
    assert_eq!(dist[0], 0);
    d
}

/// Runs JStar triangle counting; returns wall time.
pub fn run_triangles(spec: TriSpec, config: EngineConfig) -> Duration {
    let (count, d) = time_once(|| triangles::run_jstar(spec, config).expect("triangles runs"));
    assert!(count > 0, "the bench graph must contain triangles");
    d
}

/// Runs JStar Median; returns wall time.
pub fn run_median(data: &Arc<Vec<f64>>, regions: usize, config: EngineConfig) -> Duration {
    let (m, d) =
        time_once(|| median::run_jstar(Arc::clone(data), regions, config).expect("median runs"));
    assert!(m.is_finite());
    d
}

/// §6.3's phase breakdown of the optimised PvWatts program at one thread:
/// read+parse / create-and-insert-Gamma / SumMonth-Delta / reduce.
/// Returns `(name, seconds)` per phase.
pub fn pvwatts_phase_breakdown(csv: &[u8]) -> Vec<(&'static str, f64)> {
    use jstar_core::delta::DeltaTree;

    // Phase 1: reading and parsing the input.
    let (records, t_read) = time_once(|| {
        jstar_csv::records(csv)
            .filter_map(|r| pvwatts::data::parse_record(&r))
            .collect::<Vec<_>>()
    });

    // Phase 2: creating PvWatts tuples and inserting into their Gamma
    // table (hash store on year/month, as in the optimised program).
    let def = Arc::new(
        jstar_core::schema::TableDefBuilder::standalone("PvWatts")
            .col_int("year")
            .col_int("month")
            .col_int("day")
            .col_int("hour")
            .col_int("power")
            .orderby(&[strat("PvWatts")])
            .build_def(TableId(0)),
    );
    let store = jstar_core::gamma::HashStore::new(Arc::clone(&def), vec![0, 1]);
    let (tuples, t_insert) = time_once(|| {
        let mut tuples = Vec::with_capacity(records.len());
        for r in &records {
            let t = Tuple::new(
                def.id,
                vec![
                    Value::Int(r.year),
                    Value::Int(r.month),
                    Value::Int(r.day),
                    Value::Int(r.hour),
                    Value::Int(r.power),
                ],
            );
            jstar_core::gamma::TableStore::insert(&store, t.clone());
            tuples.push(t);
        }
        tuples
    });

    // Phase 3: creating SumMonth tuples and inserting into the Delta tree.
    let sum_def = Arc::new(
        jstar_core::schema::TableDefBuilder::standalone("SumMonth")
            .col_int("year")
            .col_int("month")
            .orderby(&[strat("SumMonth")])
            .build_def(TableId(1)),
    );
    let key = jstar_core::orderby::OrderKey::from_parts([jstar_core::orderby::KeyPart::Strat(1)]);
    let (_, t_delta) = time_once(|| {
        let mut tree = DeltaTree::new();
        for t in &tuples {
            let sm = Tuple::new(sum_def.id, vec![t.get(0).clone(), t.get(1).clone()]);
            tree.insert(&key, sm);
        }
        tree.len()
    });

    // Phase 4: processing the SumMonth tuples with the Statistics reducer.
    let months: std::collections::BTreeSet<(i64, i64)> =
        records.iter().map(|r| (r.year, r.month)).collect();
    let (_, t_reduce) = time_once(|| {
        let mut total = 0.0f64;
        for &(y, m) in &months {
            let q = Query::on(def.id).eq(0, y).eq(1, m);
            let mut stats = jstar_core::reduce::Stats::empty();
            jstar_core::gamma::TableStore::query(&store, q.probe(), &mut |t| {
                stats.add(t.int(4) as f64);
                true
            });
            total += stats.mean();
        }
        total
    });

    vec![
        ("reading and parsing the input file", t_read.as_secs_f64()),
        (
            "creating PvWatts tuples and inserting into Gamma",
            t_insert.as_secs_f64(),
        ),
        (
            "creating SumMonth tuples and inserting into the Delta tree",
            t_delta.as_secs_f64(),
        ),
        (
            "processing SumMonth tuples (Statistics reducer)",
            t_reduce.as_secs_f64(),
        ),
    ]
}

/// Amdahl bound from a serial fraction and worker count (the paper:
/// `1/(0.169 + (1-0.169)/12) = 4.2×`).
pub fn amdahl(serial_fraction: f64, workers: usize) -> f64 {
    1.0 / (serial_fraction + (1.0 - serial_fraction) / workers as f64)
}

/// A shared pool for sweeps, rebuilt per thread count.
pub fn pool_of(threads: usize) -> Arc<ThreadPool> {
    Arc::new(ThreadPool::new(threads))
}

/// Parallel engine config on a shared pool.
pub fn par_config(threads: usize) -> EngineConfig {
    let mut c = EngineConfig::parallel(threads);
    c.pool = Some(pool_of(threads));
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_matches_paper() {
        // §6.3: "the maximum speedup we could expect would be 4.2X".
        let bound = amdahl(0.169, 12);
        assert!((bound - 4.2).abs() < 0.05, "{bound}");
    }

    #[test]
    fn phase_breakdown_sums_to_positive_time() {
        let csv = pvwatts::generate_csv(5_000, InputOrder::Chronological);
        let phases = pvwatts_phase_breakdown(&csv);
        assert_eq!(phases.len(), 4);
        assert!(phases.iter().all(|&(_, t)| t >= 0.0));
        assert!(phases.iter().map(|&(_, t)| t).sum::<f64>() > 0.0);
    }

    #[test]
    fn runners_smoke() {
        let csv = Arc::new(pvwatts::generate_csv(2_000, InputOrder::Chronological));
        run_pvwatts(&csv, 2, Variant::HashStore, EngineConfig::sequential());
        run_pvwatts_baseline(&csv);
        run_pvwatts_disruptor(
            &csv,
            DisruptorConfig {
                consumers: 2,
                ..Default::default()
            },
        );
        let n = 8;
        let a = Arc::new(matmul::gen_matrix(n, 1));
        let b = Arc::new(matmul::gen_matrix(n, 2));
        run_matmul(n, &a, &b, EngineConfig::sequential());
        run_dijkstra(GraphSpec::new(200, 200, 4, 1), EngineConfig::sequential());
        run_triangles(TriSpec::new(100, 400, 4, 1), EngineConfig::sequential());
        let data = Arc::new(median::gen_data(1_000, 1));
        run_median(&data, 4, EngineConfig::sequential());
    }
}
