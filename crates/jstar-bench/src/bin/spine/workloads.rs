//! The five workloads: seeded inputs, hand-coded references, jobs and
//! the per-workload hooks the layer probes need.
//!
//! Why these five (the README has the long form): `pvwatts` is bound by
//! CSV parsing and Gamma *writes*, `matmul` is the control where only
//! the pool and the rule body matter, `dijkstra` is bound by the Delta
//! queue and Gamma *point probes*, `triangles` by ordered Gamma *reads*
//! through cursors, and `dijkstra-ckpt` adds the bulk export/import
//! paths of `persist`. Each optimisation of one layer therefore has a
//! workload that exercises it and one that bypasses it.

use crate::adapter::{self, Arm, Counters, Pools};
use crate::json::{obj, Json};
use crate::trace::Tracer;
use jstar_apps::pvwatts::{self, InputOrder, PvWatts, Variant};
use jstar_apps::shortest_path::{self, Done, Edge, Estimate, GraphSpec};
use jstar_apps::triangles::{self, TriSpec, Triangle};
use jstar_apps::{matmul, matmul::Matrix};
use jstar_core::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this one.
use std::hint::black_box;
use std::path::PathBuf;
use std::result::Result;
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "pvwatts",
    "matmul",
    "dijkstra",
    "triangles",
    "dijkstra-ckpt",
];

/// Input sizes. Constants, recorded in every result file;
/// `JSTAR_BENCH_SCALE` is deliberately not read.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub pvwatts_records: usize,
    pub matmul_n: usize,
    pub dijkstra_vertices: u32,
    pub triangles_vertices: u32,
    pub triangles_edges: u32,
    pub ckpt_vertices: u32,
    pub ckpt_every: u64,
    pub gen_tasks: u32,
}

pub const FULL: Sizes = Sizes {
    pvwatts_records: 140_160, // 16 years of hourly records
    matmul_n: 456,            // a row is 57 cache lines: odd, so columns spread over all sets
    dijkstra_vertices: 40_000,
    triangles_vertices: 6_000,
    triangles_edges: 24_000,
    ckpt_vertices: 16_000,
    ckpt_every: 20,
    gen_tasks: 24,
};

pub const QUICK: Sizes = Sizes {
    pvwatts_records: 8_760,
    matmul_n: 48,
    dijkstra_vertices: 1_500,
    triangles_vertices: 400,
    triangles_edges: 1_600,
    ckpt_vertices: 1_000,
    ckpt_every: 20,
    gen_tasks: 8,
};

/// splitmix64 — the only generator the benchmark owns; everything else
/// is seeded through the apps' own `*Spec` types.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall times of one job's phases; `job_s` is their sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTimes {
    pub new_s: f64,
    pub run_s: f64,
    pub extract_s: f64,
}

impl JobTimes {
    pub fn job_s(&self) -> f64 {
        self.new_s + self.run_s + self.extract_s
    }
}

/// One finished, verified job.
pub struct Job {
    pub times: JobTimes,
    pub counters: Counters,
    /// `dijkstra-ckpt` primary arm: `restore_latest` + resume.
    pub restore_s: Option<f64>,
    /// `dijkstra-ckpt` primary arm: `Engine::new` + `run` of the
    /// checkpointing engine — the numerator of `ckpt_overhead`.
    pub ckpt_run_s: Option<f64>,
    /// The finished engine, for the probes to read tuples from.
    pub engine: Engine,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `Engine::new` → `run` → `extract` → `verify`, each under a span. The
/// job's clock covers the first three; verification is the harness's
/// cost, not the user's.
fn engine_job<O>(
    program: &Arc<Program>,
    config: EngineConfig,
    tr: &mut Tracer,
    extract: impl FnOnce(&Engine, &RunReport) -> O,
    verify: impl FnOnce(&O) -> Result<(), String>,
) -> Result<Job, String> {
    let t = Instant::now();
    let mut engine = tr.span("engine_new", |_| Engine::new(Arc::clone(program), config));
    let new_s = secs_since(t);
    let t = Instant::now();
    let report = tr
        .span("run", |_| engine.run())
        .map_err(|e| format!("run failed: {e}"))?;
    let run_s = secs_since(t);
    let t = Instant::now();
    let out = tr.span("extract", |_| extract(&engine, &report));
    let extract_s = secs_since(t);
    tr.span("verify", |_| verify(&out))?;
    Ok(Job {
        times: JobTimes {
            new_s,
            run_s,
            extract_s,
        },
        counters: adapter::counters(&report, &engine),
        restore_s: None,
        ckpt_run_s: None,
        engine,
    })
}

fn mismatch<T: PartialEq>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differs from the hand-coded reference"))
    }
}

/// Times `reps` calls of a hand-coded baseline and holds every output
/// against the reference.
fn time_handcoded<O: PartialEq>(
    reps: usize,
    what: &str,
    reference: &O,
    baseline: impl Fn() -> O,
) -> Result<f64, String> {
    let reps = reps.max(1);
    let t = Instant::now();
    let outputs: Vec<O> = (0..reps).map(|_| baseline()).collect();
    let s = secs_since(t) / reps as f64;
    outputs
        .iter()
        .try_for_each(|o| mismatch(what, o, reference))
        .map(|()| s)
}

/// What the harness and the probes need from a workload.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Input items behind `items_per_s`, with their unit name.
    fn items(&self) -> (u64, &'static str);
    fn sizes(&self) -> Json;
    fn pools(&self) -> &Pools;
    fn program(&self) -> &Arc<Program>;
    /// The configuration a job of `arm` runs under (default engine
    /// configuration plus the app's own optimisation flags).
    fn config(&self, arm: Arm, traced: bool) -> EngineConfig;
    /// Rebuilds the program from the inputs (what a cold start pays).
    fn rebuild_program(&mut self);
    /// One complete job. `Err` is a failed job.
    fn job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String>;
    /// The side arms, in rotation order.
    fn side_arms(&self) -> &'static [Side] {
        &[Side::Sequential, Side::Handcoded]
    }
    /// The hand-coded baseline on the same input, `reps` calls back to
    /// back (so a baseline of a few milliseconds is timed over about as
    /// long as the job it is paired with): mean seconds per call.
    fn handcoded(&self, reps: usize) -> Result<f64, String>;
    /// Replaces the reference with a wrong one (the oracle's own test).
    #[cfg(test)]
    fn corrupt_reference(&mut self);
    /// Exact bytes per tuple of a full snapshot (`dijkstra-ckpt` only).
    fn snapshot_bytes_per_tuple(&self) -> Option<f64> {
        None
    }

    // ---- hooks for the layer probes ----

    /// `(decode_ns, encode_ns)` per tuple for the relation the job
    /// decodes most, over that relation's own Gamma tuples.
    fn relation_probe(&self, engine: &Engine) -> (f64, f64);
    /// The app's own query shapes against its probed tables:
    /// `(hits, misses)`.
    fn probe_queries(&self, engine: &Engine) -> (Vec<Query>, Vec<Query>);
    /// The `(table, column)` the job's join walks open cursors on.
    fn cursor_column(&self) -> Option<(TableId, usize)> {
        None
    }
    /// The CSV input (`pvwatts` only).
    fn csv(&self) -> Option<&[u8]> {
        None
    }
    /// The tuples that went through the Delta queue, as far as Gamma
    /// still knows them: by default every Gamma tuple of a
    /// Delta-eligible table.
    fn delta_replay(&self, engine: &Engine) -> Vec<Tuple> {
        let config = self.config(Arm::Primary, false);
        adapter::delta_tables(&config, self.program())
            .into_iter()
            .flat_map(|id| engine.gamma().collect(&Query::on(id)))
            .collect()
    }
}

/// A side arm interleaved with the primary jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Sequential,
    Handcoded,
    NoCheckpoint,
}

/// Per-tuple decode (`R::from_tuple`) and encode (`into_values` +
/// `Tuple::new`) cost over `R`'s Gamma tuples.
fn relation_probe_of<R: Relation>(engine: &Engine) -> (f64, f64) {
    let id = engine.handle::<R>().id();
    let mut tuples = Vec::new();
    engine.gamma().query(&Query::on(id), &mut |t| {
        tuples.push(t.clone());
        tuples.len() < crate::probes::REPLAY_CAP
    });
    if tuples.is_empty() {
        return (0.0, 0.0);
    }
    let n = tuples.len() as f64;
    let t = Instant::now();
    let rows: Vec<R> = tuples.iter().map(|t| R::from_tuple(black_box(t))).collect();
    let decode_ns = t.elapsed().as_nanos() as f64 / n;
    let t = Instant::now();
    for row in rows {
        black_box(Tuple::new(id, black_box(row).into_values()));
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / n;
    (decode_ns, encode_ns)
}

/// Builds the named workload from `seed`. This is the benchmark's set-up:
/// input generation, the hand-coded reference, `build_program` and pool
/// creation.
pub fn setup(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    threads: usize,
    out: &std::path::Path,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let pools = tr.span("pool_new", |_| Pools::new(threads));
    Ok(match name {
        "pvwatts" => Box::new(PvWattsWl::new(seed, sizes, pools, tr)),
        "matmul" => Box::new(MatMulWl::new(seed, sizes, pools, tr)),
        "dijkstra" => Box::new(DijkstraWl::new(
            "dijkstra",
            seed,
            sizes.dijkstra_vertices,
            sizes,
            pools,
            None,
            tr,
        )?),
        "dijkstra-ckpt" => Box::new(DijkstraWl::new(
            "dijkstra-ckpt",
            seed,
            sizes.ckpt_vertices,
            sizes,
            pools,
            Some(out.join("ckpt")),
            tr,
        )?),
        "triangles" => Box::new(TrianglesWl::new(seed, sizes, pools, tr)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// ---------------------------------------------------------------- pvwatts

struct PvWattsWl {
    csv: Arc<Vec<u8>>,
    records: usize,
    app: pvwatts::PvWattsApp,
    reference: pvwatts::MonthlyMeans,
    pools: Pools,
}

impl PvWattsWl {
    fn new(seed: u64, sizes: &Sizes, pools: Pools, tr: &mut Tracer) -> Self {
        let (csv, reference) = tr.span("generate_inputs", |tr| {
            let mut records =
                pvwatts::generate_records(sizes.pvwatts_records, InputOrder::Chronological);
            // Daytime power re-drawn from the seed: same keys, same
            // record count, different values — so the means differ per
            // seed while the work does not.
            for (i, r) in records.iter_mut().enumerate() {
                if r.power > 0 {
                    r.power = 100 + (mix(seed ^ (i as u64).wrapping_mul(0x2545_F491)) % 900) as i64;
                }
            }
            let reference = tr.span("reference", |_| pvwatts::data::expected_means(&records));
            (Arc::new(pvwatts::render_csv(&records)), reference)
        });
        let readers = pools.threads;
        let app = tr.span("build_program", |_| {
            pvwatts::build_program(Arc::clone(&csv), readers)
        });
        PvWattsWl {
            csv,
            records: sizes.pvwatts_records,
            app,
            reference,
            pools,
        }
    }
}

impl Workload for PvWattsWl {
    fn name(&self) -> &'static str {
        "pvwatts"
    }
    fn items(&self) -> (u64, &'static str) {
        (self.records as u64, "csv_records")
    }
    fn sizes(&self) -> Json {
        obj([
            ("records", Json::from(self.records)),
            ("csv_bytes", Json::from(self.csv.len())),
            ("readers", Json::from(self.pools.threads)),
            ("variant", Json::from("HashStore")),
        ])
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn program(&self) -> &Arc<Program> {
        &self.app.program
    }
    fn config(&self, arm: Arm, traced: bool) -> EngineConfig {
        pvwatts::apply_variant(
            &self.app,
            Variant::HashStore,
            adapter::base_config(arm, &self.pools, traced),
        )
    }
    fn rebuild_program(&mut self) {
        self.app = pvwatts::build_program(Arc::clone(&self.csv), self.pools.threads);
    }
    fn job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String> {
        let reference = &self.reference;
        engine_job(
            &self.app.program,
            self.config(arm, traced),
            tr,
            |_, report| pvwatts::means_from_output(adapter::output(report)),
            |means| mismatch("monthly means", means, reference),
        )
    }
    fn handcoded(&self, reps: usize) -> Result<f64, String> {
        time_handcoded(reps, "hand-coded monthly means", &self.reference, || {
            pvwatts::baseline::monthly_means_byte_style(black_box(&self.csv))
        })
    }
    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[0].2 += 1.0;
    }
    fn relation_probe(&self, engine: &Engine) -> (f64, f64) {
        relation_probe_of::<PvWatts>(engine)
    }
    fn probe_queries(&self, _engine: &Engine) -> (Vec<Query>, Vec<Query>) {
        // The summarise rule's shape: PvWatts by (year, month).
        let by_month = |year: i64, month: i64| {
            Query::on(self.app.pvwatts)
                .eq(PvWatts::year.index(), year)
                .eq(PvWatts::month.index(), month)
        };
        let hits = self
            .reference
            .iter()
            .map(|&(y, m, _)| by_month(y, m))
            .collect();
        let misses = self
            .reference
            .iter()
            .map(|&(y, m, _)| by_month(y - 1000, m))
            .collect();
        (hits, misses)
    }
    fn csv(&self) -> Option<&[u8]> {
        Some(&self.csv)
    }
}

// ----------------------------------------------------------------- matmul

struct MatMulWl {
    n: usize,
    a: Arc<Vec<i64>>,
    b: Arc<Vec<i64>>,
    app: matmul::MatMulApp,
    reference: Vec<i64>,
    pools: Pools,
}

impl MatMulWl {
    fn new(seed: u64, sizes: &Sizes, pools: Pools, tr: &mut Tracer) -> Self {
        let n = sizes.matmul_n;
        let (a, b) = tr.span("generate_inputs", |_| {
            (
                Arc::new(matmul::gen_matrix(n, seed)),
                Arc::new(matmul::gen_matrix(n, mix(seed))),
            )
        });
        let reference = tr.span("reference", |_| matmul::multiply_transposed(&a, &b, n));
        let app = tr.span("build_program", |_| {
            matmul::build_program(n, Arc::clone(&a), Arc::clone(&b))
        });
        MatMulWl {
            n,
            a,
            b,
            app,
            reference,
            pools,
        }
    }
}

impl Workload for MatMulWl {
    fn name(&self) -> &'static str {
        "matmul"
    }
    fn items(&self) -> (u64, &'static str) {
        ((self.n as u64).pow(3), "multiply_adds")
    }
    fn sizes(&self) -> Json {
        obj([("n", Json::from(self.n))])
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn program(&self) -> &Arc<Program> {
        &self.app.program
    }
    fn config(&self, arm: Arm, traced: bool) -> EngineConfig {
        adapter::base_config(arm, &self.pools, traced)
            .store(self.app.matrix, matmul::MatrixStore::factory(self.n))
    }
    fn rebuild_program(&mut self) {
        self.app = matmul::build_program(self.n, Arc::clone(&self.a), Arc::clone(&self.b));
    }
    fn job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String> {
        let (matrix, reference) = (self.app.matrix, &self.reference);
        engine_job(
            &self.app.program,
            self.config(arm, traced),
            tr,
            |engine, _| {
                engine
                    .gamma()
                    .store(matrix)
                    .as_any()
                    .downcast_ref::<matmul::MatrixStore>()
                    .map(|m| m.extract(matmul::MAT_C))
            },
            |c| match c {
                Some(c) => mismatch("product matrix", c, reference),
                None => Err("Matrix table is not a MatrixStore".into()),
            },
        )
    }
    fn handcoded(&self, reps: usize) -> Result<f64, String> {
        time_handcoded(reps, "hand-coded product", &self.reference, || {
            matmul::multiply_transposed(black_box(&self.a), black_box(&self.b), self.n)
        })
    }
    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[0] += 1;
    }
    fn relation_probe(&self, engine: &Engine) -> (f64, f64) {
        relation_probe_of::<Matrix>(engine)
    }
    fn probe_queries(&self, _engine: &Engine) -> (Vec<Query>, Vec<Query>) {
        // Rule bodies index the native arrays directly; the store's own
        // query shape is the point lookup.
        let cell = |mat: i64, row: usize| {
            Query::on(self.app.matrix)
                .eq(Matrix::mat.index(), mat)
                .eq(Matrix::row.index(), row as i64)
                .eq(Matrix::col.index(), (row * 7 % self.n) as i64)
        };
        let hits = (0..self.n).map(|r| cell(matmul::MAT_C, r)).collect();
        // A dense array has no absent cell: the miss is a value filter
        // that rejects the one candidate.
        let misses = (0..self.n)
            .map(|r| cell(matmul::MAT_C, r).eq(Matrix::value.index(), i64::MIN))
            .collect();
        (hits, misses)
    }
}

// ------------------------------------------------- dijkstra, dijkstra-ckpt

struct DijkstraWl {
    name: &'static str,
    spec: GraphSpec,
    app: shortest_path::ShortestPathApp,
    reference: Vec<i64>,
    pools: Pools,
    /// `dijkstra-ckpt`: where checkpoints go, how often, and what the
    /// uninterrupted run left behind.
    ckpt: Option<Ckpt>,
}

struct Ckpt {
    dir: PathBuf,
    every: u64,
    jobs: u64,
    content_hash: u64,
    bytes_per_tuple: f64,
}

impl Drop for Ckpt {
    fn drop(&mut self) {
        // Every job removed its own directory; this takes the (empty)
        // parent along and fails quietly if anything is left in it.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

fn distances(engine: &Engine, n: u32) -> Vec<i64> {
    let mut dist = vec![i64::MAX; n as usize];
    engine.for_each_rel_gamma(Done::query(), |d: Done| {
        dist[d.vertex as usize] = d.distance;
        true
    });
    dist
}

impl DijkstraWl {
    fn new(
        name: &'static str,
        seed: u64,
        vertices: u32,
        sizes: &Sizes,
        pools: Pools,
        ckpt_dir: Option<PathBuf>,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let spec = GraphSpec::new(vertices, vertices, sizes.gen_tasks, seed);
        let reference = tr.span("reference", |_| {
            shortest_path::dijkstra_baseline(&shortest_path::adjacency(&spec), 0)
        });
        let app = tr.span("build_program", |_| shortest_path::build_program(spec));
        let mut wl = DijkstraWl {
            name,
            spec,
            app,
            reference,
            pools,
            ckpt: None,
        };
        if let Some(dir) = ckpt_dir {
            // The second half of this workload's oracle: the content
            // hash an uninterrupted run reaches (its distances are held
            // against the hand-coded reference right here).
            let job = tr.span("uninterrupted_run", |tr| {
                wl.job(Arm::NoCheckpoint, false, tr)
            })?;
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let snap = dir.join("full.jsnap");
            job.engine
                .snapshot(&snap)
                .map_err(|e| format!("snapshot failed: {e}"))?;
            let bytes = std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();
            let _ = std::fs::remove_file(&snap);
            wl.ckpt = Some(Ckpt {
                dir,
                every: sizes.ckpt_every,
                jobs: 0,
                content_hash: job.engine.content_hash(),
                bytes_per_tuple: bytes as f64 / job.engine.gamma().total_len().max(1) as f64,
            });
        }
        Ok(wl)
    }

    /// Run with checkpoints into a fresh directory, then a second engine
    /// restores the newest checkpoint and resumes to fixpoint.
    fn checkpointed_job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String> {
        let base = self.config(arm, traced);
        let (n, reference) = (self.spec.n, &self.reference);
        let ckpt = self.ckpt.as_mut().ok_or("not a checkpoint workload")?;
        ckpt.jobs += 1;
        let dir = ckpt.dir.join(format!("job-{}", ckpt.jobs));
        let _ = std::fs::remove_dir_all(&dir);
        let want_hash = ckpt.content_hash;

        let t = Instant::now();
        let first = tr.span("checkpointed_run", |tr| {
            engine_job(
                &self.app.program,
                adapter::with_checkpoints(base.clone(), &dir, ckpt.every, 2),
                tr,
                |_, _| (),
                |()| Ok(()),
            )
        })?;
        let ckpt_run_s = secs_since(t);
        let counters = first.counters;
        drop(first.engine);

        let t = Instant::now();
        let mut engine = tr.span("engine_new", |_| {
            Engine::new(Arc::clone(&self.app.program), base)
        });
        let new_s = secs_since(t);
        let t = Instant::now();
        tr.span("restore_latest", |_| engine.restore_latest(&dir))
            .map_err(|e| format!("restore_latest failed: {e}"))?;
        tr.span("resume", |_| engine.run())
            .map_err(|e| format!("resume failed: {e}"))?;
        let restore_s = secs_since(t);
        let t = Instant::now();
        let dist = tr.span("extract", |_| distances(&engine, n));
        let extract_s = secs_since(t);
        let _ = std::fs::remove_dir_all(&dir);
        tr.span("verify", |_| {
            mismatch("restored distances", &dist, reference)?;
            mismatch("restored content hash", &engine.content_hash(), &want_hash)
        })?;
        if counters.checkpoints == 0 {
            return Err("the checkpointing run wrote no checkpoint".into());
        }
        Ok(Job {
            times: JobTimes {
                new_s: first.times.new_s + new_s,
                run_s: first.times.run_s + restore_s,
                extract_s,
            },
            counters,
            restore_s: Some(restore_s),
            ckpt_run_s: Some(ckpt_run_s),
            engine,
        })
    }
}

impl Workload for DijkstraWl {
    fn name(&self) -> &'static str {
        self.name
    }
    fn items(&self) -> (u64, &'static str) {
        ((self.spec.n - 1 + self.spec.extra) as u64, "edges")
    }
    fn sizes(&self) -> Json {
        let mut pairs = vec![
            ("vertices", Json::from(self.spec.n as u64)),
            ("extra_edges", Json::from(self.spec.extra as u64)),
            ("gen_tasks", Json::from(self.spec.tasks as u64)),
        ];
        if let Some(c) = &self.ckpt {
            pairs.push(("checkpoint_every", Json::from(c.every)));
            pairs.push(("checkpoint_keep", Json::from(2usize)));
        }
        obj(pairs)
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn program(&self) -> &Arc<Program> {
        &self.app.program
    }
    fn config(&self, arm: Arm, traced: bool) -> EngineConfig {
        shortest_path::optimised_config(&self.app, adapter::base_config(arm, &self.pools, traced))
    }
    fn rebuild_program(&mut self) {
        self.app = shortest_path::build_program(self.spec);
    }
    fn job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String> {
        if self.ckpt.is_some() && arm != Arm::NoCheckpoint {
            return self.checkpointed_job(arm, traced, tr);
        }
        let (n, reference) = (self.spec.n, &self.reference);
        engine_job(
            &self.app.program,
            self.config(arm, traced),
            tr,
            |engine, _| distances(engine, n),
            |dist| mismatch("distances", dist, reference),
        )
    }
    fn side_arms(&self) -> &'static [Side] {
        if self.ckpt.is_some() {
            &[Side::Sequential, Side::Handcoded, Side::NoCheckpoint]
        } else {
            &[Side::Sequential, Side::Handcoded]
        }
    }
    fn handcoded(&self, reps: usize) -> Result<f64, String> {
        // The JStar job generates the graph inside its rules, so the
        // hand-coded arm builds its adjacency lists inside the clock.
        time_handcoded(reps, "hand-coded distances", &self.reference, || {
            shortest_path::dijkstra_baseline(&shortest_path::adjacency(black_box(&self.spec)), 0)
        })
    }
    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[0] += 1;
    }
    fn snapshot_bytes_per_tuple(&self) -> Option<f64> {
        self.ckpt.as_ref().map(|c| c.bytes_per_tuple)
    }
    fn relation_probe(&self, engine: &Engine) -> (f64, f64) {
        relation_probe_of::<Edge>(engine)
    }
    fn probe_queries(&self, _engine: &Engine) -> (Vec<Query>, Vec<Query>) {
        // The rule's two shapes: Done by vertex, Edge by `from`.
        let n = self.spec.n as i64;
        let done = |v: i64| Query::on(self.app.done).eq(Done::vertex.index(), v);
        let edge = |v: i64| Query::on(self.app.edge).eq(Edge::from.index(), v);
        let sample = (0..n).step_by(((n / 20_000).max(1)) as usize);
        let hits = sample.clone().flat_map(|v| [done(v), edge(v)]).collect();
        let misses = sample.flat_map(|v| [done(v + n), edge(v + n)]).collect();
        (hits, misses)
    }
    fn delta_replay(&self, engine: &Engine) -> Vec<Tuple> {
        // Estimate is trigger-only (`-noGamma`), so Gamma keeps none of
        // the tuples that went through the Delta queue. Each finalised
        // Done(v, d) is the image of the Estimate(v, d) that won: replay
        // those — same table, same order keys, same class structure
        // (minus the estimates that lost).
        engine
            .collect_rel(Done::query())
            .into_iter()
            .map(|d| {
                Tuple::new(
                    self.app.estimate,
                    Estimate {
                        vertex: d.vertex,
                        distance: d.distance,
                    }
                    .into_values(),
                )
            })
            .collect()
    }
}

// -------------------------------------------------------------- triangles

struct TrianglesWl {
    spec: TriSpec,
    edges: u64,
    app: triangles::TrianglesApp,
    reference: u64,
    pools: Pools,
}

impl TrianglesWl {
    fn new(seed: u64, sizes: &Sizes, pools: Pools, tr: &mut Tracer) -> Self {
        let spec = TriSpec::new(
            sizes.triangles_vertices,
            sizes.triangles_edges,
            sizes.gen_tasks,
            seed,
        );
        let reference = tr.span("reference", |_| triangles::triangles_baseline(&spec));
        let app = tr.span("build_program", |_| triangles::build_program(spec));
        TrianglesWl {
            spec,
            edges: triangles::edge_list(&spec).len() as u64,
            app,
            reference,
            pools,
        }
    }
}

impl Workload for TrianglesWl {
    fn name(&self) -> &'static str {
        "triangles"
    }
    fn items(&self) -> (u64, &'static str) {
        (self.edges, "edges")
    }
    fn sizes(&self) -> Json {
        obj([
            ("vertices", Json::from(self.spec.n as u64)),
            ("edges_requested", Json::from(self.spec.m as u64)),
            ("edges", Json::from(self.edges)),
            ("load_tasks", Json::from(self.spec.tasks as u64)),
        ])
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn program(&self) -> &Arc<Program> {
        &self.app.program
    }
    fn config(&self, arm: Arm, traced: bool) -> EngineConfig {
        triangles::optimised_config(&self.app, adapter::base_config(arm, &self.pools, traced))
    }
    fn rebuild_program(&mut self) {
        self.app = triangles::build_program(self.spec);
    }
    fn job(&mut self, arm: Arm, traced: bool, tr: &mut Tracer) -> Result<Job, String> {
        let reference = self.reference;
        engine_job(
            &self.app.program,
            self.config(arm, traced),
            tr,
            |engine, _| {
                let mut listed = 0u64;
                engine.for_each_rel_gamma(Triangle::query(), |_t: Triangle| {
                    listed += 1;
                    true
                });
                (listed, triangles::count_via_join3(engine))
            },
            |&(listed, joined)| {
                mismatch("triangles listed by the rule", &listed, &reference)?;
                mismatch("triangles counted by join3", &joined, &reference)
            },
        )
    }
    fn handcoded(&self, reps: usize) -> Result<f64, String> {
        // `triangles_baseline` draws the edge list itself; the JStar
        // job's loader only stores it. The ratio carries that constant.
        time_handcoded(reps, "hand-coded triangle count", &self.reference, || {
            triangles::triangles_baseline(black_box(&self.spec))
        })
    }
    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference += 1;
    }
    fn relation_probe(&self, engine: &Engine) -> (f64, f64) {
        relation_probe_of::<triangles::Edge>(engine)
    }
    fn probe_queries(&self, _engine: &Engine) -> (Vec<Query>, Vec<Query>) {
        let n = self.spec.n as i64;
        let from = |v: i64| Query::on(self.app.edge).eq(triangles::Edge::from.index(), v);
        (
            (0..n).map(from).collect(),
            (0..n).map(|v| from(v + n)).collect(),
        )
    }
    fn cursor_column(&self) -> Option<(TableId, usize)> {
        Some((self.app.edge, triangles::Edge::from.index()))
    }
}
