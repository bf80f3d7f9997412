//! Per-layer timed probes. Each replays the workload's *own* tuples —
//! collected from the Gamma a traced job left behind — through one
//! layer's public functions in isolation, and reports nanoseconds per
//! tuple (unless the metric's name says otherwise). A layer the job
//! never entered is not probed and reads 0.

use crate::adapter::{self, Arm, Counters};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;
use jstar_core::delta::DeltaTree;
use jstar_core::orderby::OrderKey;
use jstar_core::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At most this many tuples of one table are replayed (matmul's dense
/// store would otherwise hand back 3·N² of them).
pub const REPLAY_CAP: usize = 200_000;

/// Tuple operations one probe should cover before its number is taken:
/// small replay sets (pvwatts' few hundred Delta tuples) repeat more.
const OPS_PER_PROBE: usize = 60_000;

fn reps_for(n: usize) -> usize {
    (OPS_PER_PROBE / n.max(1)).clamp(3, 200)
}

/// Runs `rep` (untimed set-up inside, returns the timed part and the
/// operations it covered) `reps` times under one span and returns the
/// median cost per operation in nanoseconds.
fn probe(
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    reps: usize,
    mut rep: impl FnMut() -> (Duration, usize),
) {
    let per_op: Vec<f64> = tr.span(name, |_| {
        (0..reps)
            .map(|_| {
                let (d, ops) = rep();
                d.as_nanos() as f64 / ops.max(1) as f64
            })
            .collect()
    });
    out.push((name, median(&per_op)));
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Every probe of every layer the job entered.
pub fn run(
    wl: &dyn Workload,
    engine: &Engine,
    job: &Counters,
    scratch: &Path,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    tr.span("probe", |tr| {
        pool_probes(wl, tr, &mut out);
        if let Some(csv) = wl.csv() {
            csv_probe(csv, tr, &mut out);
        }
        delta_probes(wl, engine, tr, &mut out);
        relation_probes(wl, engine, tr, &mut out);
        gamma_store_probes(wl, engine, tr, &mut out);
        if job.cursor_opens > 0 {
            if let Some((table, field)) = wl.cursor_column() {
                cursor_probes(wl, engine, table, field, tr, &mut out);
            }
        }
        if job.checkpoints > 0 {
            persist_probes(wl, engine, scratch, tr, &mut out);
        }
        probe(tr, &mut out, "causality.check_ms", 3, || {
            let (d, results) = timed(|| wl.program().check_causality());
            black_box(results);
            // Reported in ms per check: 1e6 "operations" per nanosecond
            // figure.
            (d, 1_000_000)
        });
    });
    out
}

fn pool_probes(wl: &dyn Workload, tr: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let pool = wl.pools().wide();
    let threads = pool.num_threads();
    // Microseconds per round trip: 1000 "operations" per call.
    probe(tr, out, "pool.fork_join_us", 300, || {
        let tasks: Vec<_> = (0..threads).map(|i| move || black_box(i)).collect();
        let (d, r) = timed(|| jstar_pool::parallel_tasks(pool, tasks));
        black_box(r);
        (d, 1000)
    });
    const ITEMS: usize = 200_000;
    probe(tr, out, "pool.parallel_for_ns_per_item", 15, || {
        let (d, ()) = timed(|| {
            jstar_pool::parallel_for(pool, 0..ITEMS, 0, |i| {
                black_box(i);
            })
        });
        (d, ITEMS)
    });
    probe(tr, out, "pool.background_batch_us", 300, || {
        let tasks: Vec<_> = (0..threads).map(|i| move || black_box(i)).collect();
        let (d, r) = timed(|| jstar_pool::submit_background(pool, tasks).join(pool));
        black_box(r);
        (d, 1000)
    });
}

fn csv_probe(csv: &[u8], tr: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    probe(tr, out, "csv.parse_ns_per_record", 3, || {
        let (d, n) = timed(|| {
            jstar_csv::records(black_box(csv))
                .filter_map(|r| jstar_apps::pvwatts::data::parse_record(&r))
                .fold(0usize, |n, r| {
                    black_box(r.power);
                    n + 1
                })
        });
        (d, n)
    });
}

fn delta_probes(
    wl: &dyn Workload,
    engine: &Engine,
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let program = wl.program();
    let mut replay = wl.delta_replay(engine);
    replay.truncate(REPLAY_CAP);
    if replay.is_empty() {
        return;
    }
    let n = replay.len();
    let reps = reps_for(n);
    probe(tr, out, "orderby.key_of_ns", reps, || {
        let (d, ()) = timed(|| {
            for t in &replay {
                black_box(program.key_of(black_box(t)));
            }
        });
        (d, n)
    });
    let keyed: Vec<(OrderKey, Tuple)> = replay
        .iter()
        .map(|t| (program.key_of(t), t.clone()))
        .collect();

    probe(tr, out, "delta.insert_ns", reps, || {
        let pairs = keyed.clone();
        let mut tree = DeltaTree::new();
        let (d, ()) = timed(|| {
            for (k, t) in pairs {
                tree.insert(&k, t);
            }
        });
        (d, n)
    });

    // One staged epoch goes push → swap → merge → pop, each stage timed
    // on the state the previous one left, as in a step of the engine.
    let config = wl.config(Arm::Primary, false);
    let pool = wl.pools().wide();
    let (mut push, mut swap, mut merge, mut pop) = (vec![], vec![], vec![], vec![]);
    tr.span("delta.epoch", |_| {
        for _ in 0..reps {
            let inbox = adapter::inbox_like_engine(program, &config, pool.num_threads());
            let shard = inbox.external_shard();
            let pairs = keyed.clone();
            let (d, ()) = timed(|| {
                for (k, t) in pairs {
                    inbox.push(shard, k, t);
                }
            });
            push.push(d.as_nanos() as f64 / n as f64);

            let mut runs: Vec<Vec<(OrderKey, Tuple)>> = vec![Vec::new(); inbox.partitions()];
            let (d, staged) = timed(|| inbox.swap_epoch(&mut runs));
            swap.push(d.as_nanos() as f64 / staged.max(1) as f64);

            let mut tree = DeltaTree::new();
            let mut per_table = vec![0u64; program.defs().len()];
            let (d, merged) = timed(|| {
                tree.merge_partitioned(
                    &mut runs,
                    Some(pool),
                    &mut per_table,
                    adapter::merge_threshold(&config),
                )
            });
            merge.push(d.as_nanos() as f64 / n as f64);

            let (d, ()) = timed(|| {
                while let Some(class) = tree.pop_min_class() {
                    black_box(class);
                }
            });
            pop.push(d.as_nanos() as f64 / merged.max(1) as f64);
        }
    });
    out.push(("delta.inbox_push_ns", median(&push)));
    out.push(("delta.swap_epoch_ns", median(&swap)));
    out.push(("delta.merge_partitioned_ns", median(&merge)));
    out.push(("delta.pop_min_class_ns", median(&pop)));
}

fn relation_probes(
    wl: &dyn Workload,
    engine: &Engine,
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (mut dec, mut enc) = (vec![], vec![]);
    tr.span("relation.codec", |_| {
        for _ in 0..3 {
            let (d, e) = wl.relation_probe(engine);
            dec.push(d);
            enc.push(e);
        }
    });
    out.push(("relation.decode_ns", median(&dec)));
    out.push(("relation.encode_ns", median(&enc)));
}

/// The job's Gamma tables with their tuples (capped), skipping empty
/// ones (`-noGamma` tables, tables the job never filled).
fn gamma_tables(wl: &dyn Workload, engine: &Engine) -> Vec<(Arc<TableDef>, Vec<Tuple>)> {
    wl.program()
        .defs()
        .iter()
        .filter_map(|def| {
            let mut tuples = Vec::new();
            engine.gamma().query(&Query::on(def.id), &mut |t| {
                tuples.push(t.clone());
                tuples.len() < REPLAY_CAP
            });
            (!tuples.is_empty()).then(|| (Arc::clone(def), tuples))
        })
        .collect()
}

fn gamma_store_probes(
    wl: &dyn Workload,
    engine: &Engine,
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let config = wl.config(Arm::Primary, false);
    let tables = gamma_tables(wl, engine);
    let total: usize = tables.iter().map(|(_, t)| t.len()).sum();
    if total == 0 {
        return;
    }
    let reps = reps_for(total).min(5);
    // An empty store of the kind the job's configuration selects.
    let fresh = |def: &Arc<TableDef>| adapter::store_kind(&config, def.id).build(Arc::clone(def));
    // Sums one timed action over every table: ns per tuple, all tables.
    let mut over_tables = |name: &'static str,
                           tr: &mut Tracer,
                           action: &dyn Fn(&dyn TableStore, &[Tuple]) -> Duration,
                           prefill: bool| {
        probe(tr, out, name, reps, || {
            let mut spent = Duration::ZERO;
            for (def, tuples) in &tables {
                let store = fresh(def);
                if prefill {
                    for t in tuples {
                        store.insert(t.clone());
                    }
                }
                spent += action(&*store, tuples);
            }
            (spent, total)
        });
    };

    over_tables(
        "gamma.insert_ns",
        tr,
        &|store, tuples| {
            let owned = tuples.to_vec();
            timed(|| {
                for t in owned {
                    black_box(store.insert(t));
                }
            })
            .0
        },
        false,
    );
    over_tables(
        "gamma.insert_batch_ns",
        tr,
        &|store, tuples| {
            let mut outcomes = Vec::with_capacity(1024);
            timed(|| {
                for run in tuples.chunks(1024) {
                    outcomes.clear();
                    store.insert_batch(run, &mut outcomes);
                }
            })
            .0
        },
        false,
    );
    let threads = wl.pools().threads;
    over_tables(
        "gamma.insert_par_ns",
        tr,
        &|store, tuples| {
            let slices: Vec<Vec<Tuple>> = tuples
                .chunks(tuples.len().div_ceil(threads).max(1))
                .map(<[Tuple]>::to_vec)
                .collect();
            timed(|| {
                std::thread::scope(|s| {
                    for slice in slices {
                        s.spawn(move || {
                            for t in slice {
                                black_box(store.insert(t));
                            }
                        });
                    }
                })
            })
            .0
        },
        false,
    );
    over_tables(
        "gamma.dup_insert_ns",
        tr,
        &|store, tuples| {
            let owned = tuples.to_vec();
            timed(|| {
                for t in owned {
                    black_box(store.insert(t));
                }
            })
            .0
        },
        true,
    );

    // Reads go against the Gamma the job itself filled.
    let gamma = engine.gamma();
    probe(tr, out, "gamma.for_each_ns", reps, || {
        let (d, seen) = timed(|| {
            let mut seen = 0usize;
            for (def, _) in &tables {
                let mut left = REPLAY_CAP;
                gamma.store(def.id).for_each(&mut |t| {
                    black_box(t);
                    seen += 1;
                    left -= 1;
                    left > 0
                });
            }
            seen
        });
        (d, seen)
    });
    let (hits, misses) = wl.probe_queries(engine);
    for (name, queries, want_rows) in [
        ("gamma.probe_hit_ns", &hits, true),
        ("gamma.probe_miss_ns", &misses, false),
    ] {
        if queries.is_empty() {
            continue;
        }
        probe(tr, out, name, reps_for(queries.len()).min(20), || {
            let (d, rows) = timed(|| {
                let mut rows = 0usize;
                for q in queries {
                    gamma.query(black_box(q), &mut |t| {
                        black_box(t);
                        rows += 1;
                        true
                    });
                }
                rows
            });
            assert_eq!(rows > 0, want_rows, "{name}: the probe set is mislabelled");
            (d, queries.len())
        });
    }
}

fn cursor_probes(
    wl: &dyn Workload,
    engine: &Engine,
    table: TableId,
    field: usize,
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let config = wl.config(Arm::Primary, false);
    let program = wl.program();
    let mut tuples = engine.gamma().collect(&Query::on(table));
    tuples.truncate(REPLAY_CAP);
    if tuples.len() < 10 {
        return;
    }
    let kinds: Vec<StoreKind> = program
        .defs()
        .iter()
        .map(|d| adapter::store_kind(&config, d.id))
        .collect();
    // 90 % first, then the 10 % a later step would have added.
    let (first, later) = tuples.split_at(tuples.len() - tuples.len() / 10);
    let (mut cold, mut warm, mut catchup, mut seek, mut next) =
        (vec![], vec![], vec![], vec![], vec![]);
    tr.span("gamma.cursor", |_| {
        for _ in 0..3 {
            let gamma = Gamma::new(program.defs(), &kinds);
            for t in first {
                gamma.insert(t.clone());
            }
            let (d, index) = timed(|| gamma.open_cursor(table, field));
            cold.push(d.as_nanos() as f64 / first.len() as f64);

            const WARM_OPENS: usize = 200;
            let (d, ()) = timed(|| {
                for _ in 0..WARM_OPENS {
                    black_box(gamma.open_cursor(table, field));
                }
            });
            warm.push(d.as_nanos() as f64 / WARM_OPENS as f64);

            for t in later {
                gamma.insert(t.clone());
            }
            let (d, caught_up) = timed(|| gamma.open_cursor(table, field));
            catchup.push(d.as_nanos() as f64 / later.len() as f64);
            black_box(caught_up);

            // Every 7th distinct key ascending: far enough apart that
            // each reposition gallops instead of stepping.
            let mut keys = Vec::new();
            let mut c = index.cursor();
            while let Some(k) = c.key() {
                keys.push(k.clone());
                c.next();
            }
            let groups = keys.len().max(1);
            let targets: Vec<&Value> = keys.iter().step_by(7).collect();
            let mut c = index.cursor();
            let (d, ()) = timed(|| {
                for k in &targets {
                    c.seek(k);
                    black_box(c.group());
                }
            });
            seek.push(d.as_nanos() as f64 / targets.len().max(1) as f64);

            let mut c = index.cursor();
            let (d, ()) = timed(|| {
                while !c.is_exhausted() {
                    black_box(c.group());
                    c.next();
                }
            });
            next.push(d.as_nanos() as f64 / groups as f64);
        }
    });
    out.push(("gamma.open_cursor_cold_ns", median(&cold)));
    out.push(("gamma.open_cursor_warm_ns", median(&warm)));
    out.push(("gamma.open_cursor_catchup_ns", median(&catchup)));
    out.push(("gamma.cursor_seek_ns", median(&seek)));
    out.push(("gamma.cursor_next_ns", median(&next)));
}

fn persist_probes(
    wl: &dyn Workload,
    engine: &Engine,
    scratch: &Path,
    tr: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let path = scratch.join("probe.jsnap");
    let tuples = engine.gamma().total_len().max(1);
    if std::fs::create_dir_all(scratch).is_err() {
        return;
    }
    probe(tr, out, "persist.snapshot_ns_per_tuple", 3, || {
        let (d, r) = timed(|| engine.snapshot(&path));
        r.expect("probe snapshot writes");
        (d, tuples)
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.push(("persist.bytes_per_tuple", bytes as f64 / tuples as f64));
    probe(tr, out, "persist.restore_ns_per_tuple", 3, || {
        let mut fresh = Engine::new(Arc::clone(wl.program()), wl.config(Arm::Primary, false));
        let (d, r) = timed(|| fresh.restore(&path));
        r.expect("probe snapshot restores");
        (d, tuples)
    });
    let _ = std::fs::remove_file(&path);
}
