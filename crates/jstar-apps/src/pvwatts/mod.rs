//! PvWatts — the paper's map-reduce case study (§6.2–6.3, Fig. 4).
//!
//! Reads a CSV of hourly solar-cell output measurements and prints the
//! average power generated during each month. The JStar program is Fig. 4
//! verbatim (tables `PvWattsRequest`, `PvWatts`, `SumMonth`;
//! `order Req < PvWatts < SumMonth`), with the one generalisation the
//! paper itself describes: the read request is split into N region-reader
//! requests so "the CSV reader library can run several readers in
//! parallel, on different parts of the input file". The N requests are
//! the run's first equivalence class (`(Req)`, step 1 of 2); with
//! `-noDelta=PvWatts` each reader parses its region and batch-inserts its
//! records into Gamma on the thread that fires it. Whether that is N
//! threads is the engine's `inline_classes_up_to`: at the default a class
//! of up to four readers stays on the coordinator (steady; see
//! `jstar_core::engine`'s scheduling notes), `inline_classes_up_to(0)`
//! forks it, one reader per worker. Step 2 is the `SumMonth` class, one
//! reducer per month.
//!
//! Four engine variants reproduce the paper's optimisation ladder:
//!
//! * [`Variant::Naive`] — every PvWatts tuple through the Delta tree
//!   ("horribly inefficient for this particular application");
//! * [`Variant::NoDelta`] — `-noDelta=PvWatts` (§6.2's 23.0 s → 8.44 s);
//! * [`Variant::HashStore`] — plus a hash index on (year, month);
//! * [`Variant::CustomStore`] — plus the hand-written array-of-hashsets
//!   Gamma store of §6.2.

pub mod baseline;
pub mod data;
pub mod disruptor_version;
pub mod month_store;

pub use data::{generate_csv, generate_records, render_csv, InputOrder, PvRecord};
pub use disruptor_version::{run_multi_producer, DisruptorConfig, PvEvent};
pub use month_store::MonthArrayStore;

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// `table PvWattsRequest(int region, int start, int end)
    ///  orderby (Req, par region)` — one region-read request per reader.
    #[derive(Copy, Eq)]
    pub PvWattsRequest(int region, int start, int end)
        orderby (Req, par region)
}

jstar_table! {
    /// `table PvWatts(int year, int month, int day, int hour, int power)
    ///  orderby (PvWatts)` — Fig. 4, one row per hourly measurement.
    #[derive(Copy, Eq)]
    pub PvWatts(int year, int month, int day, int hour, int power)
        orderby (PvWatts)
}

jstar_table! {
    /// `table SumMonth(int year, int month) orderby (SumMonth)` — Fig. 4;
    /// set semantics dedups the one-per-record copies.
    #[derive(Copy, Eq)]
    pub SumMonth(int year, int month) orderby (SumMonth)
}

/// The built PvWatts program plus its table handles.
pub struct PvWattsApp {
    pub program: Arc<Program>,
    pub request: TableId,
    pub pvwatts: TableId,
    pub summonth: TableId,
}

/// Optimisation variants (the paper's compiler/runtime flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All tuples through the Delta tree, default stores.
    Naive,
    /// `-noDelta=PvWatts`.
    NoDelta,
    /// `-noDelta=PvWatts` + hash index on (year, month).
    HashStore,
    /// `-noDelta=PvWatts` + the custom month-array store.
    CustomStore,
}

impl Variant {
    /// All variants, for sweeps.
    pub fn all() -> [Variant; 4] {
        [
            Variant::Naive,
            Variant::NoDelta,
            Variant::HashStore,
            Variant::CustomStore,
        ]
    }

    /// Display name for benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Naive => "naive",
            Variant::NoDelta => "noDelta",
            Variant::HashStore => "noDelta+hash",
            Variant::CustomStore => "noDelta+custom",
        }
    }
}

/// Builds the Fig. 4 program over in-memory CSV bytes, with `n_readers`
/// parallel region-read requests.
pub fn build_program(csv: Arc<Vec<u8>>, n_readers: usize) -> PvWattsApp {
    let mut p = ProgramBuilder::new();

    // The typed declarations above carry the schemas.
    let request = p.relation::<PvWattsRequest>().id();
    let pvwatts = p.relation::<PvWatts>().id();
    let summonth = p.relation::<SumMonth>().id();
    // order Req < PvWatts < SumMonth — without this, the summarise rule is
    // not stratifiable (Fig. 4's discussion).
    p.order(&["Req", "PvWatts", "SumMonth"]);

    // Rule 1: the generated read-loop rule.
    let read_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "PvWatts".into(),
            guard: vec![],
            bindings: vec![],
            label: "read CSV records".into(),
        }],
        queries: vec![],
    };
    let csv_for_read = Arc::clone(&csv);
    p.rule_rel_with_model("read-csv", read_model, move |ctx, req: PvWattsRequest| {
        let (start, end) = (req.start as usize, req.end as usize);
        let reader = jstar_csv::RegionReader::new(&csv_for_read, start, end);
        for rec in reader.records() {
            if let Some(r) = data::parse_record(&rec) {
                ctx.put_rel(PvWatts {
                    year: r.year,
                    month: r.month,
                    day: r.day,
                    hour: r.hour,
                    power: r.power,
                });
            }
        }
    });

    // Rule 2: foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
    let month_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "SumMonth".into(),
            guard: vec![],
            bindings: vec![],
            label: "request month summary".into(),
        }],
        queries: vec![],
    };
    p.rule_rel_with_model("request-month", month_model, move |ctx, pv: PvWatts| {
        ctx.put_rel(SumMonth {
            year: pv.year,
            month: pv.month,
        });
    });

    // Rule 3: foreach (SumMonth s) { Statistics over PvWatts(s.year, s.month) }
    let sum_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![],
        queries: vec![QueryModel {
            q_table: "PvWatts".into(),
            guard: vec![],
            bindings: vec![],
            label: "aggregate month".into(),
        }],
    };
    // The month aggregate differs only in the trigger's (year, month):
    // prepare it once with bind slots, bound per invocation.
    let pvwatts_h = p.relation::<PvWatts>();
    let month_rows = PvWatts::query()
        .bind_eq(PvWatts::year)
        .bind_eq(PvWatts::month)
        .prepare(pvwatts_h);
    p.rule_rel_with_model("summarise", sum_model, move |ctx, s: SumMonth| {
        let (year, month) = (s.year, s.month);
        let store = ctx.store(ctx.rel::<PvWatts>().id());
        let stats = if let Some(ms) = store.as_any().downcast_ref::<MonthArrayStore>() {
            // Custom-store fast path: fold raw samples, no tuple
            // materialisation (the paper's hand-optimised reducer loop).
            let (count, sum) =
                ms.fold_powers(year, month, (0u64, 0i64), |(n, s), p| (n + 1, s + p));
            (count, sum as f64)
        } else {
            let st = ctx.reduce_rel(
                month_rows
                    .binder()
                    .set(PvWatts::year, year)
                    .set(PvWatts::month, month),
                &Statistics {
                    field: PvWatts::power.index(),
                },
            );
            (st.count, st.sum)
        };
        ctx.println(format!("{year}/{month}: {}", stats.1 / stats.0 as f64));
    });

    // Initial puts: one region request per reader (Fig. 7's phase 1).
    let regions = jstar_csv::split_regions(csv.len(), n_readers.max(1));
    for (i, (start, end)) in regions.into_iter().enumerate() {
        p.put_rel(PvWattsRequest {
            region: i as i64,
            start: start as i64,
            end: end as i64,
        });
    }

    PvWattsApp {
        program: Arc::new(p.build().expect("pvwatts program builds")),
        request,
        pvwatts,
        summonth,
    }
}

/// Applies a variant's flags to an engine configuration.
pub fn apply_variant(app: &PvWattsApp, variant: Variant, config: EngineConfig) -> EngineConfig {
    match variant {
        Variant::Naive => config,
        Variant::NoDelta => config.no_delta(app.pvwatts),
        Variant::HashStore => config.no_delta(app.pvwatts).store(
            app.pvwatts,
            StoreKind::Hash {
                index_fields: vec!["year".into(), "month".into()],
            },
        ),
        Variant::CustomStore => config
            .no_delta(app.pvwatts)
            .store(app.pvwatts, MonthArrayStore::factory()),
    }
}

/// Parses the program's output lines (`year/month: mean`) into sorted
/// `(year, month, mean)` triples. Rust's float `Display` is
/// shortest-roundtrip, so the parse is exact.
pub fn means_from_output(output: &[String]) -> Vec<(i64, i64, f64)> {
    let mut out: Vec<(i64, i64, f64)> = output
        .iter()
        .filter_map(|line| {
            let (ym, mean) = line.split_once(": ")?;
            let (y, m) = ym.split_once('/')?;
            Some((y.parse().ok()?, m.parse().ok()?, mean.parse().ok()?))
        })
        .collect();
    out.sort_by_key(|a| (a.0, a.1));
    out
}

/// Monthly means as `(year, month, mean)` triples.
pub type MonthlyMeans = Vec<(i64, i64, f64)>;

/// End-to-end: build, run under `variant`, return monthly means + report.
pub fn run_jstar(
    csv: Arc<Vec<u8>>,
    n_readers: usize,
    variant: Variant,
    config: EngineConfig,
) -> Result<(MonthlyMeans, RunReport)> {
    let app = build_program(csv, n_readers);
    let config = apply_variant(&app, variant, config);
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    Ok((means_from_output(&report.output), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::{expected_means, generate_records};

    fn csv_of(n: usize, order: InputOrder) -> (Vec<PvRecord>, Arc<Vec<u8>>) {
        let recs = generate_records(n, order);
        let csv = Arc::new(render_csv(&recs));
        (recs, csv)
    }

    #[test]
    fn program_passes_strict_causality_validation() {
        let (_, csv) = csv_of(100, InputOrder::Chronological);
        let app = build_program(csv, 2);
        app.program
            .validate_strict()
            .expect("all obligations proved");
    }

    #[test]
    fn all_variants_match_ground_truth_sequential() {
        let (recs, csv) = csv_of(3000, InputOrder::Chronological);
        let want = expected_means(&recs);
        for variant in Variant::all() {
            let (got, _) =
                run_jstar(Arc::clone(&csv), 1, variant, EngineConfig::sequential()).unwrap();
            assert_eq!(got, want, "variant {}", variant.name());
        }
    }

    #[test]
    fn all_variants_match_ground_truth_parallel() {
        let (recs, csv) = csv_of(3000, InputOrder::RoundRobin);
        let want = expected_means(&recs);
        for variant in Variant::all() {
            let (got, _) =
                run_jstar(Arc::clone(&csv), 4, variant, EngineConfig::parallel(4)).unwrap();
            assert_eq!(got, want, "variant {}", variant.name());
        }
    }

    /// The class that carries the work is as wide as there are readers.
    /// By default it stays on the coordinator; forked, each reader stages
    /// and batch-inserts on its own worker — same means either way.
    #[test]
    fn two_readers_run_inline_by_default_and_fork_on_request() {
        let (recs, csv) = csv_of(8760, InputOrder::Chronological);
        let forked = EngineConfig::parallel(2).inline_classes_up_to(0);
        for (config, forked_inline) in [(EngineConfig::parallel(2), (1, 1)), (forked, (2, 0))] {
            let (got, report) = run_jstar(csv.clone(), 2, Variant::HashStore, config).unwrap();
            assert_eq!(got, expected_means(&recs));
            assert_eq!(report.steps, 2, "the requests, then the months");
            assert_eq!(
                (report.forked_classes, report.inline_classes),
                forked_inline
            );
        }
    }

    #[test]
    fn no_delta_skips_the_delta_tree() {
        let (_, csv) = csv_of(1000, InputOrder::Chronological);
        let app = build_program(Arc::clone(&csv), 1);
        let config = apply_variant(&app, Variant::NoDelta, EngineConfig::sequential());
        let mut engine = Engine::new(Arc::clone(&app.program), config);
        engine.run().unwrap();
        let pv = engine.stats().tables[app.pvwatts.index()].snapshot();
        assert_eq!(pv.delta_inserts, 0, "-noDelta bypasses the Delta tree");
        assert_eq!(pv.gamma_fresh, 1000);

        // The naive variant pushes every PvWatts tuple through Delta.
        let app2 = build_program(csv, 1);
        let mut engine2 = Engine::new(
            Arc::clone(&app2.program),
            apply_variant(&app2, Variant::Naive, EngineConfig::sequential()),
        );
        engine2.run().unwrap();
        let pv2 = engine2.stats().tables[app2.pvwatts.index()].snapshot();
        assert_eq!(pv2.delta_inserts, 1000);
    }

    #[test]
    fn multiple_readers_cover_all_records() {
        let (recs, csv) = csv_of(8760, InputOrder::Chronological);
        let want = expected_means(&recs);
        for readers in [1, 2, 3, 7] {
            let (got, _) = run_jstar(
                Arc::clone(&csv),
                readers,
                Variant::HashStore,
                EngineConfig::sequential(),
            )
            .unwrap();
            assert_eq!(got, want, "{readers} readers");
        }
    }

    #[test]
    fn disruptor_agrees_with_jstar() {
        let (recs, csv) = csv_of(8760, InputOrder::Chronological);
        let jstar = run_jstar(
            Arc::clone(&csv),
            2,
            Variant::CustomStore,
            EngineConfig::sequential(),
        )
        .unwrap()
        .0;
        let disruptor = disruptor_version::run(&csv, DisruptorConfig::default());
        let want = expected_means(&recs);
        assert_eq!(jstar, want);
        assert_eq!(disruptor, want);
    }

    #[test]
    fn means_from_output_parses_and_sorts() {
        let out = vec![
            "2000/2: 350.5".to_string(),
            "2000/1: 300.25".to_string(),
            "garbage".to_string(),
        ];
        let means = means_from_output(&out);
        assert_eq!(means, vec![(2000, 1, 300.25), (2000, 2, 350.5)]);
    }

    #[test]
    fn dependency_graph_names_all_tables() {
        let (_, csv) = csv_of(10, InputOrder::Chronological);
        let app = build_program(csv, 1);
        let g = app.program.dependency_graph();
        assert_eq!(g.tables, vec!["PvWattsRequest", "PvWatts", "SumMonth"]);
        let dot = g.to_dot(None);
        assert!(dot.contains("read-csv"));
        assert!(dot.contains("summarise"));
    }
}
