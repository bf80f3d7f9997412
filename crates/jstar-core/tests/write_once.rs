//! Write-once tables at the engine: a table no rule triggers is sealed
//! when the run passes its stratum, a put into it after that is a
//! causality violation, a read of it before that is an error, and
//! checkpoints taken while it is still open restore to the same run —
//! at sequential, `parallel(1)`, `parallel(2)` and `parallel(4)`.

use jstar_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

jstar_core::jstar_table! {
    /// What fills the write-once table.
    #[derive(Copy, Eq)]
    pub Src(int x) orderby (Src)
}

jstar_core::jstar_table! {
    /// The write-once table: it triggers no rule.
    #[derive(Copy, Eq)]
    pub Kept(int x, int y) orderby (Kept)
}

jstar_core::jstar_table! {
    /// A stratum after `Kept`'s: its rule runs once `Kept` has closed.
    #[derive(Copy, Eq)]
    pub Late(int x) orderby (Late)
}

jstar_core::jstar_table! {
    /// Write-once, closing with `Keyed`: the rows repeat.
    #[derive(Copy, Eq)]
    pub Pair(int x, int y) orderby (Out)
}

jstar_core::jstar_table! {
    /// Write-once under a `->` key, closing with `Pair`.
    #[derive(Copy, Eq)]
    pub Keyed(int k -> int v) orderby (Out)
}

jstar_core::jstar_table! {
    /// A write-once table whose next column is text.
    #[derive(Eq)]
    pub Named(int x, String s) orderby (Kept)
}

jstar_core::jstar_table! {
    /// One step of a chain that fills `Kept` a row a step.
    #[derive(Copy, Eq)]
    pub Feed(int i) orderby (Feed, seq i)
}

fn configs() -> [EngineConfig; 4] {
    [
        EngineConfig::sequential(),
        EngineConfig::parallel(1),
        EngineConfig::parallel(2),
        EngineConfig::parallel(4),
    ]
}

/// `Src` rows `0..SRC`, each putting two `Kept` rows — one of them a
/// repeat of another `Src`'s — and `Late(0)`.
const SRC: i64 = 300;

fn fill(p: &mut ProgramBuilder) {
    p.relation::<Src>();
    p.relation::<Kept>();
    p.relation::<Late>();
    p.order(&["Src", "Kept", "Late"]);
    p.rule_rel("fill", |ctx, s: Src| {
        ctx.put_rel(Kept { x: s.x, y: 0 });
        ctx.put_rel(Kept { x: s.x / 2, y: 0 });
        ctx.put_rel(Late { x: 0 });
    });
    (0..SRC).for_each(|x| p.put_rel(Src { x }));
}

#[test]
fn a_put_into_a_sealed_write_once_table_names_the_putting_rule() {
    let mut p = ProgramBuilder::new();
    fill(&mut p);
    let seen = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&seen);
    p.rule_rel("late-put", move |ctx, _: Late| {
        // `Kept` has closed: the read sees every row, each once.
        counted.store(ctx.count_rel(Kept::query()), Ordering::Relaxed);
        ctx.put_rel(Kept { x: -1, y: 0 });
    });
    let prog = Arc::new(p.build().unwrap());
    let kept = prog.handle::<Kept>().id();
    for config in configs() {
        let threads = config.threads;
        // `-noDelta`: every put reaches the table, repeats too.
        let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(kept));
        let err = engine.run().expect_err("the put is into the past");
        assert!(
            matches!(&err, JStarError::CausalityViolation { rule, .. } if rule == "late-put"),
            "{threads} threads: {err}"
        );
        assert_eq!(
            seen.load(Ordering::Relaxed),
            SRC as u64,
            "{threads} threads"
        );
        // The seal moved the repeats from fresh to duplicate.
        let stats = engine.stats().tables[kept.index()].snapshot();
        assert_eq!(
            (stats.puts, stats.gamma_fresh),
            (2 * SRC as u64 + 1, SRC as u64)
        );
        assert_eq!(stats.gamma_dups, SRC as u64);
    }
}

#[test]
fn two_write_once_tables_close_at_one_step_boundary() {
    // `Pair` and `Keyed` share the stratum `Out`, so both close — are
    // sealed — at the one step boundary where `Late` is popped. Each
    // `Src` puts two `Pair` rows, one a repeat of another `Src`'s, and
    // one `Keyed` row; the last `Src` puts a second row under key 0, a
    // `->` conflict. `Late` then counts both tables.
    let mut p = ProgramBuilder::new();
    p.relation::<Src>();
    p.relation::<Pair>();
    p.relation::<Keyed>();
    p.relation::<Late>();
    p.order(&["Src", "Out", "Late"]);
    p.rule_rel("fill", |ctx, s: Src| {
        ctx.put_rel(Pair { x: s.x, y: 0 });
        ctx.put_rel(Pair { x: s.x / 2, y: 0 });
        ctx.put_rel(Keyed { k: s.x, v: 0 });
        if s.x == SRC - 1 {
            ctx.put_rel(Keyed { k: 0, v: 1 });
        }
        ctx.put_rel(Late { x: 0 });
    });
    let seen = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&seen);
    p.rule_rel("count", move |ctx, _: Late| {
        let rows = ctx.count_rel(Pair::query()) + ctx.count_rel(Keyed::query());
        counted.store(rows, Ordering::Relaxed);
    });
    (0..SRC).for_each(|x| p.put_rel(Src { x }));
    let prog = Arc::new(p.build().unwrap());
    let (pair, keyed) = (prog.handle::<Pair>().id(), prog.handle::<Keyed>().id());

    let mut hashes = Vec::new();
    for config in configs() {
        let threads = config.threads;
        seen.store(0, Ordering::Relaxed);
        // `-noDelta` on `Pair`: every put reaches it, repeats too.
        let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(pair));
        let err = engine.run().expect_err("the conflict fails the run");
        assert!(
            matches!(&err, JStarError::KeyViolation { table, .. } if table == "Keyed"),
            "{threads} threads: {err}"
        );
        assert_eq!(
            seen.load(Ordering::Relaxed),
            2 * SRC as u64,
            "{threads} threads: `Late` saw both tables whole"
        );
        let stats = |t: TableId| {
            let s = engine.stats().tables[t.index()].snapshot();
            (s.gamma_fresh, s.gamma_dups)
        };
        assert_eq!(stats(pair), (SRC as u64, SRC as u64), "{threads} threads");
        assert_eq!(stats(keyed), (SRC as u64, 0), "{threads} threads");
        hashes.push(engine.content_hash());
    }
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");
}

#[test]
fn a_write_once_table_with_a_text_column_drops_its_repeats() {
    // Rows whose next column is not an integer are sorted as values, in
    // one bucket: the seal drops the repeats and cuts only the rows it
    // kept.
    let mut p = ProgramBuilder::new();
    p.relation::<Src>();
    p.relation::<Named>();
    p.relation::<Late>();
    p.order(&["Src", "Kept", "Late"]);
    p.rule_rel("fill", |ctx, s: Src| {
        ctx.put_rel(Named {
            x: s.x / 2,
            s: "a".into(),
        });
        ctx.put_rel(Late { x: 0 });
    });
    (0..SRC).for_each(|x| p.put_rel(Src { x }));
    let prog = Arc::new(p.build().unwrap());
    let named = prog.handle::<Named>().id();
    for config in configs() {
        let threads = config.threads;
        // `-noDelta`: every put reaches the table, repeats too.
        let mut engine = Engine::new(Arc::clone(&prog), config.no_delta(named));
        engine.run().unwrap();
        let stats = engine.stats().tables[named.index()].snapshot();
        let half = SRC as u64 / 2;
        assert_eq!(
            (stats.gamma_fresh, stats.gamma_dups),
            (half, half),
            "{threads} threads"
        );
        let rows = engine.collect_rel(Named::query()).len() as u64;
        assert_eq!(rows, half, "{threads} threads");
    }
}

#[test]
fn a_read_of_a_write_once_table_before_it_closes_names_the_rule_and_the_table() {
    // An opaque rule that reads `Kept` in the stratum that fills it.
    let mut p = ProgramBuilder::new();
    fill(&mut p);
    p.relation::<Feed>();
    p.order(&["Feed", "Src"]);
    p.rule_rel("early-read", |ctx, f: Feed| {
        ctx.put_rel(Kept { x: f.i, y: 1 });
        let _ = ctx.exists_rel(Kept::query().eq(Kept::x, f.i));
    });
    p.put_rel(Feed { i: 0 });
    let opaque = Arc::new(p.build().unwrap());

    // A join rule whose stage reads `Kept` before it closes.
    let mut p = ProgramBuilder::new();
    fill(&mut p);
    p.relation::<Feed>();
    p.order(&["Feed", "Src"]);
    p.rule_rel_join(
        "early-join",
        join::<Feed, Kept>().on(Feed::i, Kept::x),
        |ctx, (f, _)| ctx.put_rel(Late { x: f.i }),
    );
    p.put_rel(Feed { i: 0 });
    let joined = Arc::new(p.build().unwrap());

    for (prog, name) in [(opaque, "early-read"), (joined, "early-join")] {
        for config in configs() {
            let threads = config.threads;
            let err = Engine::new(Arc::clone(&prog), config)
                .run()
                .expect_err("the read comes before the table closes");
            assert!(
                matches!(&err, JStarError::ReadBeforeClose { rule, table }
                    if rule == name && table == "Kept"),
                "{threads} threads: {err}"
            );
        }
    }
}

#[test]
fn checkpoints_before_a_write_once_table_closes_restore_the_same_run() {
    // `Feed(i)` puts two `Kept` rows a step, one a repeat, for 21 steps;
    // `Late` runs after `Kept` has closed and counts it. A checkpoint
    // every 4 steps seals `Kept` while it is still open, and more rows
    // arrive after each; the run, and a restore of each run's last
    // checkpoint resumed, end where an uninterrupted run does.
    const STEPS: i64 = 21;
    let mut p = ProgramBuilder::new();
    p.relation::<Feed>();
    p.relation::<Kept>();
    p.relation::<Late>();
    p.order(&["Feed", "Kept", "Late"]);
    p.rule_rel("feed", |ctx, f: Feed| {
        ctx.put_rel(Kept { x: f.i, y: 2 * f.i });
        ctx.put_rel(Kept {
            x: f.i / 2,
            y: f.i / 2 * 2,
        });
        if f.i + 1 < STEPS {
            ctx.put_rel(Feed { i: f.i + 1 });
        }
    });
    p.rule_rel("late", |ctx, _: Late| {
        if ctx.count_rel(Kept::query()) != STEPS as u64 {
            ctx.fail("Late saw a partial Kept");
        }
    });
    p.put_rel(Feed { i: 0 });
    p.put_rel(Late { x: 0 });
    let prog = Arc::new(p.build().unwrap());

    let kept = prog.handle::<Kept>().id();
    let mut plain = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    plain.run().unwrap();
    let want = plain.content_hash();
    for config in configs() {
        let threads = config.threads;
        // `-noDelta`: the rows reach the table a step at a time.
        let config = config.no_delta(kept);
        let dir = std::env::temp_dir().join(format!(
            "jstar-write-once-{}-{threads}-{}",
            std::process::id(),
            config.sequential
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = Engine::new(Arc::clone(&prog), config.clone().checkpoint(&dir, 4));
        let report = engine.run().unwrap();
        assert_eq!(report.checkpoints, 5, "{threads} threads");
        assert_eq!(engine.content_hash(), want, "{threads} threads");
        let stats = engine.stats().tables[kept.index()].snapshot();
        assert_eq!(
            (stats.gamma_fresh, stats.gamma_dups),
            (STEPS as u64, STEPS as u64),
            "{threads} threads: every seal's repeats moved out of fresh"
        );

        let mut resumed = Engine::new(Arc::clone(&prog), config);
        resumed.restore_latest(&dir).unwrap();
        resumed.run().unwrap();
        assert_eq!(resumed.content_hash(), want, "{threads} threads: restored");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
