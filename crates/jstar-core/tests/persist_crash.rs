//! Durability tests: snapshot/restore round trips, checkpoint fallback,
//! and — under `--features fault-inject` — the deterministic crash
//! matrix. Every injected crash point must leave the checkpoint
//! directory in a state from which restore + resume reproduces the
//! uninterrupted run's Gamma content hash bit for bit.

use jstar_core::error::JStarError;
use jstar_core::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh, unique scratch directory under `target/tmp` (removed by the
/// caller via [`Scratch`]'s drop; unique per test *and* per call so
/// parallel tests never share checkpoint files).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "persist_crash_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The layered fan-out program from `prop_engine.rs`, fixed to a shape
/// that runs for dozens of steps with a non-empty Delta queue at most
/// checkpoints (tuples at `t + 1` are pending while `t` executes).
fn fan_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let names = ["T0", "T1", "T2"];
    let ids: Vec<TableId> = names
        .iter()
        .map(|n| {
            p.table(n, |b| {
                b.col_int("t").col_int("v").orderby(&[strat(n), seq("t")])
            })
        })
        .collect();
    p.order(&names);
    for i in 0..2 {
        let next = ids[i + 1];
        p.rule(&format!("fan{i}"), ids[i], move |ctx, tr| {
            for k in 0..2 {
                let v = (tr.int(1) * 3 + 1 + k).rem_euclid(101);
                ctx.put(Tuple::new(
                    next,
                    vec![Value::Int(tr.int(0) + 1), Value::Int(v)],
                ));
            }
        });
    }
    let t0 = ids[0];
    p.rule("advance", t0, move |ctx, tr| {
        if tr.int(0) < 60 {
            ctx.put(Tuple::new(
                t0,
                vec![Value::Int(tr.int(0) + 1), Value::Int((tr.int(1) + 1) % 101)],
            ));
        }
    });
    for s in 0..3 {
        p.put(Tuple::new(t0, vec![Value::Int(0), Value::Int(s)]));
    }
    Arc::new(p.build().unwrap())
}

fn checkpointing_config(dir: &Path) -> EngineConfig {
    EngineConfig::parallel(2)
        .checkpoint(dir, 4)
        .checkpoint_keep(3)
}

/// The uninterrupted run's final content hash — the ground truth every
/// crash/restore/resume sequence must reproduce.
fn expected_hash(prog: &Arc<Program>) -> u64 {
    let mut eng = Engine::new(Arc::clone(prog), EngineConfig::parallel(2));
    eng.run().unwrap();
    eng.content_hash()
}

#[test]
fn snapshot_restore_roundtrip_reproduces_gamma() {
    let scratch = Scratch::new("roundtrip");
    let prog = fan_program();

    let mut eng = Engine::new(Arc::clone(&prog), EngineConfig::parallel(2));
    eng.run().unwrap();
    let snap = scratch.path().join("final.jsnap");
    eng.snapshot(&snap).unwrap();

    let mut restored = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    restored.restore(&snap).unwrap();
    assert_eq!(restored.content_hash(), eng.content_hash());

    // A quiescent snapshot has no pending work: resuming is a no-op and
    // the hash is stable across the resume.
    restored.run().unwrap();
    assert_eq!(restored.content_hash(), eng.content_hash());

    for i in 0..prog.defs().len() {
        let q = Query::on(TableId(i as u32));
        let mut want = eng.gamma().collect(&q);
        let mut got = restored.gamma().collect(&q);
        want.sort();
        got.sort();
        assert_eq!(got, want, "table {i} contents diverged after restore");
    }
}

#[test]
fn checkpointed_run_reports_checkpoints_and_resumes_identically() {
    let scratch = Scratch::new("resume");
    let prog = fan_program();
    let expected = expected_hash(&prog);

    let mut eng = Engine::new(Arc::clone(&prog), checkpointing_config(scratch.path()));
    let report = eng.run().unwrap();
    assert!(
        report.checkpoints >= 2,
        "got {} checkpoints",
        report.checkpoints
    );
    assert!(report.checkpoint_time > std::time::Duration::ZERO);
    assert_eq!(eng.content_hash(), expected);

    // Resuming from the newest checkpoint replays the identical pop
    // schedule to the identical fixpoint.
    let mut resumed = Engine::new(Arc::clone(&prog), EngineConfig::parallel(2));
    resumed.restore_latest(scratch.path()).unwrap();
    resumed.run().unwrap();
    assert_eq!(resumed.content_hash(), expected);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let scratch = Scratch::new("fallback");
    let prog = fan_program();
    let expected = expected_hash(&prog);

    let mut eng = Engine::new(Arc::clone(&prog), checkpointing_config(scratch.path()));
    eng.run().unwrap();

    let files = jstar_core::persist::list_checkpoints(scratch.path()).unwrap();
    assert!(files.len() >= 2, "need a fallback file, got {files:?}");
    let newest = files.last().unwrap().clone();
    let second_newest = files[files.len() - 2].clone();

    // Flip one bit in the middle of the newest checkpoint.
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, bytes).unwrap();

    let mut resumed = Engine::new(Arc::clone(&prog), EngineConfig::parallel(2));
    let outcome = resumed.restore_latest(scratch.path()).unwrap();
    assert_eq!(outcome.path, second_newest, "must fall back one file");
    assert_eq!(outcome.skipped.len(), 1);
    assert_eq!(outcome.skipped[0].0, newest);
    assert!(
        matches!(outcome.skipped[0].1, JStarError::CorruptSnapshot(_)),
        "corruption must be reported, got {:?}",
        outcome.skipped[0].1
    );

    resumed.run().unwrap();
    assert_eq!(resumed.content_hash(), expected);
}

#[test]
fn restore_from_other_schema_is_rejected_without_mutation() {
    let scratch = Scratch::new("schema");
    let prog = fan_program();
    let mut eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    eng.run().unwrap();
    let snap = scratch.path().join("fan.jsnap");
    eng.snapshot(&snap).unwrap();

    let mut other = ProgramBuilder::new();
    let w = other.table("Walk", |b| {
        b.col_int("t")
            .col_int("v")
            .orderby(&[strat("Walk"), seq("t")])
    });
    other.order(&["Walk"]);
    other.put(Tuple::new(w, vec![Value::Int(0), Value::Int(0)]));
    let other = Arc::new(other.build().unwrap());

    let mut victim = Engine::new(Arc::clone(&other), EngineConfig::sequential());
    let before = victim.content_hash();
    let err = victim.restore(&snap).expect_err("must be rejected");
    assert!(
        matches!(err, JStarError::SchemaMismatch(_)),
        "wrong error: {err:?}"
    );
    assert_eq!(
        victim.content_hash(),
        before,
        "failed restore must not mutate"
    );

    // restore_latest aborts on schema mismatch instead of silently
    // falling back to an even older file.
    let dir = scratch.path().join("ckpts");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(
        &snap,
        dir.join(jstar_core::persist::checkpoint_file_name(0)),
    )
    .unwrap();
    let err = victim.restore_latest(&dir).expect_err("must be rejected");
    assert!(matches!(err, JStarError::SchemaMismatch(_)));
}

#[test]
fn restore_latest_from_empty_dir_is_an_error() {
    let scratch = Scratch::new("empty");
    let prog = fan_program();
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    assert!(eng.restore_latest(scratch.path()).is_err());
}

/// The crash matrix. One `#[test]` looping serially over every crash
/// point: the fault hook is thread-local state on the coordinator
/// thread, so points must not run concurrently within the process.
#[cfg(feature = "fault-inject")]
mod crash_matrix {
    use super::*;
    use jstar_core::persist::fault::{self, CrashSite};
    use std::collections::HashSet;

    /// Runs one crash → restore → resume cycle; returns the crash point
    /// that actually fired (None if the armed offset was never reached,
    /// in which case the run completed and its hash was still checked).
    fn crash_and_recover(
        prog: &Arc<Program>,
        expected: u64,
        site: CrashSite,
        offset: u64,
        label: &str,
    ) -> Option<(CrashSite, u64)> {
        let scratch = Scratch::new("matrix");
        fault::arm(site, offset);
        let mut eng = Engine::new(Arc::clone(prog), checkpointing_config(scratch.path()));
        let outcome = eng.run();
        let fired = fault::disarm();

        match fired {
            Some(point) => {
                assert!(
                    outcome.is_err(),
                    "[{label}] crash at {point:?} fired but run() returned Ok"
                );
                let mut resumed =
                    Engine::new(Arc::clone(prog), checkpointing_config(scratch.path()));
                // An Err here means the crash landed before any
                // checkpoint survived: recovery is then a cold start
                // from the program's initial tuples.
                let _ = resumed.restore_latest(scratch.path());
                resumed
                    .run()
                    .unwrap_or_else(|e| panic!("[{label}] resume after {point:?} failed: {e}"));
                assert_eq!(
                    resumed.content_hash(),
                    expected,
                    "[{label}] resumed hash diverged after crash at {point:?}"
                );
                Some(point)
            }
            None => {
                // Offset beyond everything the run ever wrote: the run
                // must have completed untouched.
                let report = outcome
                    .unwrap_or_else(|e| panic!("[{label}] unfired fault yet run failed: {e}"));
                assert!(report.checkpoints > 0);
                assert_eq!(eng.content_hash(), expected, "[{label}] hash diverged");
                None
            }
        }
    }

    fn record_failing_seed(seed: u64) {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("persist_crash_failing_seed.txt");
        let _ = std::fs::write(&path, format!("{seed}\n"));
    }

    #[test]
    fn every_crash_point_recovers_to_the_uninterrupted_hash() {
        let prog = fan_program();
        let expected = expected_hash(&prog);
        let mut fired: HashSet<(CrashSite, u64)> = HashSet::new();

        // Curated points: small offsets die inside the first checkpoint
        // (recovery is a cold start); large offsets let the countdown
        // span several checkpoints and die mid-write with intact older
        // files behind them (recovery is restore + resume).
        let curated: &[(CrashSite, u64)] = &[
            (CrashSite::Header, 0),
            (CrashSite::Header, 100),
            (CrashSite::TableSection, 0),
            (CrashSite::TableSection, 77),
            (CrashSite::TupleBytes, 0),
            (CrashSite::TupleBytes, 37),
            (CrashSite::TupleBytes, 2000),
            (CrashSite::PendingSection, 0),
            (CrashSite::PendingSection, 100),
            (CrashSite::Footer, 3),
            (CrashSite::Footer, 40),
            (CrashSite::Rename, 0),
        ];
        for &(site, offset) in curated {
            if let Some(p) = crash_and_recover(&prog, expected, site, offset, "curated") {
                fired.insert(p);
            }
        }

        // Seeded sweep: reproducible pseudo-random (site, offset) pairs.
        // A red run reports its seed and drops it in
        // target/tmp/persist_crash_failing_seed.txt for CI to upload.
        for seed in 0..16u64 {
            let (site, offset) = fault::arm_seeded(seed);
            fault::disarm();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crash_and_recover(&prog, expected, site, offset, &format!("seed {seed}"))
            }));
            match result {
                Ok(Some(p)) => {
                    fired.insert(p);
                }
                Ok(None) => {}
                Err(payload) => {
                    record_failing_seed(seed);
                    std::panic::resume_unwind(payload);
                }
            }
        }

        assert!(
            fired.len() >= 8,
            "matrix must exercise >= 8 distinct crash points, fired: {fired:?}"
        );
        let sites: HashSet<CrashSite> = fired.iter().map(|&(s, _)| s).collect();
        for must in [
            CrashSite::TupleBytes,
            CrashSite::PendingSection,
            CrashSite::Rename,
        ] {
            assert!(
                sites.contains(&must),
                "site {must:?} never fired: {fired:?}"
            );
        }
    }

    /// Bytes each write site puts out for the checkpoint at `path`.
    fn site_bytes(path: &Path) -> Vec<(CrashSite, u64)> {
        let snap = jstar_core::persist::read_snapshot(path).unwrap();
        let record = |t: &Tuple| {
            let mut bytes = Vec::new();
            jstar_core::persist::format::encode_tuple(&mut bytes, t.fields());
            bytes.len() as u64
        };
        let headers = snap.tables.iter().map(|t| 4 + t.name.len() as u64 + 16);
        let rows = snap.tables.iter().flat_map(|t| t.tuples.iter().map(record));
        let sites = vec![
            (CrashSite::Header, 40),
            (CrashSite::TableSection, headers.sum()),
            (CrashSite::TupleBytes, rows.sum()),
            (
                CrashSite::PendingSection,
                8 + snap.pending.iter().map(|t| 4 + record(t)).sum::<u64>(),
            ),
            (CrashSite::Footer, 16),
        ];
        let total: u64 = sites.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, std::fs::metadata(path).unwrap().len());
        sites
    }

    /// The matrix again, killed inside the *third* checkpoint of a run:
    /// the writer is warm by then (two sections' worth of rows cached,
    /// the third appending to them) and two intact files sit behind the
    /// torn one. Recovery from the previous file reaches the
    /// uninterrupted hash, and so does recovery when the torn image made
    /// it onto the final name (a rename that outran its data) and
    /// `restore_latest` has to fall back past it.
    #[test]
    fn a_crash_inside_the_third_checkpoint_recovers_from_the_second() {
        let prog = fan_program();
        let expected = expected_hash(&prog);

        // Where the third checkpoint's bytes begin, per site: a fault
        // countdown runs across checkpoints, and what each one writes
        // is the same from run to run (the schedule is deterministic).
        let sizes = {
            let scratch = Scratch::new("sizes");
            let keep_all = checkpointing_config(scratch.path()).checkpoint_keep(100);
            Engine::new(Arc::clone(&prog), keep_all).run().unwrap();
            let files = jstar_core::persist::list_checkpoints(scratch.path()).unwrap();
            assert!(files.len() >= 4, "need a third checkpoint, got {files:?}");
            [0, 1, 2].map(|i| site_bytes(&files[i]))
        };

        for (i, &(site, third)) in sizes[2].iter().enumerate() {
            let before_third = sizes[0][i].1 + sizes[1][i].1;
            // (Not `+ 0`: a countdown that runs out exactly at the end of
            // the second checkpoint's bytes fires there, at the
            // zero-length probe of a still-empty table.)
            for into in [1, third / 2, third - 1] {
                let scratch = Scratch::new("warm");
                fault::arm(site, before_third + into);
                let outcome =
                    Engine::new(Arc::clone(&prog), checkpointing_config(scratch.path())).run();
                // (The offset reported is within the part that was cut —
                // one table's header, one table's rows.)
                let fired = fault::disarm().map(|(fired, _)| fired);
                assert_eq!(fired, Some(site), "{site:?} + {into}");
                assert!(outcome.is_err(), "{site:?} + {into}: crash fired, run() Ok");
                let files = jstar_core::persist::list_checkpoints(scratch.path()).unwrap();
                assert_eq!(files.len(), 2, "{site:?} + {into}: died in the third");
                let torn = scratch
                    .path()
                    .join(jstar_core::persist::checkpoint_file_name(2) + ".tmp");

                for torn_under_final_name in [false, true] {
                    if torn_under_final_name {
                        let name = jstar_core::persist::checkpoint_file_name(2);
                        std::fs::rename(&torn, scratch.path().join(name)).unwrap();
                    }
                    let mut resumed = Engine::new(Arc::clone(&prog), EngineConfig::parallel(2));
                    let restored = resumed.restore_latest(scratch.path()).unwrap();
                    assert_eq!(restored.path, files[1], "{site:?} + {into}");
                    assert_eq!(restored.skipped.len(), torn_under_final_name as usize);
                    resumed.run().unwrap();
                    assert_eq!(resumed.content_hash(), expected, "{site:?} + {into}");
                }
            }
        }
    }

    /// A write that fails must not leave the writer believing in
    /// sections it never finished: the next image is encoded from
    /// nothing, and is the image a new writer would produce.
    #[test]
    fn a_writer_starts_cold_after_an_injected_failure() {
        use jstar_core::persist::{CheckpointWriter, SnapshotMeta};
        let scratch = Scratch::new("cold");
        let mut eng = Engine::new(fan_program(), EngineConfig::parallel(2));
        eng.run().unwrap();
        let (defs, gamma) = (eng.program().defs(), eng.gamma());
        let live = gamma.total_len() as u64;
        let path = |name: &str| scratch.path().join(name);
        let write = |w: &mut CheckpointWriter, name: &str| {
            let before = w.rows_encoded();
            w.write(&mut |_| {}, SnapshotMeta::default(), &path(name))
                .map(|()| w.rows_encoded() - before)
        };

        let mut warm = CheckpointWriter::new(defs, gamma, None);
        assert_eq!(write(&mut warm, "a.jsnap").unwrap(), live);
        assert_eq!(
            write(&mut warm, "b.jsnap").unwrap(),
            0,
            "nothing new: all cached"
        );
        for (site, offset) in [(CrashSite::TupleBytes, 37), (CrashSite::Rename, 0)] {
            fault::arm(site, offset);
            assert!(write(&mut warm, "torn.jsnap").is_err());
            assert_eq!(fault::disarm(), Some((site, offset)));
            assert!(!path("torn.jsnap").exists());
            assert_eq!(
                write(&mut warm, "c.jsnap").unwrap(),
                live,
                "cold after {site:?}"
            );
            assert_eq!(write(&mut warm, "d.jsnap").unwrap(), 0);
        }
        let mut fresh = CheckpointWriter::new(defs, gamma, None);
        write(&mut fresh, "e.jsnap").unwrap();
        let bytes = |name: &str| std::fs::read(path(name)).unwrap();
        assert!(bytes("a.jsnap") == bytes("e.jsnap") && bytes("d.jsnap") == bytes("e.jsnap"));
    }
}
