//! Concurrency stress tests for the reservation-based (claim-then-
//! publish) Gamma stores.
//!
//! The lock-free insert path must uphold, under heavy multi-threaded
//! contention, exactly what the locked path guaranteed:
//!
//! * no tuple is ever dropped — every distinct tuple reported `Fresh`
//!   by exactly one inserter and present afterwards;
//! * no tuple is ever duplicated — racing equal inserts produce one
//!   `Fresh` and the rest `Duplicate`;
//! * primary-key (`->`) conflicts produce exactly one `Fresh` per key;
//! * readers running *during* the insert storm never observe partial
//!   state: every tuple yielded by a scan or query is fully formed.
//!
//! These are loom-style schedules explored statistically: many rounds
//! of 8+ threads hammering overlapping ranges on fresh stores.

use jstar_core::gamma::{HashStore, InsertOutcome, TableStore};
use jstar_core::orderby::{seq, strat};
use jstar_core::query::Query;
use jstar_core::schema::{TableDef, TableDefBuilder, TableId};
use jstar_core::tuple::Tuple;
use jstar_core::value::Value;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;

fn keyed_def() -> Arc<TableDef> {
    Arc::new(
        TableDefBuilder::standalone("K")
            .col_int("a")
            .col_int("b")
            .key(1)
            .orderby(&[strat("K"), seq("a")])
            .build_def(TableId(0)),
    )
}

fn set_def() -> Arc<TableDef> {
    Arc::new(
        TableDefBuilder::standalone("S")
            .col_int("x")
            .col_int("y")
            .orderby(&[strat("S")])
            .build_def(TableId(0)),
    )
}

fn kt(a: i64, b: i64) -> Tuple {
    Tuple::new(TableId(0), vec![Value::Int(a), Value::Int(b)])
}

/// Every chain shape under test, built fresh: chained on the key (the
/// parallel default for a table keyed on its first column), a keyed
/// table chained off its key — so chain links race too — and a keyless
/// table chained on its first column.
fn stores() -> Vec<(&'static str, Arc<dyn TableStore>)> {
    vec![
        (
            "hash-on-key",
            Arc::new(HashStore::new(keyed_def(), vec![0])) as Arc<dyn TableStore>,
        ),
        (
            "hash-keyed-on-b",
            Arc::new(HashStore::new(keyed_def(), vec![1])),
        ),
        ("hash-keyless", Arc::new(HashStore::new(set_def(), vec![0]))),
    ]
}

/// 8 threads insert heavily-overlapping tuple ranges: each distinct
/// tuple must come back `Fresh` exactly once and never be dropped.
#[test]
fn no_drops_no_duplicates_under_contention() {
    let distinct = 2_000i64;
    for round in 0..4 {
        for (name, store) in stores() {
            let fresh = AtomicUsize::new(0);
            let dups = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for thread in 0..THREADS {
                    let store = Arc::clone(&store);
                    let (fresh, dups) = (&fresh, &dups);
                    s.spawn(move || {
                        // Offset starts so threads collide mid-range.
                        for i in 0..distinct {
                            let a = (i + thread as i64 * 251 + round) % distinct;
                            match store.insert(kt(a, a * 2)) {
                                InsertOutcome::Fresh => {
                                    fresh.fetch_add(1, Ordering::Relaxed);
                                }
                                InsertOutcome::Duplicate => {
                                    dups.fetch_add(1, Ordering::Relaxed);
                                }
                                InsertOutcome::KeyConflict => {
                                    panic!("{name}: unexpected key conflict")
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(
                fresh.load(Ordering::Relaxed),
                distinct as usize,
                "{name}: every distinct tuple fresh exactly once"
            );
            assert_eq!(
                dups.load(Ordering::Relaxed),
                THREADS * distinct as usize - distinct as usize,
                "{name}: every other insert a duplicate"
            );
            assert_eq!(store.len(), distinct as usize, "{name}: nothing dropped");
            for a in 0..distinct {
                assert!(store.contains(&kt(a, a * 2)), "{name}: {a} present");
            }
        }
    }
}

/// Two threads release from a barrier into `insert_batch` calls over the
/// same tuples (one in reverse, so they collide mid-batch from both
/// ends): every tuple is `Fresh` in exactly one of the two outcome
/// vectors, and the two batches' ranged journal appends leave no cell
/// unfilled and no tuple unjournaled.
#[test]
fn racing_insert_batches_yield_one_fresh_each() {
    let distinct = 3_000i64;
    for round in 0..8 {
        for (name, store) in stores() {
            let forward: Vec<Tuple> = (0..distinct).map(|a| kt(a, a * 2 + round)).collect();
            let backward: Vec<Tuple> = forward.iter().rev().cloned().collect();
            let barrier = std::sync::Barrier::new(2);
            let race = |batch: &[Tuple]| {
                let mut outcomes = Vec::new();
                barrier.wait();
                for run in batch.chunks(257) {
                    store.insert_batch(run, &mut outcomes);
                }
                outcomes
            };
            let (fwd, mut bwd) = std::thread::scope(|s| {
                let other = s.spawn(|| race(&backward));
                (race(&forward), other.join().expect("racing inserter"))
            });
            bwd.reverse();
            for (a, pair) in fwd.iter().zip(&bwd).enumerate() {
                assert!(
                    matches!(
                        pair,
                        (InsertOutcome::Fresh, InsertOutcome::Duplicate)
                            | (InsertOutcome::Duplicate, InsertOutcome::Fresh)
                    ),
                    "{name}: tuple {a} came back {pair:?}"
                );
            }
            assert_eq!(store.len(), distinct as usize, "{name}");
            let generation = store.index_stamp().expect("journaled").generation;
            assert_eq!(generation, distinct as usize, "{name}: one cell per fresh");
            let mut journaled = 0;
            let covered = store.for_each_journal_suffix(0, generation, &mut |_| journaled += 1);
            assert_eq!((covered, journaled), (generation, generation), "{name}");
        }
    }
}

/// Racing same-key different-value inserts: the `->` invariant admits
/// exactly one winner per key; everyone else sees `KeyConflict`.
#[test]
fn key_conflicts_have_exactly_one_winner() {
    let keys = 500i64;
    for _round in 0..4 {
        for (name, store) in stores() {
            if name == "hash-keyless" {
                continue; // no key declared — nothing to conflict
            }
            let fresh = AtomicUsize::new(0);
            let conflicts = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for thread in 0..THREADS {
                    let store = Arc::clone(&store);
                    let (fresh, conflicts) = (&fresh, &conflicts);
                    s.spawn(move || {
                        for a in 0..keys {
                            // Each thread proposes a different value for
                            // the same key.
                            match store.insert(kt(a, 10_000 + thread as i64)) {
                                InsertOutcome::Fresh => {
                                    fresh.fetch_add(1, Ordering::Relaxed);
                                }
                                InsertOutcome::KeyConflict => {
                                    conflicts.fetch_add(1, Ordering::Relaxed);
                                }
                                InsertOutcome::Duplicate => {
                                    panic!("{name}: values are all distinct")
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(
                fresh.load(Ordering::Relaxed),
                keys as usize,
                "{name}: one winner per key"
            );
            assert_eq!(
                conflicts.load(Ordering::Relaxed),
                (THREADS - 1) * keys as usize,
                "{name}: everyone else conflicted"
            );
            assert_eq!(store.len(), keys as usize);
        }
    }
}

/// Readers scanning and querying *during* the insert storm never see a
/// partially published tuple: every yielded row decodes to one of the
/// values some writer actually inserted, and the set only grows.
#[test]
fn readers_never_observe_partial_publishes() {
    for (name, store) in stores() {
        let stop = AtomicBool::new(false);
        let distinct = 3_000i64;
        std::thread::scope(|s| {
            // Writers.
            for thread in 0..THREADS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..distinct {
                        let a = (i * 7 + thread as i64) % distinct;
                        store.insert(kt(a, a * 3 + 1));
                    }
                });
            }
            // Readers: full scans plus point queries while writers run.
            for _ in 0..2 {
                let store = Arc::clone(&store);
                let stop = &stop;
                s.spawn(move || {
                    let mut max_seen = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let mut seen = 0usize;
                        store.for_each(&mut |t| {
                            seen += 1;
                            // Fully-formed or not visible at all.
                            assert_eq!(t.fields().len(), 2, "partial tuple observed");
                            let a = t.int(0);
                            assert_eq!(t.int(1), a * 3 + 1, "torn tuple observed");
                            true
                        });
                        assert!(seen >= max_seen, "the visible set never shrinks");
                        max_seen = seen;
                        // By the first column, then by the second alone
                        // (the chain walk where the table links one on it).
                        for probe in [
                            Query::on(TableId(0)).eq(0, 42i64),
                            Query::on(TableId(0)).eq(1, 42 * 3 + 1i64),
                        ] {
                            store.query(probe.probe(), &mut |t| {
                                assert_eq!(t.int(0), 42);
                                assert_eq!(t.int(1), 42 * 3 + 1);
                                true
                            });
                        }
                    }
                });
            }
            // Writers finish first (scope join requires stopping readers).
            // Give readers a moment of post-quiescence scanning, then stop.
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                stop.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(store.len(), distinct as usize, "{name}");
    }
}

/// Retain (lifetime hints) racing a full scan: tombstoned tuples vanish
/// from every read path without disturbing survivors.
#[test]
fn retain_under_concurrent_readers() {
    for (name, store) in stores() {
        for a in 0..2_000i64 {
            store.insert(kt(a, a * 2));
        }
        std::thread::scope(|s| {
            let st = Arc::clone(&store);
            s.spawn(move || st.retain(&|t| t.int(0) % 2 == 0));
            let st = Arc::clone(&store);
            s.spawn(move || {
                for _ in 0..20 {
                    st.for_each(&mut |t| {
                        assert_eq!(t.int(1), t.int(0) * 2, "torn tuple during retain");
                        true
                    });
                }
            });
        });
        assert_eq!(store.len(), 1_000, "{name}: odd tuples tombstoned");
        assert!(store.contains(&kt(4, 8)), "{name}");
        assert!(!store.contains(&kt(5, 10)), "{name}");
    }
}
