//! Edge cases in program construction, orderby resolution, store
//! configuration and error reporting.

use jstar_core::gamma::StoreKind;
use jstar_core::prelude::*;
use std::sync::Arc;

#[test]
fn orderby_seq_on_missing_column_is_a_build_error() {
    let mut p = ProgramBuilder::new();
    let _ = p.table("T", |b| b.col_int("a").orderby(&[seq("missing")]));
    let err = p.build().unwrap_err();
    assert!(matches!(err, JStarError::Stratification(_)));
    assert!(err.to_string().contains("missing"));
}

#[test]
fn orderby_par_on_missing_column_is_a_build_error() {
    let mut p = ProgramBuilder::new();
    let _ = p.table("T", |b| b.col_int("a").orderby(&[par("missing")]));
    assert!(p.build().is_err());
}

#[test]
fn empty_program_runs_to_empty_fixpoint() {
    let p = ProgramBuilder::new();
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    let report = engine.run().unwrap();
    assert_eq!(report.steps, 0);
    assert_eq!(report.tuples_processed, 0);
}

#[test]
fn program_with_tables_but_no_rules_just_stores_initial_puts() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("x").orderby(&[seq("x")]));
    for i in 0..5 {
        p.put(Tuple::new(t, vec![Value::Int(i)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::parallel(2));
    let report = engine.run().unwrap();
    assert_eq!(engine.gamma().total_len(), 5);
    assert!(report.steps >= 1);
}

#[test]
fn store_kind_debug_formats() {
    assert_eq!(format!("{:?}", StoreKind::Ordered), "Ordered");
    assert_eq!(
        format!("{:?}", StoreKind::ConcurrentOrdered),
        "ConcurrentOrdered"
    );
    assert_eq!(
        format!(
            "{:?}",
            StoreKind::Hash {
                index_fields: vec!["x".into()],
            }
        ),
        r#"Hash(index=["x"])"#
    );
}

#[test]
fn duplicate_initial_puts_are_deduplicated() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("x").orderby(&[seq("x")]));
    for _ in 0..10 {
        p.put(Tuple::new(t, vec![Value::Int(7)]));
    }
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    engine.run().unwrap();
    assert_eq!(engine.gamma().total_len(), 1, "set semantics from step one");
}

#[test]
fn rules_on_same_trigger_all_fire() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("x").orderby(&[seq("x")]));
    p.rule("first", t, |ctx, tr| ctx.println(format!("a{}", tr.int(0))));
    p.rule("second", t, |ctx, tr| {
        ctx.println(format!("b{}", tr.int(0)))
    });
    p.put(Tuple::new(t, vec![Value::Int(1)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    let mut out = engine.run().unwrap().output;
    out.sort();
    assert_eq!(out, vec!["a1", "b1"]);
}

#[test]
fn every_put_is_checked_in_both_engines() {
    // The runtime checks have no off switch: a put into the past and a
    // mistyped put fail the run whichever engine runs it, Delta path
    // included (`engine_scenarios.rs` covers the staged `-noDelta` path).
    let build = |bad: Value| {
        let mut p = ProgramBuilder::new();
        let t = p.table("T", |b| b.col_int("x").orderby(&[seq("x")]));
        p.rule("bad-put", t, move |ctx, tr| {
            if tr.int(0) == 5 {
                ctx.put(Tuple::new(t, vec![bad.clone()]));
            }
        });
        p.put(Tuple::new(t, vec![Value::Int(5)]));
        Arc::new(p.build().unwrap())
    };
    for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
        let err = Engine::new(build(Value::Int(1)), config.clone())
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, JStarError::CausalityViolation { rule, .. } if rule == "bad-put"),
            "{err}"
        );
        let err = Engine::new(build(Value::str("six")), config)
            .run()
            .unwrap_err();
        assert!(matches!(err, JStarError::Type(_)), "{err}");
    }
}

/// A small two-table run serialized through the real writer — the
/// corpus seed for the snapshot-reader fuzz tests below.
fn snapshot_corpus() -> Vec<u8> {
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| {
        b.col_int("t")
            .col_double("v")
            .col_str("tag")
            .col_bool("on")
            .orderby(&[strat("A"), seq("t")])
    });
    let b = p.table("B", |b| b.col_int("x").orderby(&[strat("B"), seq("x")]));
    p.order(&["A", "B"]);
    p.rule("copy", a, move |ctx, tr| {
        ctx.put(Tuple::new(b, vec![Value::Int(tr.int(0) + 1)]));
    });
    for i in 0..6 {
        p.put(Tuple::new(
            a,
            vec![
                Value::Int(i),
                Value::Double(i as f64 * 0.5),
                Value::Str(format!("tag{i}").into()),
                Value::Bool(i % 2 == 0),
            ],
        ));
    }
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    engine.run().unwrap();
    let path = std::env::temp_dir().join(format!(
        "jstar-validation-corpus-{}-{:?}.jsnap",
        std::process::id(),
        std::thread::current().id()
    ));
    engine.snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn snapshot_reader_accepts_the_unmangled_corpus() {
    let bytes = snapshot_corpus();
    let snap = jstar_core::persist::read_snapshot_bytes(&bytes).unwrap();
    assert_eq!(snap.tables.len(), 2);
    assert_eq!(snap.tables[0].tuples.len(), 6);
    assert_eq!(snap.tables[1].tuples.len(), 6);
}

#[test]
fn snapshot_reader_rejects_every_truncation_without_panicking() {
    let bytes = snapshot_corpus();
    for len in 0..bytes.len() {
        assert!(
            jstar_core::persist::read_snapshot_bytes(&bytes[..len]).is_err(),
            "truncation to {len}/{} bytes must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn snapshot_reader_rejects_every_single_bit_flip_without_panicking() {
    // The trailing checksum covers every preceding byte (including the
    // footer magic), so no single-bit corruption anywhere in the image
    // may survive — and none may panic the reader.
    let bytes = snapshot_corpus();
    let mut mangled = bytes.clone();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            mangled[pos] ^= 1 << bit;
            assert!(
                jstar_core::persist::read_snapshot_bytes(&mangled).is_err(),
                "bit {bit} of byte {pos} flipped: must be rejected"
            );
            mangled[pos] = bytes[pos];
        }
    }
}

#[test]
fn snapshot_reader_rejects_trailing_garbage_and_alien_bytes() {
    let mut bytes = snapshot_corpus();
    bytes.extend_from_slice(b"junk");
    assert!(jstar_core::persist::read_snapshot_bytes(&bytes).is_err());
    assert!(jstar_core::persist::read_snapshot_bytes(b"").is_err());
    assert!(jstar_core::persist::read_snapshot_bytes(b"JSTARSNP").is_err());
    let alien: Vec<u8> = (0..512u32).map(|i| (i * 31 % 251) as u8).collect();
    assert!(jstar_core::persist::read_snapshot_bytes(&alien).is_err());
}

/// A two-table program with a `->` key on `Done`, as in Fig. 5.
fn keyed_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let edge = p.table("Edge", |b| {
        b.col_int("from")
            .col_int("to")
            .orderby(&[strat("Edge"), seq("from")])
    });
    let done = p.table("Done", |b| {
        b.col_int("vertex")
            .col_int("distance")
            .key(1)
            .orderby(&[strat("Done"), seq("vertex")])
    });
    p.order(&["Edge", "Done"]);
    for i in 0..5 {
        p.put(Tuple::new(edge, vec![Value::Int(i), Value::Int(i + 1)]));
        p.put(Tuple::new(done, vec![Value::Int(i), Value::Int(i * 10)]));
    }
    Arc::new(p.build().unwrap())
}

/// A snapshot image assembled by hand, every integrity field computed
/// from what is actually in it: per-section count and content hash, the
/// whole-file checksum. A pending record names its table by index.
fn image(fingerprint: u64, tables: &[(&str, Vec<Tuple>)], pending: &[(u32, Tuple)]) -> Vec<u8> {
    use jstar_core::persist::{fnv1a_words, format, ContentHash};
    let mut out = Vec::new();
    out.extend_from_slice(format::MAGIC);
    out.extend_from_slice(&format::VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&[0; 16]); // steps, tuples processed
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, rows) in tables {
        let (mut body, mut hash) = (Vec::new(), ContentHash::new());
        for row in rows {
            let start = body.len();
            format::encode_tuple(&mut body, row.fields());
            hash.add_encoded(&body[start..]);
        }
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&hash.count().to_le_bytes());
        out.extend_from_slice(&hash.finish().to_le_bytes());
        out.extend_from_slice(&body);
    }
    out.extend_from_slice(&(pending.len() as u64).to_le_bytes());
    for (table, row) in pending {
        out.extend_from_slice(&table.to_le_bytes());
        format::encode_tuple(&mut out, row.fields());
    }
    out.extend_from_slice(format::FOOTER_MAGIC);
    let checksum = fnv1a_words(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

#[test]
fn a_repeated_row_inside_a_valid_image_is_corruption() {
    // Storage rot cannot produce these files — every checksum in them is
    // right — but a buggy or hostile writer can, and a table loaded with
    // a row twice, or with two rows under one `->` key, answers queries
    // wrongly ever after. The reader cannot tell (it sees records, not
    // a set); the import must.
    let dir = std::env::temp_dir().join(format!("jstar-validation-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prog = keyed_program();
    let fingerprint = jstar_core::persist::schema_fingerprint(prog.defs());
    let rows = |engine: &Engine, table: u32| engine.gamma().collect(&Query::on(TableId(table)));
    let done = |vertex: i64, distance: i64| {
        Tuple::new(TableId(1), vec![Value::Int(vertex), Value::Int(distance)])
    };

    for config in [EngineConfig::sequential, || EngineConfig::parallel(2)] {
        let mut source = Engine::new(Arc::clone(&prog), config());
        source.run().unwrap();
        let (edges, dones) = (rows(&source, 0), rows(&source, 1));
        let sections = |dones: Vec<Tuple>| {
            image(
                fingerprint,
                &[("Edge", edges.clone()), ("Done", dones)],
                &[],
            )
        };

        // The hand-assembled image of the engine's own rows restores,
        // so what the two below are refused for is their extra row.
        let good = dir.join(jstar_core::persist::checkpoint_file_name(1));
        std::fs::write(&good, sections(dones.clone())).unwrap();
        let mut restored = Engine::new(Arc::clone(&prog), config());
        restored.restore(&good).unwrap();
        assert_eq!(restored.content_hash(), source.content_hash());

        let repeated = [dones.clone(), vec![dones[2].clone()]].concat();
        let rekeyed = [dones.clone(), vec![done(2, 999)]].concat();
        // And three that fail late for other reasons, with the tables
        // before them already staged: a mistyped row in the last
        // section, a last section whose hash is off, a mistyped pending
        // tuple after every section.
        let mistyped = Tuple::new(TableId(1), vec![Value::Int(9), Value::str("far")]);
        let mut off_hash = sections(dones.clone());
        let at = off_hash.windows(4).position(|w| w == b"Done").unwrap() + 4 + 8;
        off_hash[at] ^= 1;
        let sealed = off_hash.len() - 8;
        let checksum = jstar_core::persist::fnv1a_words(&off_hash[..sealed]);
        off_hash[sealed..].copy_from_slice(&checksum.to_le_bytes());
        let tables = [("Edge", edges.clone()), ("Done", dones.clone())];
        for (what, bytes) in [
            (
                "a mistyped row",
                sections([dones.clone(), vec![mistyped.clone()]].concat()),
            ),
            ("a section hash that is off", off_hash),
            (
                "a mistyped pending tuple",
                image(fingerprint, &tables, &[(1, mistyped)]),
            ),
        ] {
            let mut victim = Engine::new(Arc::clone(&prog), config());
            victim.run().unwrap();
            let before = victim.content_hash();
            let path = dir.join("late.jsnap");
            std::fs::write(&path, bytes).unwrap();
            let err = victim.restore(&path).expect_err(what);
            assert!(
                matches!(err, JStarError::CorruptSnapshot(_)),
                "{what}: {err:?}"
            );
            assert_eq!(
                victim.content_hash(),
                before,
                "{what}: restore mutated Gamma"
            );
            std::fs::remove_file(&path).unwrap();
        }
        for (what, bad_rows) in [
            ("a repeated row", repeated),
            ("a second row under a key", rekeyed),
        ] {
            let bytes = sections(bad_rows);
            let snap = jstar_core::persist::read_snapshot_bytes(&bytes).unwrap();
            assert_eq!(
                snap.tables[1].tuples.len(),
                6,
                "{what}: the reader sees records"
            );
            let bad = dir.join(jstar_core::persist::checkpoint_file_name(2));
            std::fs::write(&bad, bytes).unwrap();

            // Refused, and the engine — holding other rows — untouched.
            let mut victim = Engine::new(Arc::clone(&prog), config());
            victim.run().unwrap();
            victim.inject(done(77, 7));
            victim.run().unwrap();
            let before = victim.content_hash();
            let err = victim.restore(&bad).expect_err(what);
            assert!(
                matches!(err, JStarError::CorruptSnapshot(_)),
                "{what}: {err:?}"
            );
            assert!(err.to_string().contains("Done"), "{err}");
            assert_eq!(
                victim.content_hash(),
                before,
                "{what}: restore mutated Gamma"
            );
            assert_eq!(rows(&victim, 1).len(), 6);

            // In a checkpoint directory it is one more bad newest file:
            // skipped, reported, and the older one restored.
            let outcome = victim.restore_latest(&dir).unwrap();
            assert_eq!(outcome.path, good);
            assert_eq!(outcome.skipped.len(), 1);
            assert_eq!(outcome.skipped[0].0, bad);
            assert!(matches!(
                outcome.skipped[0].1,
                JStarError::CorruptSnapshot(_)
            ));
            assert_eq!(victim.content_hash(), source.content_hash());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pending_tuple_naming_no_table_is_rejected_at_decode() {
    let row = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(2)]);
    let tables = [("Edge", vec![]), ("Done", vec![])];
    let named = |table: u32| image(7, &tables, &[(table, row.clone())]);
    let snap = jstar_core::persist::read_snapshot_bytes(&named(1)).unwrap();
    assert_eq!(snap.pending[0].table(), TableId(1));
    assert_eq!(snap.pending[0].fields(), row.fields());
    for beyond in [2, 3, u32::MAX] {
        let err = jstar_core::persist::read_snapshot_bytes(&named(beyond)).unwrap_err();
        assert!(matches!(err, JStarError::CorruptSnapshot(_)), "{err:?}");
        assert!(err.to_string().contains("table index"), "{err}");
    }
}

#[test]
fn run_report_exposes_elapsed_and_output() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("x").orderby(&[seq("x")]));
    p.rule("say", t, |ctx, _| ctx.println("hi"));
    p.put(Tuple::new(t, vec![Value::Int(1)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    let report = engine.run().unwrap();
    assert_eq!(report.output, vec!["hi"]);
    assert!(report.elapsed.as_nanos() > 0);
    assert_eq!(engine.output(), vec!["hi"]);
}
