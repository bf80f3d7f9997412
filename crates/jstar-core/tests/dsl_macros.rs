//! Coverage for the `jstar_table!` / `jstar_order!` macros: every column
//! type in both key and value position, every orderby component form
//! (`strat` literal, `seq`, `par`), the keyless-table case, and the
//! typed façade the item form generates.

use jstar_core::jstar_table;
use jstar_core::orderby::OrderComponent;
use jstar_core::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// All four column types in *value* position, keyless, with every
    /// orderby component form: a stratum literal, a `seq` field and a
    /// `par` field.
    pub Mixed(int i, double d, String s, boolean b)
        orderby (MixedS, seq i, par b)
}

jstar_table! {
    /// All four column types in *key* position (multi-column `->` key).
    pub Keyed(int ki, double kd, String ks, boolean kb -> int v)
        orderby (KeyedS, seq ki)
}

jstar_table! {
    /// Keyless table without any orderby list (pure set semantics in
    /// one implicit class).
    pub Bare(String name, boolean flag)
}

jstar_table! {
    /// Single-column key split directly after the first column.
    #[derive(Copy, Eq)]
    pub Tick(int t -> int v) orderby (Int, seq t)
}

#[test]
fn item_form_schema_constants() {
    assert_eq!(Mixed::NAME, "Mixed");
    assert_eq!(Mixed::KEY_ARITY, None);
    assert_eq!(Mixed::COLUMNS.len(), 4);
    assert_eq!(Mixed::COLUMNS[0].ty, ValueType::Int);
    assert_eq!(Mixed::COLUMNS[1].ty, ValueType::Double);
    assert_eq!(Mixed::COLUMNS[2].ty, ValueType::Str);
    assert_eq!(Mixed::COLUMNS[3].ty, ValueType::Bool);
    assert_eq!(
        Mixed::orderby(),
        vec![strat("MixedS"), seq("i"), OrderComponent::Par("b".into())]
    );

    assert_eq!(Keyed::KEY_ARITY, Some(4), "key spans all four types");
    assert_eq!(Keyed::COLUMNS[4].name, "v");

    assert_eq!(Bare::KEY_ARITY, None);
    assert!(Bare::orderby().is_empty());

    assert_eq!(Tick::KEY_ARITY, Some(1));
}

#[test]
fn field_tokens_carry_index_and_name() {
    assert_eq!(Mixed::i.index(), 0);
    assert_eq!(Mixed::d.index(), 1);
    assert_eq!(Mixed::s.index(), 2);
    assert_eq!(Mixed::b.index(), 3);
    assert_eq!(Mixed::s.name(), "s");
    assert_eq!(Keyed::v.index(), 4);
    assert_eq!(Bare::flag.index(), 1);
}

#[test]
fn item_form_roundtrips_through_tuples() {
    let row = Mixed {
        i: 7,
        d: 2.5,
        s: Arc::from("hello"),
        b: true,
    };
    let values = row.clone().into_values();
    assert_eq!(
        values,
        vec![
            Value::Int(7),
            Value::Double(2.5),
            Value::str("hello"),
            Value::Bool(true),
        ]
    );
    let t = Tuple::new(TableId(0), values);
    assert_eq!(Mixed::from_tuple(&t), row);
}

#[test]
fn registration_matches_expression_form() {
    // The item form registers the def that a hand-written positional
    // builder expression, `ProgramBuilder::table`, declares.
    let mut typed = ProgramBuilder::new();
    let th = typed.relation::<Keyed>();
    let typed_prog = typed.build().unwrap();

    let mut positional = ProgramBuilder::new();
    let pid = positional.table("Keyed", |b| {
        b.col_int("ki")
            .col_double("kd")
            .col_str("ks")
            .col_bool("kb")
            .key(4)
            .col_int("v")
            .orderby(&[strat("KeyedS"), seq("ki")])
    });
    let positional_prog = positional.build().unwrap();

    let a = typed_prog.def(th.id());
    let b = positional_prog.def(pid);
    assert_eq!(a.name, b.name);
    assert_eq!(a.key_arity, b.key_arity);
    assert_eq!(a.orderby, b.orderby);
    assert_eq!(
        a.columns
            .iter()
            .map(|c| (&c.name, c.ty))
            .collect::<Vec<_>>(),
        b.columns
            .iter()
            .map(|c| (&c.name, c.ty))
            .collect::<Vec<_>>()
    );
}

#[test]
fn relation_registration_is_idempotent() {
    let mut p = ProgramBuilder::new();
    let a = p.relation::<Tick>();
    let b = p.relation::<Tick>();
    assert_eq!(a.id(), b.id());
    let prog = p.build().unwrap();
    assert_eq!(prog.relation_id::<Tick>(), Some(a.id()));
    assert_eq!(prog.relation_id::<Bare>(), None);
}

#[test]
fn typed_program_runs_end_to_end() {
    let mut p = ProgramBuilder::new();
    p.rule_rel("tick", |ctx, t: Tick| {
        if t.t < 3 {
            ctx.put_rel(Tick {
                t: t.t + 1,
                v: t.v * 2,
            });
        }
    });
    p.put_rel(Tick { t: 0, v: 1 });
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    engine.run().unwrap();
    let mut rows = engine.collect_rel(Tick::query());
    rows.sort_by_key(|r| r.t);
    assert_eq!(
        rows,
        vec![
            Tick { t: 0, v: 1 },
            Tick { t: 1, v: 2 },
            Tick { t: 2, v: 4 },
            Tick { t: 3, v: 8 },
        ]
    );
    // Typed range + filter queries lower to the same Gamma stores.
    let big = engine.collect_rel(Tick::query().ge(Tick::v, 4).filter(|t| t.t > 2));
    assert_eq!(big, vec![Tick { t: 3, v: 8 }]);
}

#[test]
fn typed_rule_ctx_entry_points() {
    let mut p = ProgramBuilder::new();
    let seen: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
    let seen2 = Arc::clone(&seen);
    p.rule_rel("probe", move |ctx, t: Tick| {
        if t.t == 3 {
            // Everything before the trigger is visible in Gamma.
            let count = ctx.count_rel(Tick::query().lt(Tick::t, 3));
            let min = ctx.min_int_rel(Tick::query(), Tick::v);
            let max = ctx.max_int_rel(Tick::query(), Tick::v);
            let uniq = ctx.get_uniq_rel(Tick::query().eq(Tick::t, 0));
            let none = ctx.none_rel(Tick::query().eq(Tick::t, 99));
            seen2.lock().push(format!(
                "count={count} min={min:?} max={max:?} uniq={uniq:?} none={none}"
            ));
        } else {
            ctx.put_rel(Tick {
                t: t.t + 1,
                v: t.v + 10,
            });
        }
    });
    p.put_rel(Tick { t: 0, v: 1 });
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    engine.run().unwrap();
    let lines = seen.lock().clone();
    assert_eq!(lines.len(), 1);
    // The trigger tuple (t=3, v=31) is already in Gamma when its rules
    // fire, so the aggregate sees all four generations.
    assert!(
        lines[0].starts_with("count=3 min=Some(1) max=Some(31)"),
        "{lines:?}"
    );
    assert!(lines[0].ends_with("none=true"), "{lines:?}");
}

#[test]
fn prepared_queries_reuse_constraint_vectors() {
    let mut p = ProgramBuilder::new();
    let tick = p.relation::<Tick>();
    // The per-rule interning point: constant constraints lowered once,
    // outside the closure, reused by every invocation.
    let late = Tick::query().ge(Tick::t, 2).prepare(tick);
    let seen: Arc<parking_lot::Mutex<u64>> = Arc::default();
    let seen2 = Arc::clone(&seen);
    p.rule_rel("count-late", move |ctx, t: Tick| {
        if t.t < 3 {
            ctx.put_rel(Tick { t: t.t + 1, v: 0 });
        } else {
            *seen2.lock() = ctx.query_rel(&late).len() as u64;
        }
    });
    p.put_rel(Tick { t: 0, v: 0 });
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    engine.run().unwrap();
    assert_eq!(*seen.lock(), 2, "t=2 and the t=3 trigger itself match");
}

#[test]
fn positional_out_of_bounds_field_is_a_named_error() {
    let mut p = ProgramBuilder::new();
    let tick = p.relation::<Tick>().id();
    p.rule("bad-query", tick, move |ctx, _t| {
        // Column 9 does not exist: the raw positional API can express
        // this; the engine reports it instead of panicking in a store.
        let _ = ctx.query(&Query::on(tick).eq(9, 1i64));
    });
    p.put(Tuple::new(tick, vec![Value::Int(0), Value::Int(0)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    let err = engine.run().unwrap_err();
    assert_eq!(
        err,
        JStarError::NoSuchField {
            table: "Tick".into(),
            field: "#9".into(),
        },
        "{err}"
    );
}

#[test]
fn out_of_bounds_reducer_field_is_a_named_error() {
    let mut p = ProgramBuilder::new();
    p.rule_rel("bad-reduce", |ctx, t: Tick| {
        if t.t == 0 {
            // Tick has 2 columns; field 7 is the aggregate counterpart
            // of an out-of-bounds query constraint.
            let _ = ctx.reduce_rel(Tick::query(), &Statistics { field: 7 });
        }
    });
    p.put_rel(Tick { t: 0, v: 0 });
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(prog, EngineConfig::sequential());
    let err = engine.run().unwrap_err();
    assert_eq!(
        err,
        JStarError::NoSuchField {
            table: "Tick".into(),
            field: "#7".into(),
        },
        "{err}"
    );
}

#[test]
fn jstar_order_chains_still_work_with_relations() {
    let mut p = ProgramBuilder::new();
    let _ = p.relation::<Mixed>();
    let _ = p.relation::<Keyed>();
    jstar_core::jstar_order!(p, MixedS < KeyedS);
    let prog = p.build().unwrap();
    let a = prog.strata().lookup("MixedS").unwrap();
    let b = prog.strata().lookup("KeyedS").unwrap();
    assert!(prog.strata().declared_lt(a, b));
}

#[test]
fn duplicate_relation_name_is_a_build_error() {
    // A positional table and a relation with the same name collide.
    let mut p = ProgramBuilder::new();
    let _ = p.table("Tick", |b| b.col_int("x"));
    let _ = p.relation::<Tick>();
    let err = p.build().unwrap_err();
    assert_eq!(
        err,
        JStarError::DuplicateTable {
            table: "Tick".into()
        }
    );
}

// ── relation!{} — the typed façade over *existing* structs ──────────

/// A hand-written domain struct: carries its own derives and methods,
/// which `jstar_table!`'s item form could not have emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quake {
    pub t: i64,
    pub magnitude_x10: i64,
    pub shallow: bool,
}

impl Quake {
    pub fn is_major(&self) -> bool {
        self.magnitude_x10 >= 70
    }
}

jstar_core::relation! {
    Quake(int t -> int magnitude_x10, boolean shallow)
        orderby (Int, seq t)
}

/// A decode-side view mapped onto a table declared under a different
/// name (the `as "Table"` form): same layout as `Tick`, different type.
#[derive(Debug, Clone, PartialEq)]
pub struct TickView {
    pub t: i64,
    pub v: i64,
}

jstar_core::relation! {
    TickView as "Tick" (int t -> int v) orderby (Int, seq t)
}

#[test]
fn relation_macro_schema_matches_jstar_table_form() {
    assert_eq!(Quake::NAME, "Quake");
    assert_eq!(Quake::KEY_ARITY, Some(1));
    assert_eq!(Quake::COLUMNS.len(), 3);
    assert_eq!(Quake::COLUMNS[1].name, "magnitude_x10");
    assert_eq!(Quake::COLUMNS[2].ty, ValueType::Bool);
    assert_eq!(Quake::orderby(), vec![strat("Int"), seq("t")]);
    // Field tokens address the right offsets.
    assert_eq!(Quake::t.index(), 0);
    assert_eq!(Quake::magnitude_x10.index(), 1);
    assert_eq!(Quake::shallow.index(), 2);
}

#[test]
fn relation_macro_roundtrips_through_tuples() {
    let q = Quake {
        t: 3,
        magnitude_x10: 81,
        shallow: true,
    };
    assert!(q.is_major(), "domain methods survive the macro");
    let tuple = Tuple::new(TableId(0), q.into_values());
    let back = Quake::from_tuple(&tuple);
    assert_eq!(back, q);
}

#[test]
fn relation_macro_struct_runs_end_to_end() {
    let mut p = ProgramBuilder::new();
    let _quakes = p.relation::<Quake>();
    p.rule_rel("aftershock", |ctx, q: Quake| {
        if q.is_major() && q.t < 5 {
            ctx.put_rel(Quake {
                t: q.t + 1,
                magnitude_x10: q.magnitude_x10 - 15,
                shallow: q.shallow,
            });
        }
    });
    p.put_rel(Quake {
        t: 0,
        magnitude_x10: 95,
        shallow: false,
    });
    let prog = Arc::new(p.build().unwrap());
    let mut eng = Engine::new(prog, EngineConfig::sequential());
    eng.run().unwrap();
    // 95 → 80 → 65 (not major): three rows.
    let all = eng.collect_rel(Quake::query());
    assert_eq!(all.len(), 3);
    let majors = eng.collect_rel(Quake::query().ge(Quake::magnitude_x10, 70i64));
    assert_eq!(majors.len(), 2);
}

#[test]
fn relation_as_form_decodes_a_foreign_tables_rows() {
    // `Tick` (jstar_table!-generated) owns the table; `TickView` maps
    // the same schema onto a hand-written struct under `as "Tick"`.
    assert_eq!(TickView::NAME, "Tick");
    assert_eq!(TickView::KEY_ARITY, Some(1));
    let tick = Tick { t: 7, v: 42 };
    let tuple = Tuple::new(TableId(0), tick.into_values());
    let view = TickView::from_tuple(&tuple);
    assert_eq!(view, TickView { t: 7, v: 42 });
    assert_eq!(TickView::v.index(), Tick::v.index());
}
