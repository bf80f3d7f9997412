//! Orderby resolution and key-extraction edge cases.

use jstar_core::orderby::{par, seq, strat, KeyPart, ResolvedOrderBy};
use jstar_core::schema::{TableDefBuilder, TableId};
use jstar_core::strata::{StrataBuilder, StrataOrder};
use jstar_core::tuple::Tuple;
use jstar_core::value::Value;
use std::sync::Arc;

fn strata_of(names: &[&str]) -> StrataOrder {
    let mut b = StrataBuilder::new();
    for n in names {
        b.intern(n);
    }
    b.build().unwrap()
}

#[test]
fn resolve_maps_fields_and_literals() {
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("a")
            .col_int("b")
            .orderby(&[strat("Lit"), seq("b"), par("a")])
            .build_def(TableId(0)),
    );
    let strata = strata_of(&["Lit"]);
    let resolved = ResolvedOrderBy::resolve(&def, &strata).unwrap();
    assert_eq!(resolved.components.len(), 3);

    let t = Tuple::new(TableId(0), vec![Value::Int(10), Value::Int(20)]);
    let key = resolved.key_of(&t);
    // par truncates: key has the strat and the seq component only.
    assert_eq!(key.len(), 2);
    assert_eq!(key.part(1), Some(KeyPart::Int(20)));
}

#[test]
fn resolve_fails_on_unknown_literal() {
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("a")
            .orderby(&[strat("Nope")])
            .build_def(TableId(0)),
    );
    let strata = strata_of(&[]);
    let err = ResolvedOrderBy::resolve(&def, &strata).unwrap_err();
    assert!(err.contains("Nope"));
}

#[test]
fn resolve_fails_on_unknown_column() {
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("a")
            .orderby(&[seq("ghost")])
            .build_def(TableId(0)),
    );
    let strata = strata_of(&[]);
    let err = ResolvedOrderBy::resolve(&def, &strata).unwrap_err();
    assert!(err.contains("ghost"));
}

#[test]
fn empty_orderby_gives_minimal_keys() {
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("a")
            .build_def(TableId(0)),
    );
    let strata = strata_of(&[]);
    let resolved = ResolvedOrderBy::resolve(&def, &strata).unwrap();
    let t = Tuple::new(TableId(0), vec![Value::Int(1)]);
    assert!(resolved.key_of(&t).is_empty());
}

#[test]
fn everything_after_first_par_is_ignored() {
    // orderby (A, par x, seq y): y can never influence scheduling.
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("x")
            .col_int("y")
            .orderby(&[strat("A"), par("x"), seq("y")])
            .build_def(TableId(0)),
    );
    let strata = strata_of(&["A"]);
    let resolved = ResolvedOrderBy::resolve(&def, &strata).unwrap();
    let t1 = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(100)]);
    let t2 = Tuple::new(TableId(0), vec![Value::Int(2), Value::Int(-50)]);
    assert_eq!(resolved.key_of(&t1), resolved.key_of(&t2));
}

#[test]
fn same_seq_field_used_twice_is_allowed() {
    // Degenerate but legal: orderby (seq a, seq a).
    let def = Arc::new(
        TableDefBuilder::standalone("T")
            .col_int("a")
            .orderby(&[seq("a"), seq("a")])
            .build_def(TableId(0)),
    );
    let strata = strata_of(&[]);
    let resolved = ResolvedOrderBy::resolve(&def, &strata).unwrap();
    let t = Tuple::new(TableId(0), vec![Value::Int(3)]);
    let key = resolved.key_of(&t);
    assert_eq!(key.len(), 2);
    assert_eq!(key.part(0), key.part(1));
}
