//! Declarative macros giving JStar's concise surface syntax (§1.1).
//!
//! The paper's first design goal is concision: "a concise one-line
//! notation for defining relational tables". The **item form** of
//! [`crate::jstar_table!`] turns that one line into the full typed façade — a
//! Rust struct, its [`crate::relation::Relation`] impl, and a
//! [`crate::relation::Field`] token per column — so rules and queries
//! are written against named, compile-time-checked fields:
//!
//! ```
//! use jstar_core::prelude::*;
//!
//! jstar_core::jstar_table! {
//!     /// table Ship(int frame -> int x, int y, int dx, int dy)
//!     ///   orderby (Int, seq frame)           — §3's declaration.
//!     #[derive(Copy, Eq)]
//!     pub Ship(int frame -> int x, int y, int dx, int dy)
//!         orderby (Int, seq frame)
//! }
//!
//! let mut p = ProgramBuilder::new();
//! let ship = p.relation::<Ship>();
//! p.rule_rel("move", |ctx, s: Ship| {
//!     if s.x < 400 {
//!         ctx.put_rel(Ship { frame: s.frame + 1, x: s.x + 150, ..s });
//!     }
//! });
//! p.put_rel(Ship { frame: 0, x: 10, y: 10, dx: 150, dy: 0 });
//! let program = std::sync::Arc::new(p.build().unwrap());
//! let mut engine = Engine::new(program, EngineConfig::sequential());
//! engine.run().unwrap();
//! // Typed queries: field/type mismatches are compile errors.
//! let far = engine.collect_rel(Ship::query().ge(Ship::x, 400));
//! assert_eq!(far.len(), 1);
//! # let _ = ship;
//! ```
//!
//! Tooling that manipulates schemas it does not know at compile time
//! declares them positionally, with
//! [`crate::program::ProgramBuilder::table`].
//!
//! Column types are `int`, `double`, `String`, `boolean` (the paper's Java
//! surface types), mapped to `i64`, `f64`, `Arc<str>`, `bool` struct
//! fields; `->` marks the primary-key split; orderby items are capitalised
//! stratum literals, `seq field`, or `par field`. Attributes written
//! before the declaration (doc comments, extra `#[derive(...)]`s such as
//! `Copy` or `Eq` for all-scalar tables) are passed through to the
//! generated struct, which always derives `Debug`, `Clone`, `PartialEq`.
//!
//! For structs that already exist — domain types with their own methods,
//! derives or invariants, which `jstar_table!` cannot generate —
//! [`crate::relation!`] implements the same typed façade (the
//! [`crate::relation::Relation`] impl plus the `Field` tokens) *onto*
//! the hand-written struct, from the same column notation.
//!
//! Both surfaces — `jstar_table!` and `relation!` — parse the identical
//! column grammar, so the grammar lives in exactly one place: the
//! [`crate::__jstar_columns!`] muncher walks `type name [, | ->]` once,
//! accumulates `(index, name, type)` triples plus the key split, and
//! calls back into the requesting macro, which only renders the result.

/// The shared column muncher behind [`crate::jstar_table!`] and
/// [`crate::relation!`] — **not public API** (the name is `#[doc(hidden)]`
/// and exported only because `macro_rules!` cross-macro calls require
/// it).
///
/// Entry: `__jstar_columns!([callback_macro ctx...]; columns...)`.
/// The muncher walks the paper's `type name` list, counting the `->`
/// primary-key split, and finishes by invoking
/// `$crate::callback_macro!(ctx...; [(idx, name, type)...]; key)`
/// where `key` is `(none)` or `(some arity)`. The `@rust_ty`,
/// `@value_ty` and `@key` helper arms render the accumulated triples
/// for the callbacks.
#[doc(hidden)]
#[macro_export]
macro_rules! __jstar_columns {
    // The recursive arms transcribe to brace-form invocations, which
    // parse as items.
    ([$($cb:tt)*]; $($cols:tt)*) => {
        $crate::__jstar_columns! { @munch [$($cb)*]; []; (none); 0usize; $($cols)* }
    };

    // The muncher: one arm per way a `type name` pair can end.
    (@munch $cb:tt; $acc:tt; $key:tt; $idx:expr; ) => {
        $crate::__jstar_columns! { @done $cb; $acc; $key }
    };
    (@munch $cb:tt; [$($acc:tt)*]; $key:tt; $idx:expr; $kind:tt $n:ident) => {
        $crate::__jstar_columns! { @done $cb; [$($acc)* ($idx, $n, $kind)]; $key }
    };
    (@munch $cb:tt; [$($acc:tt)*]; $key:tt; $idx:expr; $kind:tt $n:ident , $($rest:tt)*) => {
        $crate::__jstar_columns! { @munch $cb; [$($acc)* ($idx, $n, $kind)]; $key; $idx + 1usize; $($rest)* }
    };
    (@munch $cb:tt; [$($acc:tt)*]; $key:tt; $idx:expr; $kind:tt $n:ident -> $($rest:tt)*) => {
        $crate::__jstar_columns! { @munch $cb; [$($acc)* ($idx, $n, $kind)]; (some ($idx + 1usize)); $idx + 1usize; $($rest)* }
    };
    (@done [$cbmac:ident $($ctx:tt)*]; $acc:tt; $key:tt) => {
        $crate::$cbmac! { $($ctx)*; $acc; $key }
    };

    // Rendering helpers: the paper's surface types and the key split.
    (@rust_ty int) => { i64 };
    (@rust_ty double) => { f64 };
    (@rust_ty String) => { ::std::sync::Arc<str> };
    (@rust_ty boolean) => { bool };
    (@value_ty int) => { $crate::value::ValueType::Int };
    (@value_ty double) => { $crate::value::ValueType::Double };
    (@value_ty String) => { $crate::value::ValueType::Str };
    (@value_ty boolean) => { $crate::value::ValueType::Bool };
    (@key (none)) => { ::core::option::Option::None };
    (@key (some $k:expr)) => { ::core::option::Option::Some($k) };
}

/// Declares a table using the paper's
/// `table Name(type col, ... -> type col, ...) orderby (...)` notation:
/// `jstar_table! { pub Name(...) orderby (...) }` expands to the struct
/// `Name`, its [`crate::relation::Relation`] impl and one
/// [`crate::relation::Field`] constant per column (`Name::col`).
/// Register it with [`crate::program::ProgramBuilder::relation`].
///
/// See the [module docs](crate::dsl) for a worked example.
#[macro_export]
macro_rules! jstar_table {
    // ── Emit struct + Relation impl + Field tokens. ─────────────────
    ($(#[$meta:meta])* $vis:vis $name:ident ( $($cols:tt)* ) orderby ( $($ob:tt)* )) => {
        $crate::__jstar_columns!([jstar_table @emit [$(#[$meta])*] [$vis] $name [$($ob)*]]; $($cols)*);
    };
    ($(#[$meta:meta])* $vis:vis $name:ident ( $($cols:tt)* )) => {
        $crate::__jstar_columns!([jstar_table @emit [$(#[$meta])*] [$vis] $name []]; $($cols)*);
    };

    // Orderby list: accumulate component expressions, then emit one
    // `vec![...]` literal.
    (@ob $($items:tt)*) => {
        $crate::jstar_table!(@oblist [] $($items)*)
    };
    (@oblist [$($acc:expr,)*] ) => {
        ::std::vec![$($acc),*]
    };
    (@oblist [$($acc:expr,)*] seq $f:ident $(, $($rest:tt)*)?) => {
        $crate::jstar_table!(@oblist [$($acc,)* $crate::orderby::seq(stringify!($f)),] $($($rest)*)?)
    };
    (@oblist [$($acc:expr,)*] par $f:ident $(, $($rest:tt)*)?) => {
        $crate::jstar_table!(@oblist [$($acc,)* $crate::orderby::par(stringify!($f)),] $($($rest)*)?)
    };
    (@oblist [$($acc:expr,)*] $lit:ident $(, $($rest:tt)*)?) => {
        $crate::jstar_table!(@oblist [$($acc,)* $crate::orderby::strat(stringify!($lit)),] $($($rest)*)?)
    };

    // Callback: the struct, its Relation impl, and one Field token per
    // column.
    (@emit [$($meta:tt)*] [$vis:vis] $name:ident [$($ob:tt)*];
        [$( ($idx:expr, $n:ident, $kind:tt) )*]; $key:tt) => {
        $($meta)*
        #[derive(Debug, Clone, PartialEq)]
        $vis struct $name {
            $( pub $n: $crate::__jstar_columns!(@rust_ty $kind), )*
        }

        impl $crate::relation::Relation for $name {
            const NAME: &'static str = ::core::stringify!($name);
            const COLUMNS: &'static [$crate::relation::ColumnSpec] = &[
                $( $crate::relation::ColumnSpec {
                    name: ::core::stringify!($n),
                    ty: $crate::__jstar_columns!(@value_ty $kind),
                }, )*
            ];
            const KEY_ARITY: ::core::option::Option<usize> =
                $crate::__jstar_columns!(@key $key);

            fn orderby() -> ::std::vec::Vec<$crate::orderby::OrderComponent> {
                $crate::jstar_table!(@ob $($ob)*)
            }

            fn from_tuple(t: &$crate::tuple::Tuple) -> Self {
                $name {
                    $( $n: $crate::relation::FieldValue::from_value(t.get($idx)), )*
                }
            }

            fn into_values(self) -> ::std::vec::Vec<$crate::value::Value> {
                ::std::vec![ $( $crate::relation::FieldValue::into_value(self.$n), )* ]
            }

            fn into_tuple(self, table: $crate::schema::TableId) -> $crate::tuple::Tuple {
                $crate::tuple::Tuple::from_fields(
                    table,
                    [ $( $crate::relation::FieldValue::into_value(self.$n), )* ],
                )
            }
        }

        #[allow(non_upper_case_globals)]
        impl $name {
            $(
                #[doc = ::core::concat!(
                    "Typed field token for column `", ::core::stringify!($n), "`."
                )]
                pub const $n: $crate::relation::Field<
                    $name,
                    $crate::__jstar_columns!(@rust_ty $kind),
                > = $crate::relation::Field::new($idx, ::core::stringify!($n));
            )*
        }
    };
}

/// Declares an order chain on a [`crate::program::ProgramBuilder`] using
/// the paper's `order A < B < C` notation.
#[macro_export]
macro_rules! jstar_order {
    ($p:expr, $first:ident $(< $rest:ident)*) => {
        $p.order(&[stringify!($first) $(, stringify!($rest))*])
    };
}

/// Implements [`crate::relation::Relation`] (plus per-column
/// [`crate::relation::Field`] tokens) for an **existing** hand-written
/// struct — the typed-façade entry point for apps that wrap domain
/// types and therefore cannot let [`crate::jstar_table!`] generate the
/// struct for them.
///
/// The column list uses the paper's declaration notation (the same
/// grammar as `jstar_table!`, including the `->` key split and the
/// `orderby (...)` clause); every struct field must appear as a column
/// with the matching Rust type (`int` → `i64`, `double` → `f64`,
/// `String` → `Arc<str>`, `boolean` → `bool`) — a missing or mistyped
/// field is a compile error in the generated `from_tuple`. By default
/// the table is named after the struct; `as "Name"` maps the struct
/// onto a table declared under a different name (e.g. a decode-side
/// view of a table that another relation owns).
///
/// ```
/// use jstar_core::prelude::*;
///
/// /// Hand-written: carries domain methods `jstar_table!` could not emit.
/// #[derive(Debug, Clone, PartialEq)]
/// pub struct Reading {
///     pub id: i64,
///     pub value: f64,
/// }
/// impl Reading {
///     pub fn is_anomalous(&self) -> bool {
///         self.value.abs() > 100.0
///     }
/// }
///
/// jstar_core::relation! {
///     Reading(int id -> double value) orderby (Int, seq id)
/// }
///
/// let mut p = ProgramBuilder::new();
/// let _readings = p.relation::<Reading>();
/// p.put_rel(Reading { id: 0, value: 150.0 });
/// let program = std::sync::Arc::new(p.build().unwrap());
/// let mut engine = Engine::new(program, EngineConfig::sequential());
/// engine.run().unwrap();
/// let anomalies = engine
///     .collect_rel(Reading::query().gt(Reading::value, 100.0))
///     .into_iter()
///     .filter(Reading::is_anomalous)
///     .count();
/// assert_eq!(anomalies, 1);
/// ```
#[macro_export]
macro_rules! relation {
    // ── Entry points: optional `as "Table"` × optional orderby. ─────
    ($name:ident as $table:literal ( $($cols:tt)* ) orderby ( $($ob:tt)* )) => {
        $crate::__jstar_columns!([relation @emit [$table] $name [$($ob)*]]; $($cols)*);
    };
    ($name:ident as $table:literal ( $($cols:tt)* )) => {
        $crate::__jstar_columns!([relation @emit [$table] $name []]; $($cols)*);
    };
    ($name:ident ( $($cols:tt)* ) orderby ( $($ob:tt)* )) => {
        $crate::__jstar_columns!([relation @emit [] $name [$($ob)*]]; $($cols)*);
    };
    ($name:ident ( $($cols:tt)* )) => {
        $crate::__jstar_columns!([relation @emit [] $name []]; $($cols)*);
    };

    (@name $name:ident) => { ::core::stringify!($name) };
    (@name $name:ident $table:literal) => { $table };

    // Callback: the Relation impl and one Field token per column,
    // attached to the caller's pre-existing struct.
    (@emit [$($table:literal)?] $name:ident [$($ob:tt)*];
        [$( ($idx:expr, $n:ident, $kind:tt) )*]; $key:tt) => {
        impl $crate::relation::Relation for $name {
            const NAME: &'static str = $crate::relation!(@name $name $($table)?);
            const COLUMNS: &'static [$crate::relation::ColumnSpec] = &[
                $( $crate::relation::ColumnSpec {
                    name: ::core::stringify!($n),
                    ty: $crate::__jstar_columns!(@value_ty $kind),
                }, )*
            ];
            const KEY_ARITY: ::core::option::Option<usize> =
                $crate::__jstar_columns!(@key $key);

            fn orderby() -> ::std::vec::Vec<$crate::orderby::OrderComponent> {
                $crate::jstar_table!(@ob $($ob)*)
            }

            fn from_tuple(t: &$crate::tuple::Tuple) -> Self {
                $name {
                    $( $n: $crate::relation::FieldValue::from_value(t.get($idx)), )*
                }
            }

            fn into_values(self) -> ::std::vec::Vec<$crate::value::Value> {
                ::std::vec![ $( $crate::relation::FieldValue::into_value(self.$n), )* ]
            }

            fn into_tuple(self, table: $crate::schema::TableId) -> $crate::tuple::Tuple {
                $crate::tuple::Tuple::from_fields(
                    table,
                    [ $( $crate::relation::FieldValue::into_value(self.$n), )* ],
                )
            }
        }

        #[allow(non_upper_case_globals)]
        impl $name {
            $(
                #[doc = ::core::concat!(
                    "Typed field token for column `", ::core::stringify!($n), "`."
                )]
                pub const $n: $crate::relation::Field<
                    $name,
                    $crate::__jstar_columns!(@rust_ty $kind),
                > = $crate::relation::Field::new($idx, ::core::stringify!($n));
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::orderby::OrderComponent;
    use crate::prelude::*;
    use tables::*;

    /// The tables under test; their field tokens go unread here.
    #[allow(dead_code)]
    mod tables {
        jstar_table! {
            /// table Ship(int frame -> int x, int y, int dx, int dy)
            ///   orderby (Int, seq frame)           — §3's declaration.
            pub Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
        }

        // Fig. 5's tables, near-verbatim.
        jstar_table! { pub Vertex(int index, String name) orderby (Vertex) }
        jstar_table! { pub Edge(int from, int to, int value) orderby (Edge) }
        jstar_table! { pub Estimate(int vertex, int distance) orderby (Int, seq distance, Estimate) }
        jstar_table! { pub Done(int vertex -> int distance) orderby (Int, seq distance, Done) }

        jstar_table! {
            /// table Data(int iter, int index -> double value)
            ///   orderby (Int, seq iter, Data, seq index)   — §6.6's table.
            pub Data(int iter, int index -> double value) orderby (Int, seq iter, Data, seq index)
        }
        jstar_table! { pub RowRequest(int row) orderby (Row, par row) }

        jstar_table! { pub Plain(String name, boolean flag) }

        jstar_table! { pub Mover(int frame -> int x) orderby (Int, seq frame) }
    }

    #[test]
    fn ship_declaration_matches_builder_form() {
        let mut p = ProgramBuilder::new();
        let ship = p.relation::<Ship>().id();
        let prog = p.build().unwrap();
        let def = prog.def(ship);
        assert_eq!(def.name, "Ship");
        assert_eq!(def.arity(), 5);
        assert_eq!(def.key_arity, Some(1));
        assert_eq!(def.orderby, vec![strat("Int"), seq("frame")]);
    }

    #[test]
    fn fig5_estimate_and_done() {
        let mut p = ProgramBuilder::new();
        p.relation::<Vertex>();
        p.relation::<Edge>();
        let estimate = p.relation::<Estimate>().id();
        let done = p.relation::<Done>().id();
        jstar_order!(p, Vertex < Edge < Int);
        jstar_order!(p, Estimate < Done);
        let prog = p.build().unwrap();
        assert_eq!(prog.def(done).key_arity, Some(1));
        assert_eq!(prog.def(estimate).orderby.len(), 3);
        let sa = prog.strata().lookup("Estimate").unwrap();
        let sb = prog.strata().lookup("Done").unwrap();
        assert!(prog.strata().declared_lt(sa, sb));
    }

    #[test]
    fn multi_column_key_and_par() {
        let mut p = ProgramBuilder::new();
        let data = p.relation::<Data>().id();
        let row = p.relation::<RowRequest>().id();
        let prog = p.build().unwrap();
        assert_eq!(prog.def(data).key_arity, Some(2));
        assert_eq!(prog.def(data).columns[2].ty, ValueType::Double);
        assert_eq!(
            prog.def(row).orderby,
            vec![strat("Row"), OrderComponent::Par("row".into())]
        );
    }

    #[test]
    fn table_without_orderby() {
        let mut p = ProgramBuilder::new();
        let t = p.relation::<Plain>().id();
        let prog = p.build().unwrap();
        assert_eq!(prog.def(t).orderby.len(), 0);
        assert_eq!(prog.def(t).columns[1].ty, ValueType::Bool);
        assert_eq!(prog.def(t).key_arity, None);
    }

    #[test]
    fn macro_program_runs_end_to_end() {
        let mut p = ProgramBuilder::new();
        let mover = p.relation::<Mover>().id();
        p.rule("move", mover, move |ctx, s| {
            if s.int(1) < 400 {
                ctx.put(Tuple::new(
                    mover,
                    vec![Value::Int(s.int(0) + 1), Value::Int(s.int(1) + 150)],
                ));
            }
        });
        p.put(Tuple::new(mover, vec![Value::Int(0), Value::Int(10)]));
        let prog = std::sync::Arc::new(p.build().unwrap());
        let mut engine = Engine::new(prog, EngineConfig::sequential());
        engine.run().unwrap();
        assert_eq!(engine.gamma().collect(&Query::on(mover)).len(), 4);
    }
}
