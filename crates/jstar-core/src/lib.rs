//! # jstar-core — the JStar declarative parallel runtime
//!
//! A Rust reproduction of the system described in *The JStar Language
//! Philosophy* (Utting, Weng & Cleary, 2013). JStar's semantics is Datalog
//! with negation plus an explicit **causality ordering**: all data lives in
//! immutable in-memory relations, rules add (never mutate or delete) tuples,
//! and every tuple carries timestamp fields that place it in one global
//! lexicographic order. Rules "can affect the future, but they are not
//! allowed to change the past" — the Law of Causality (§4) — which is what
//! makes negative and aggregate queries sound and parallel execution
//! deterministic.
//!
//! ## Architecture (paper § in parentheses)
//!
//! * [`schema`], the `tuple` module and [`value`] — tables of immutable tuples (§3);
//! * [`orderby`] / [`strata`] — orderby lists, `order` declarations and
//!   [`orderby::OrderKey`]s (§4);
//! * [`delta`] — the Delta set, one map ordered by [`orderby::OrderKey`]:
//!   a causal priority queue whose minimal equivalence class is the unit
//!   of parallelism (§5);
//! * [`gamma`] — the Gamma database with pluggable per-table stores —
//!   "late commitment to data structures" (§1.4, §5);
//! * [`rule`] / [`query`] / [`reduce`] — rules, positive/negative/aggregate
//!   queries, and reducers with user-defined operators (§1.3, §3);
//! * [`relation`](mod@relation) / [`dsl`] — the typed façade: schema-carrying relation
//!   structs, `Field` tokens, typed queries, and the `jstar_table!`
//!   declaration macro (§1.1's concision goal);
//! * [`causality`] — static proof obligations discharged by a built-in
//!   Fourier–Motzkin linear-arithmetic engine (the paper's SMT solvers, §4);
//! * [`engine`] — the pseudo-naive bottom-up evaluator with sequential and
//!   all-minimums parallel strategies, plus the `-noDelta`/`-noGamma`
//!   optimisation flags (§5);
//! * [`program`] — the four-stage workflow: application logic, execution
//!   orderings, parallelism strategy, data structures (§2);
//! * [`stats`] — per-table usage statistics and DOT dependency graphs
//!   (§1.5).
//!
//! The public surface is the **typed relation façade** ([`relation`](mod@relation),
//! [`dsl`]): the paper's one-line table declaration generates a Rust
//! struct, a schema, and per-column [`relation::Field`] tokens, so rules
//! and queries are compile-time checked. The positional API
//! ([`query::Query::on`], [`tuple::Tuple::new`]) remains the documented
//! low-level escape hatch for custom stores and generic tooling.
//!
//! ## Quickstart
//!
//! The paper's Ship example (§3): a ship moves right 150 px/frame while
//! `x < 400`.
//!
//! ```
//! use jstar_core::prelude::*;
//!
//! jstar_core::jstar_table! {
//!     /// table Ship(int frame -> int x) orderby (Int, seq frame)
//!     #[derive(Copy, Eq)]
//!     pub Ship(int frame -> int x) orderby (Int, seq frame)
//! }
//!
//! let mut p = ProgramBuilder::new();
//! p.rule_rel("move-right", |ctx, s: Ship| {
//!     if s.x < 400 {
//!         ctx.put_rel(Ship { frame: s.frame + 1, x: s.x + 150 });
//!     }
//! });
//! p.put_rel(Ship { frame: 0, x: 10 });
//!
//! let program = std::sync::Arc::new(p.build().unwrap());
//! let mut engine = Engine::new(program.clone(), EngineConfig::sequential());
//! engine.run().unwrap();
//! assert_eq!(engine.collect_rel(Ship::query()).len(), 4);
//! assert_eq!(engine.collect_rel(Ship::query().ge(Ship::x, 400)).len(), 1);
//! ```

pub mod causality;
pub mod delta;
pub mod dsl;
pub mod engine;
pub mod error;
pub(crate) mod fxhash;
pub mod gamma;
pub mod orderby;
pub mod persist;
pub mod program;
pub mod query;
pub mod reduce;
pub mod relation;
pub mod rule;
pub mod schema;
pub mod stats;
pub mod strata;
pub mod tuple;
pub mod value;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::causality::{CausalityModel, ModelCtx, PutModel, QueryModel};
    pub use crate::engine::{Engine, EngineConfig, RuleCtx, RunReport};
    pub use crate::error::{JStarError, Result};
    pub use crate::gamma::{Gamma, InsertOutcome, StoreKind, TableStore};
    pub use crate::orderby::{par, seq, strat, OrderKey};
    pub use crate::program::{Program, ProgramBuilder};
    pub use crate::query::{Probe, Query};
    pub use crate::reduce::{
        reduce_par, reduce_seq, CountReducer, MaxIntReducer, MinIntReducer, Reducer, Statistics,
        Stats, SumReducer,
    };
    pub use crate::relation::{
        join, join3, Binder, ColumnSpec, Field, FieldValue, IntoProbe, Join, Join3, JoinShape,
        OrderedValue, PreparedQuery, Relation, TableHandle, TypedQuery,
    };
    pub use crate::rule::{JoinPlan, JoinStage};
    pub use crate::schema::{TableDef, TableId};
    pub use crate::tuple::Tuple;
    pub use crate::value::{Value, ValueType};
}
