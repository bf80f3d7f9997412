//! Static causality checking — the paper's SMT-based proof obligations (§4).
//!
//! For every `put` in a rule we must prove
//! `orderby(trigger) <= orderby(new tuple)`, and for every negative or
//! aggregate query `orderby(query) < orderby(trigger)`, under the rule's
//! path condition, the declared bindings between trigger and output fields,
//! and any table invariants. Failures are reported like the paper's
//! *Stratification error* warnings: the program still runs, but the
//! programmer is "strongly recommended" to fix it (and
//! [`crate::program::Program::validate_strict`] refuses to proceed).
//!
//! Rule authors describe each rule with a [`CausalityModel`] — the
//! information JStar's compiler would extract from rule source. Order keys
//! become sequences of terms: stratum constants compared in the
//! *declared* partial order, and `seq` fields compared by the
//! [`linear`] Fourier–Motzkin engine. The lexicographic goal is discharged
//! component by component.

pub mod linear;

pub use linear::{entails, entails_eq, satisfiable, Constraint, LinExpr, Rational};

use crate::orderby::{ResolvedComponent, ResolvedOrderBy};
use crate::schema::TableDef;
use crate::strata::{StratId, StrataOrder};
use std::collections::HashMap;

#[cfg(test)]
use crate::schema::TableId;

/// Interns the variable names used in a rule's causality model.
#[derive(Debug, Default, Clone)]
pub struct VarPool {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl VarPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.index.get(name) {
            return *id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Looks a name up without interning.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The name of a variable id (diagnostics).
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// Builder-side context: hands out namespaced variables for the trigger
/// tuple (`trig.*`), the put tuple (`out.*`), a queried tuple (`q.*`) and
/// free auxiliaries.
#[derive(Debug, Default, Clone)]
pub struct ModelCtx {
    pub pool: VarPool,
}

impl ModelCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// A trigger-tuple field.
    pub fn trig(&mut self, col: &str) -> LinExpr {
        LinExpr::var(self.pool.intern(&format!("trig.{col}")))
    }

    /// An output-tuple field (the tuple being `put`).
    pub fn out(&mut self, col: &str) -> LinExpr {
        LinExpr::var(self.pool.intern(&format!("out.{col}")))
    }

    /// A queried-tuple field (for negative/aggregate queries).
    pub fn q(&mut self, col: &str) -> LinExpr {
        LinExpr::var(self.pool.intern(&format!("q.{col}")))
    }

    /// A free auxiliary variable (loop-bound values, edge weights, ...).
    pub fn aux(&mut self, name: &str) -> LinExpr {
        LinExpr::var(self.pool.intern(&format!("aux.{name}")))
    }

    /// A constant expression.
    pub fn k(&self, v: i64) -> LinExpr {
        LinExpr::constant(v)
    }
}

/// Model of one `put` statement inside a rule.
#[derive(Debug, Clone, Default)]
pub struct PutModel {
    /// Table receiving the new tuple.
    pub out_table: String,
    /// Path condition guarding this put (e.g. `trig.x < 400`).
    pub guard: Vec<Constraint>,
    /// Bindings relating `out.*` fields to `trig.*`/aux variables
    /// (e.g. `out.frame == trig.frame + 1`).
    pub bindings: Vec<Constraint>,
    /// Human-readable label for diagnostics.
    pub label: String,
}

/// Model of one negative or aggregate query inside a rule.
#[derive(Debug, Clone, Default)]
pub struct QueryModel {
    /// Table being queried.
    pub q_table: String,
    /// Path condition guarding the query.
    pub guard: Vec<Constraint>,
    /// Bindings constraining `q.*` fields.
    pub bindings: Vec<Constraint>,
    /// Human-readable label.
    pub label: String,
}

/// Everything the checker needs to know about one rule.
#[derive(Debug, Clone, Default)]
pub struct CausalityModel {
    /// The variable pool that all constraints were built with.
    pub ctx: ModelCtx,
    /// Facts that hold about any trigger tuple (table invariants, e.g.
    /// `trig.distance >= 0`).
    pub invariants: Vec<Constraint>,
    /// One model per `put` statement.
    pub puts: Vec<PutModel>,
    /// One model per negative/aggregate query.
    pub queries: Vec<QueryModel>,
}

/// One component of an order key, symbolically.
#[derive(Debug, Clone)]
enum Term {
    Strat(StratId),
    Lin(LinExpr),
}

/// The verdict on one proof obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObligationResult {
    pub rule: String,
    pub label: String,
    pub proved: bool,
    pub message: String,
}

/// Turns a table's resolved orderby into symbolic terms over namespace
/// `ns` ("trig", "out" or "q"). Key truncation at `par` matches
/// [`ResolvedOrderBy::key_of`].
fn key_terms(def: &TableDef, orderby: &ResolvedOrderBy, ns: &str, pool: &mut VarPool) -> Vec<Term> {
    let mut terms = Vec::new();
    for c in &orderby.components {
        match c {
            ResolvedComponent::Strat { id, .. } => terms.push(Term::Strat(*id)),
            ResolvedComponent::Seq { field } => {
                let col = &def.columns[*field].name;
                terms.push(Term::Lin(LinExpr::var(pool.intern(&format!("{ns}.{col}")))));
            }
            ResolvedComponent::Par { .. } => break,
        }
    }
    terms
}

/// Attempts to prove `a <lex b` (when `strict`) or `a <=lex b` under the
/// assumptions. Returns `Err(reason)` on failure.
fn prove_lex(
    assumptions: &[Constraint],
    a: &[Term],
    b: &[Term],
    strict: bool,
    strata: &StrataOrder,
) -> Result<(), String> {
    match (a.first(), b.first()) {
        (None, None) => {
            if strict {
                Err("keys may be equal, but a strictly earlier key is required".into())
            } else {
                Ok(())
            }
        }
        // `a` exhausted: a is a proper prefix of b, so a < b.
        (None, Some(_)) => Ok(()),
        // `b` exhausted while `a` continues: a > b.
        (Some(_), None) => Err("trigger key extends beyond the put key, so it orders later".into()),
        (Some(Term::Strat(sa)), Some(Term::Strat(sb))) => {
            if sa == sb {
                return prove_lex(assumptions, &a[1..], &b[1..], strict, strata);
            }
            if strata.declared_lt(*sa, *sb) {
                return Ok(()); // strictly earlier at this level
            }
            if strata.declared_lt(*sb, *sa) {
                return Err(format!(
                    "stratum {} is declared after {}",
                    strata.name(*sa),
                    strata.name(*sb)
                ));
            }
            Err(format!(
                "no `order` declaration relates {} and {} — add one (e.g. `order {} < {}`)",
                strata.name(*sa),
                strata.name(*sb),
                strata.name(*sa),
                strata.name(*sb),
            ))
        }
        (Some(Term::Lin(ea)), Some(Term::Lin(eb))) => {
            if entails(assumptions, &ea.lt(eb)) {
                return Ok(());
            }
            if entails_eq(assumptions, ea, eb) {
                return prove_lex(assumptions, &a[1..], &b[1..], strict, strata);
            }
            if entails(assumptions, &ea.le(eb)) {
                // a <= b: in models where a < b we are done; in models where
                // a == b the remainder must carry the proof.
                let mut asm = assumptions.to_vec();
                asm.extend(ea.eq_(eb));
                return prove_lex(&asm, &a[1..], &b[1..], strict, strata);
            }
            Err(format!(
                "cannot prove {:?} <= {:?} at this key component",
                ea.coeffs, eb.coeffs
            ))
        }
        _ => Err("orderby lists have incompatible shapes at the same key component".into()),
    }
}

/// Checks all obligations of one rule.
///
/// `defs_by_name` resolves the model's table names; `orderbys` is indexed
/// by `TableId`.
pub fn check_rule(
    rule_name: &str,
    trigger: &TableDef,
    model: &CausalityModel,
    defs_by_name: &HashMap<String, std::sync::Arc<TableDef>>,
    orderbys: &[ResolvedOrderBy],
    strata: &StrataOrder,
) -> Vec<ObligationResult> {
    let mut pool = model.ctx.pool.clone();
    let mut results = Vec::new();
    let trig_terms = key_terms(trigger, &orderbys[trigger.id.index()], "trig", &mut pool);

    for put in &model.puts {
        let label = if put.label.is_empty() {
            format!("put {}", put.out_table)
        } else {
            put.label.clone()
        };
        let Some(out_def) = defs_by_name.get(&put.out_table) else {
            results.push(ObligationResult {
                rule: rule_name.into(),
                label,
                proved: false,
                message: format!("unknown table {}", put.out_table),
            });
            continue;
        };
        let out_terms = key_terms(out_def, &orderbys[out_def.id.index()], "out", &mut pool);
        let mut asm = model.invariants.clone();
        asm.extend(put.guard.iter().cloned());
        asm.extend(put.bindings.iter().cloned());
        // Obligation: orderby(trig) <= orderby(out).
        let outcome = prove_lex(&asm, &trig_terms, &out_terms, false, strata);
        results.push(ObligationResult {
            rule: rule_name.into(),
            label,
            proved: outcome.is_ok(),
            message: match outcome {
                Ok(()) => "proved".into(),
                Err(e) => e,
            },
        });
    }

    for query in &model.queries {
        let label = if query.label.is_empty() {
            format!("query {}", query.q_table)
        } else {
            query.label.clone()
        };
        let Some(q_def) = defs_by_name.get(&query.q_table) else {
            results.push(ObligationResult {
                rule: rule_name.into(),
                label,
                proved: false,
                message: format!("unknown table {}", query.q_table),
            });
            continue;
        };
        let q_terms = key_terms(q_def, &orderbys[q_def.id.index()], "q", &mut pool);
        let mut asm = model.invariants.clone();
        asm.extend(query.guard.iter().cloned());
        asm.extend(query.bindings.iter().cloned());
        // Obligation: orderby(q) < orderby(trig) — the queried region must
        // be strictly in the past so its contents are already fixed.
        let outcome = prove_lex(&asm, &q_terms, &trig_terms, true, strata);
        results.push(ObligationResult {
            rule: rule_name.into(),
            label,
            proved: outcome.is_ok(),
            message: match outcome {
                Ok(()) => "proved".into(),
                Err(e) => e,
            },
        });
    }

    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::{seq, strat, OrderComponent};
    use crate::schema::TableDefBuilder;
    use crate::strata::StrataBuilder;
    use std::sync::Arc;

    struct Fixture {
        defs: Vec<Arc<TableDef>>,
        by_name: HashMap<String, Arc<TableDef>>,
        orderbys: Vec<ResolvedOrderBy>,
        strata: StrataOrder,
    }

    type TableSpec<'a> = (&'a str, Vec<(&'a str, char)>, Vec<OrderComponent>);

    fn fixture(tables: Vec<TableSpec<'_>>, orders: &[&[&str]]) -> Fixture {
        let mut sb = StrataBuilder::new();
        for chain in orders {
            sb.order_chain(chain);
        }
        for (_, _, ob) in &tables {
            for c in ob {
                if let OrderComponent::Strat(n) = c {
                    sb.intern(n);
                }
            }
        }
        let strata = sb.build().unwrap();
        let mut defs = Vec::new();
        for (i, (name, cols, ob)) in tables.into_iter().enumerate() {
            let mut b = TableDefBuilder::new(name);
            for (cname, ty) in cols {
                b = match ty {
                    'i' => b.col_int(cname),
                    'd' => b.col_double(cname),
                    's' => b.col_str(cname),
                    _ => unreachable!(),
                };
            }
            let b = b.orderby(&ob);
            defs.push(Arc::new(TableDef {
                id: TableId(i as u32),
                name: b.name,
                columns: b.columns,
                key_arity: b.key_arity,
                orderby: b.orderby,
            }));
        }
        let orderbys: Vec<ResolvedOrderBy> = defs
            .iter()
            .map(|d| ResolvedOrderBy::resolve(d, &strata).unwrap())
            .collect();
        let by_name = defs
            .iter()
            .map(|d| (d.name.clone(), Arc::clone(d)))
            .collect();
        Fixture {
            defs,
            by_name,
            orderbys,
            strata,
        }
    }

    #[test]
    fn ship_rule_is_causal() {
        // foreach (Ship s) if (s.x < 400) put Ship(s.frame+1, ...)
        let fx = fixture(
            vec![(
                "Ship",
                vec![("frame", 'i'), ("x", 'i')],
                vec![strat("Int"), seq("frame")],
            )],
            &[],
        );
        let mut cx = ModelCtx::new();
        let guard = vec![cx.trig("x").lt(&cx.k(400))];
        let bindings = cx.out("frame").eq_(&(cx.trig("frame") + 1));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Ship".into(),
                guard,
                bindings,
                label: "move right".into(),
            }],
            queries: vec![],
        };
        let res = check_rule(
            "move",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert_eq!(res.len(), 1);
        assert!(res[0].proved, "{}", res[0].message);
    }

    #[test]
    fn put_into_the_past_fails() {
        // put Ship(s.frame - 1, ...) must fail.
        let fx = fixture(
            vec![(
                "Ship",
                vec![("frame", 'i'), ("x", 'i')],
                vec![strat("Int"), seq("frame")],
            )],
            &[],
        );
        let mut cx = ModelCtx::new();
        let bindings = cx.out("frame").eq_(&(cx.trig("frame") - 1));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Ship".into(),
                guard: vec![],
                bindings,
                label: String::new(),
            }],
            queries: vec![],
        };
        let res = check_rule(
            "move",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(!res[0].proved);
    }

    #[test]
    fn same_frame_put_is_allowed_non_strictly() {
        // put at the same timestamp: <= holds, so the put is fine.
        let fx = fixture(
            vec![(
                "Ship",
                vec![("frame", 'i'), ("x", 'i')],
                vec![strat("Int"), seq("frame")],
            )],
            &[],
        );
        let mut cx = ModelCtx::new();
        let bindings = cx.out("frame").eq_(&cx.trig("frame"));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Ship".into(),
                guard: vec![],
                bindings,
                label: String::new(),
            }],
            queries: vec![],
        };
        let res = check_rule(
            "same",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(res[0].proved, "{}", res[0].message);
    }

    #[test]
    fn pvwatts_needs_order_declaration() {
        // Fig. 4: without `order PvWatts < SumMonth`, the aggregate query
        // in the SumMonth rule cannot be stratified.
        let tables = vec![
            (
                "PvWatts",
                vec![("year", 'i'), ("month", 'i')],
                vec![strat("PvWatts")],
            ),
            (
                "SumMonth",
                vec![("year", 'i'), ("month", 'i')],
                vec![strat("SumMonth")],
            ),
        ];
        let make_model = || {
            let cx = ModelCtx::new();
            CausalityModel {
                ctx: cx,
                invariants: vec![],
                puts: vec![],
                queries: vec![QueryModel {
                    q_table: "PvWatts".into(),
                    guard: vec![],
                    bindings: vec![],
                    label: "aggregate PvWatts by month".into(),
                }],
            }
        };

        // Without the order declaration: stratification failure.
        let fx = fixture(tables.clone(), &[]);
        let res = check_rule(
            "summarise",
            &fx.defs[1],
            &make_model(),
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(!res[0].proved);
        assert!(res[0].message.contains("order"), "{}", res[0].message);

        // With `order PvWatts < SumMonth`: proved.
        let fx = fixture(tables, &[&["Req", "PvWatts", "SumMonth"]]);
        let res = check_rule(
            "summarise",
            &fx.defs[1],
            &make_model(),
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(res[0].proved, "{}", res[0].message);
    }

    #[test]
    fn dijkstra_rule_checks() {
        // Estimate orderby (Int, seq distance, Estimate);
        // Done orderby (Int, seq distance, Done); order Estimate < Done.
        let fx = fixture(
            vec![
                (
                    "Estimate",
                    vec![("vertex", 'i'), ("distance", 'i')],
                    vec![strat("Int"), seq("distance"), strat("Estimate")],
                ),
                (
                    "Done",
                    vec![("vertex", 'i'), ("distance", 'i')],
                    vec![strat("Int"), seq("distance"), strat("Done")],
                ),
            ],
            &[&["Estimate", "Done"]],
        );
        let mut cx = ModelCtx::new();
        // put Done(dist.vertex, dist.distance): same distance, later stratum.
        let done_bindings = cx.out("distance").eq_(&cx.trig("distance"));
        // put Estimate(edge.to, dist.distance + edge.value), edge.value >= 1.
        let w = cx.aux("weight");
        let mut est_bindings = cx
            .out("distance")
            .eq_(&(cx.trig("distance").clone() + w.clone()));
        est_bindings.push(w.ge(&cx.k(1)));
        // negative query: Done(dist.vertex, [distance < dist.distance]).
        let neg_bindings = vec![cx.q("distance").lt(&cx.trig("distance"))];
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![
                PutModel {
                    out_table: "Done".into(),
                    guard: vec![],
                    bindings: done_bindings,
                    label: "put Done".into(),
                },
                PutModel {
                    out_table: "Estimate".into(),
                    guard: vec![],
                    bindings: est_bindings,
                    label: "relax edge".into(),
                },
            ],
            queries: vec![QueryModel {
                q_table: "Done".into(),
                guard: vec![],
                bindings: neg_bindings,
                label: "uniq? Done".into(),
            }],
        };
        let res = check_rule(
            "dijkstra",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        for r in &res {
            assert!(r.proved, "{}: {}", r.label, r.message);
        }
    }

    #[test]
    fn zero_weight_edge_breaks_strict_relaxation_proof_but_not_put() {
        // With w >= 0 the Estimate put still proves (<= suffices for puts):
        // equal distance but Estimate == Estimate stratum, equal keys — OK.
        let fx = fixture(
            vec![(
                "Estimate",
                vec![("vertex", 'i'), ("distance", 'i')],
                vec![strat("Int"), seq("distance"), strat("Estimate")],
            )],
            &[],
        );
        let mut cx = ModelCtx::new();
        let w = cx.aux("weight");
        let mut bindings = cx
            .out("distance")
            .eq_(&(cx.trig("distance").clone() + w.clone()));
        bindings.push(w.ge(&cx.k(0)));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Estimate".into(),
                guard: vec![],
                bindings,
                label: String::new(),
            }],
            queries: vec![],
        };
        let res = check_rule(
            "relax",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(res[0].proved, "{}", res[0].message);
    }

    #[test]
    fn unknown_table_reports_unproved() {
        let fx = fixture(vec![("A", vec![("t", 'i')], vec![seq("t")])], &[]);
        let model = CausalityModel {
            ctx: ModelCtx::new(),
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Nope".into(),
                ..Default::default()
            }],
            queries: vec![],
        };
        let res = check_rule(
            "r",
            &fx.defs[0],
            &model,
            &fx.by_name,
            &fx.orderbys,
            &fx.strata,
        );
        assert!(!res[0].proved);
        assert!(res[0].message.contains("unknown table"));
    }
}
