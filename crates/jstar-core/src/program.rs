//! Programs — tables + order declarations + rules + initial puts.
//!
//! Programs are normally assembled through the **typed layer**: declare
//! relations with the [`crate::jstar_table!`] item form, register them
//! with [`ProgramBuilder::relation`], attach rules with
//! [`ProgramBuilder::rule_rel`] / [`ProgramBuilder::rule_rel_with_model`]
//! (bodies receive decoded relation structs), and seed the run with
//! [`ProgramBuilder::put_rel`]. The positional entry points
//! ([`ProgramBuilder::table`], [`ProgramBuilder::rule`],
//! [`ProgramBuilder::put`]) remain as the low-level escape hatch for
//! generic tooling. Builder misuse (duplicate table or column names, a
//! join rule with a relation keyed by no `on` pair) is recorded and
//! reported by [`ProgramBuilder::build`] as a [`JStarError`], not a
//! panic.
//!
//! A [`Program`] is the object the paper's XText compiler would produce
//! from JStar source: fully resolved table schemas, the strata order, the
//! rule set indexed by trigger table, and the initial `put` commands. The
//! paper's workflow stage 1 ("Application Logic") is [`ProgramBuilder`];
//! stage 2 ("Possible Execution Orderings") is [`Program::check_causality`]
//! / [`Program::validate_strict`]; stages 3–4 (parallelism strategy, data
//! structures) live entirely in [`crate::engine::EngineConfig`], separate
//! from the program, exactly as §2 prescribes.

use crate::causality::{check_rule, CausalityModel, ObligationResult};
use crate::engine::RuleCtx;
use crate::error::{JStarError, Result};
use crate::orderby::{OrderComponent, OrderKey, ResolvedOrderBy};
use crate::relation::{lower, JoinShape, Relation, TableHandle};
use crate::rule::{JoinPlan, Rule, RuleKind};
use crate::schema::{TableDef, TableDefBuilder, TableId};
use crate::stats::DependencyGraph;
use crate::strata::{StrataBuilder, StrataOrder};
use crate::tuple::Tuple;
use std::any::TypeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds a [`Program`] — the paper's workflow stage 1.
#[derive(Default)]
pub struct ProgramBuilder {
    tables: Vec<TableDef>,
    name_to_id: HashMap<String, TableId>,
    /// Typed-relation registrations: which Rust type owns which table.
    /// Small (one entry per relation), searched linearly.
    relations: Vec<(TypeId, TableId)>,
    orders: Vec<Vec<String>>,
    rules: Vec<Rule>,
    initial: Vec<Tuple>,
    /// Builder misuse (duplicate tables/columns, keyless join rules)
    /// collected here and reported by [`ProgramBuilder::build`] instead
    /// of panicking mid-declaration.
    errors: Vec<JStarError>,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a table. The closure configures columns, keys and the
    /// orderby list:
    ///
    /// ```
    /// use jstar_core::prelude::*;
    /// let mut p = ProgramBuilder::new();
    /// let ship = p.table("Ship", |b| {
    ///     b.col_int("frame").col_int("x").key(1)
    ///      .orderby(&[strat("Int"), seq("frame")])
    /// });
    /// ```
    pub fn table(
        &mut self,
        name: &str,
        f: impl FnOnce(TableDefBuilder) -> TableDefBuilder,
    ) -> TableId {
        if let Some(&existing) = self.name_to_id.get(name) {
            // Misuse is recorded, not panicked on: the existing id keeps
            // the fluent call site compiling and build() reports the
            // error with the offending table name.
            self.errors.push(JStarError::DuplicateTable {
                table: name.to_string(),
            });
            return existing;
        }
        let id = TableId(self.tables.len() as u32);
        let b = f(TableDefBuilder::new(name));
        if let Some(e) = b.error {
            self.errors.push(e);
        }
        self.tables.push(TableDef {
            id,
            name: b.name,
            columns: b.columns,
            key_arity: b.key_arity,
            orderby: b.orderby,
        });
        self.name_to_id.insert(name.to_string(), id);
        id
    }

    /// Registers (or looks up) the typed relation `R`, declaring its
    /// table from the schema the [`Relation`] impl carries. Idempotent:
    /// repeated calls return the same handle, so rules and puts can
    /// auto-register their relations.
    ///
    /// ```
    /// use jstar_core::prelude::*;
    /// jstar_core::jstar_table! {
    ///     /// table Ship(int frame -> int x) orderby (Int, seq frame)
    ///     pub Ship(int frame -> int x) orderby (Int, seq frame)
    /// }
    /// let mut p = ProgramBuilder::new();
    /// let ship = p.relation::<Ship>();
    /// assert_eq!(ship.id().index(), 0);
    /// ```
    pub fn relation<R: Relation>(&mut self) -> TableHandle<R> {
        let tid = TypeId::of::<R>();
        if let Some(&(_, id)) = self.relations.iter().find(|(t, _)| *t == tid) {
            return TableHandle::new(id);
        }
        let id = self.table(R::NAME, |mut b| {
            for c in R::COLUMNS {
                b = b.col(c.name, c.ty);
            }
            if let Some(k) = R::KEY_ARITY {
                b = b.key(k);
            }
            b.orderby(&R::orderby())
        });
        self.relations.push((tid, id));
        TableHandle::new(id)
    }

    /// Declares an order chain: `order A < B < C`.
    pub fn order(&mut self, chain: &[&str]) {
        self.orders
            .push(chain.iter().map(|s| s.to_string()).collect());
    }

    /// Adds a rule without a causality model (strict validation will flag
    /// it, like the paper's compiler warning for unproved rules).
    pub fn rule(
        &mut self,
        name: &str,
        trigger: TableId,
        body: impl Fn(&RuleCtx<'_>, &Tuple) + Send + Sync + 'static,
    ) {
        self.rules.push(Rule {
            name: name.to_string(),
            trigger,
            kind: RuleKind::Body(Arc::new(body)),
            model: None,
        });
    }

    /// Adds a rule together with its causality model for static checking.
    pub fn rule_with_model(
        &mut self,
        name: &str,
        trigger: TableId,
        model: CausalityModel,
        body: impl Fn(&RuleCtx<'_>, &Tuple) + Send + Sync + 'static,
    ) {
        self.rules.push(Rule {
            name: name.to_string(),
            trigger,
            kind: RuleKind::Body(Arc::new(body)),
            model: Some(model),
        });
    }

    /// Adds a typed rule: `R`'s table triggers it and the body receives
    /// the decoded relation struct instead of a raw tuple. The relation
    /// is auto-registered. Strict validation flags the missing
    /// causality model, as with [`ProgramBuilder::rule`].
    ///
    /// ```
    /// use jstar_core::prelude::*;
    /// jstar_core::jstar_table! {
    ///     /// table Ship(int frame -> int x) orderby (Int, seq frame)
    ///     pub Ship(int frame -> int x) orderby (Int, seq frame)
    /// }
    /// let mut p = ProgramBuilder::new();
    /// p.rule_rel("move", |ctx, s: Ship| {
    ///     if s.x < 400 {
    ///         ctx.put_rel(Ship { frame: s.frame + 1, x: s.x + 150 });
    ///     }
    /// });
    /// p.put_rel(Ship { frame: 0, x: 10 });
    /// assert!(p.build().is_ok());
    /// ```
    pub fn rule_rel<R: Relation>(
        &mut self,
        name: &str,
        body: impl Fn(&RuleCtx<'_>, R) + Send + Sync + 'static,
    ) {
        let trigger = self.relation::<R>().id();
        self.rules.push(Rule {
            name: name.to_string(),
            trigger,
            kind: RuleKind::Body(Arc::new(move |ctx: &RuleCtx<'_>, t: &Tuple| {
                body(ctx, R::from_tuple(t))
            })),
            model: None,
        });
    }

    /// Adds a typed rule together with its causality model for static
    /// checking — the typed twin of [`ProgramBuilder::rule_with_model`].
    pub fn rule_rel_with_model<R: Relation>(
        &mut self,
        name: &str,
        model: CausalityModel,
        body: impl Fn(&RuleCtx<'_>, R) + Send + Sync + 'static,
    ) {
        let trigger = self.relation::<R>().id();
        self.rules.push(Rule {
            name: name.to_string(),
            trigger,
            kind: RuleKind::Body(Arc::new(move |ctx: &RuleCtx<'_>, t: &Tuple| {
                body(ctx, R::from_tuple(t))
            })),
            model: Some(model),
        });
    }

    /// Adds a typed **join rule**: `j` is a [`crate::relation::join`]
    /// or [`crate::relation::join3`] value whose first relation is the
    /// trigger. For each trigger row passing `j`'s root checks, the
    /// later relations are probed in declaration order where `j`'s key
    /// pairs match and its inequalities hold, and `emit` runs on each
    /// full row combination — `(trigger, probed)` or `(trigger, b, c)`.
    /// A condition `j` cannot state is an `if` in `emit`.
    ///
    /// Unlike [`ProgramBuilder::rule_rel`], the registered rule is an
    /// inspectable [`crate::rule::JoinPlan`], not a closure, and the
    /// engine runs it one way: each run of fresh trigger tuples — a
    /// Delta class, a chunk of one, or a flushed batch of `-noDelta`
    /// puts — is cut into a view on the trigger field stage 0 seeks by
    /// and becomes the root of one leapfrog walk against a sorted
    /// column view per stage, the root's rows fanned over the pool when
    /// the coordinator runs the class. A walk fired from a `-noDelta`
    /// flush reopens its stage views, and a view whose table changed
    /// since its last open is rebuilt from the whole table.
    ///
    /// Every relation after the trigger must be keyed by an `on` pair;
    /// a cross join is a [`JStarError::KeylessJoin`] from
    /// [`ProgramBuilder::build`] — write it as a
    /// [`ProgramBuilder::rule_rel`] that loops over a query.
    ///
    /// Strict validation flags the missing causality model; use
    /// [`ProgramBuilder::rule_rel_join_with_model`] to attach one.
    pub fn rule_rel_join<J: JoinShape>(
        &mut self,
        name: &str,
        j: J,
        emit: impl Fn(&RuleCtx<'_>, J::Row) + Send + Sync + 'static,
    ) {
        self.push_join_rule(name, j, None, emit);
    }

    /// [`ProgramBuilder::rule_rel_join`] with a causality model attached
    /// for static checking.
    pub fn rule_rel_join_with_model<J: JoinShape>(
        &mut self,
        name: &str,
        j: J,
        model: CausalityModel,
        emit: impl Fn(&RuleCtx<'_>, J::Row) + Send + Sync + 'static,
    ) {
        self.push_join_rule(name, j, Some(model), emit);
    }

    fn push_join_rule<J: JoinShape>(
        &mut self,
        name: &str,
        j: J,
        model: Option<CausalityModel>,
        emit: impl Fn(&RuleCtx<'_>, J::Row) + Send + Sync + 'static,
    ) {
        let (ids, root_less, stages) = match lower(j, self) {
            Ok(lowered) => lowered,
            Err(table) => {
                let relation = self.tables[table.index()].name.clone();
                let rule = name.to_string();
                self.errors.push(JStarError::KeylessJoin { rule, relation });
                return;
            }
        };
        let plan = JoinPlan {
            root_less,
            stages,
            emit: Arc::new(move |ctx: &RuleCtx<'_>, rows: &[&Tuple]| emit(ctx, J::decode(rows))),
        };
        self.rules.push(Rule {
            name: name.to_string(),
            trigger: ids[0],
            kind: RuleKind::Join(plan),
            model,
        });
    }

    /// Adds an initial `put` command.
    pub fn put(&mut self, t: Tuple) {
        self.initial.push(t);
    }

    /// Adds a typed initial `put`, auto-registering the relation.
    pub fn put_rel<R: Relation>(&mut self, row: R) {
        let id = self.relation::<R>().id();
        self.initial.push(row.into_tuple(id));
    }

    /// Finalises the program: interns strat literals, linearises the
    /// declared order, resolves every orderby list. Fails on builder
    /// misuse recorded earlier (duplicate tables or columns, keyless
    /// join rules), on order cycles, or on orderby lists naming
    /// unknown columns.
    pub fn build(self) -> Result<Program> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let mut sb = StrataBuilder::new();
        // Intern order-declaration literals first so their ranks follow
        // declaration order deterministically, then any literals that only
        // appear in orderby lists.
        for chain in &self.orders {
            let refs: Vec<&str> = chain.iter().map(|s| s.as_str()).collect();
            sb.order_chain(&refs);
        }
        for t in &self.tables {
            for c in &t.orderby {
                if let OrderComponent::Strat(name) = c {
                    sb.intern(name);
                }
            }
        }
        let strata = sb
            .build()
            .map_err(|e| JStarError::Stratification(e.to_string()))?;

        let defs: Vec<Arc<TableDef>> = self.tables.into_iter().map(Arc::new).collect();
        let mut orderbys = Vec::with_capacity(defs.len());
        for d in &defs {
            orderbys
                .push(ResolvedOrderBy::resolve(d, &strata).map_err(JStarError::Stratification)?);
        }
        let by_name: HashMap<String, Arc<TableDef>> = defs
            .iter()
            .map(|d| (d.name.clone(), Arc::clone(d)))
            .collect();

        let rules: Vec<Arc<Rule>> = self.rules.into_iter().map(Arc::new).collect();
        let mut rules_by_trigger = vec![Vec::new(); defs.len()];
        for (i, r) in rules.iter().enumerate() {
            rules_by_trigger[r.trigger.index()].push(i);
        }

        Ok(Program {
            defs,
            by_name,
            orderbys,
            strata,
            rules,
            rules_by_trigger,
            relations: self.relations,
            initial: self.initial,
        })
    }
}

/// A complete, resolved JStar program.
pub struct Program {
    defs: Vec<Arc<TableDef>>,
    by_name: HashMap<String, Arc<TableDef>>,
    orderbys: Vec<ResolvedOrderBy>,
    strata: StrataOrder,
    rules: Vec<Arc<Rule>>,
    rules_by_trigger: Vec<Vec<usize>>,
    /// Typed-relation registrations, searched linearly (a handful of
    /// entries; cheaper than hashing on the rule-body hot path).
    relations: Vec<(TypeId, TableId)>,
    initial: Vec<Tuple>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field(
                "tables",
                &self.defs.iter().map(|d| &d.name).collect::<Vec<_>>(),
            )
            .field("rules", &self.rules.len())
            .field("initial", &self.initial.len())
            .finish()
    }
}

impl Program {
    /// All table definitions, indexed by [`TableId`].
    pub fn defs(&self) -> &[Arc<TableDef>] {
        &self.defs
    }

    /// One table definition.
    pub fn def(&self, id: TableId) -> &Arc<TableDef> {
        &self.defs[id.index()]
    }

    /// Table lookup by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).map(|d| d.id)
    }

    /// The table a typed relation was registered as, if any.
    pub fn relation_id<R: Relation>(&self) -> Option<TableId> {
        let tid = TypeId::of::<R>();
        self.relations
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|&(_, id)| id)
    }

    /// The typed handle for relation `R`. Panics when `R` was never
    /// registered with this program — a programming bug, like querying
    /// an undeclared table.
    pub fn handle<R: Relation>(&self) -> TableHandle<R> {
        match self.relation_id::<R>() {
            Some(id) => TableHandle::new(id),
            None => panic!("relation {} is not registered in this program", R::NAME),
        }
    }

    /// Resolved orderby specs, indexed by [`TableId`].
    pub fn orderbys(&self) -> &[ResolvedOrderBy] {
        &self.orderbys
    }

    /// The strata order.
    pub fn strata(&self) -> &StrataOrder {
        &self.strata
    }

    /// All rules.
    pub fn rules(&self) -> &[Arc<Rule>] {
        &self.rules
    }

    /// Rule indexes grouped by trigger table.
    pub fn rules_by_trigger(&self) -> &[Vec<usize>] {
        &self.rules_by_trigger
    }

    /// Initial `put` commands.
    pub fn initial(&self) -> &[Tuple] {
        &self.initial
    }

    /// The order key of a tuple under this program.
    pub fn key_of(&self, t: &Tuple) -> OrderKey {
        self.orderbys[t.table().index()].key_of(t)
    }

    /// Runs static causality checking on every rule that has a model —
    /// workflow stage 2. Rules without models yield a single unproved
    /// result so they are visible in the report.
    pub fn check_causality(&self) -> Vec<ObligationResult> {
        let mut results = Vec::new();
        for rule in &self.rules {
            match &rule.model {
                Some(model) => results.extend(check_rule(
                    &rule.name,
                    self.def(rule.trigger),
                    model,
                    &self.by_name,
                    &self.orderbys,
                    &self.strata,
                )),
                None => results.push(ObligationResult {
                    rule: rule.name.clone(),
                    label: "no causality model".into(),
                    proved: false,
                    message: "rule has no causality model; cannot verify the Law of Causality"
                        .into(),
                }),
            }
        }
        results
    }

    /// Strict validation: every obligation of every rule must be proved.
    pub fn validate_strict(&self) -> Result<()> {
        let failures: Vec<String> = self
            .check_causality()
            .into_iter()
            .filter(|r| !r.proved)
            .map(|r| format!("{} [{}]: {}", r.rule, r.label, r.message))
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(JStarError::Unproved(failures.join("; ")))
        }
    }

    /// The rule dependency graph (Fig. 7-style), derived from causality
    /// models' put targets.
    pub fn dependency_graph(&self) -> DependencyGraph {
        let tables = self.defs.iter().map(|d| d.name.clone()).collect();
        let rules = self
            .rules
            .iter()
            .map(|r| {
                let outputs = r
                    .model
                    .as_ref()
                    .map(|m| {
                        m.puts
                            .iter()
                            .filter_map(|p| self.table_id(&p.out_table))
                            .map(|t| t.index())
                            .collect()
                    })
                    .unwrap_or_default();
                (r.name.clone(), r.trigger.index(), outputs)
            })
            .collect();
        DependencyGraph { tables, rules }
    }
}

#[cfg(test)]
impl ProgramBuilder {
    /// Test helper: id of an already-declared table.
    fn table_id_for_test(&self, name: &str) -> TableId {
        self.name_to_id[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causality::{ModelCtx, PutModel, QueryModel};
    use crate::orderby::{seq, strat};
    use crate::value::Value;

    #[test]
    fn build_resolves_tables_and_orders() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t").orderby(&[strat("A"), seq("t")]));
        let b = p.table("B", |bb| bb.col_int("t").orderby(&[strat("B"), seq("t")]));
        p.order(&["A", "B"]);
        let prog = p.build().unwrap();
        assert_eq!(prog.table_id("A"), Some(a));
        assert_eq!(prog.table_id("B"), Some(b));
        assert_eq!(prog.defs().len(), 2);
        let sa = prog.strata().lookup("A").unwrap();
        let sb = prog.strata().lookup("B").unwrap();
        assert!(prog.strata().declared_lt(sa, sb));
    }

    #[test]
    fn cyclic_order_fails_to_build() {
        let mut p = ProgramBuilder::new();
        let _ = p.table("A", |b| b.col_int("t").orderby(&[strat("X")]));
        p.order(&["X", "Y"]);
        p.order(&["Y", "X"]);
        let err = p.build().unwrap_err();
        assert!(matches!(err, JStarError::Stratification(_)));
    }

    #[test]
    fn orderby_unknown_column_fails() {
        let mut p = ProgramBuilder::new();
        let _ = p.table("A", |b| b.col_int("t").orderby(&[seq("nope")]));
        let err = p.build().unwrap_err();
        assert!(err.to_string().contains("unknown column"));
    }

    #[test]
    fn duplicate_table_is_a_build_error() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t"));
        let also_a = p.table("A", |b| b.col_int("t"));
        assert_eq!(a, also_a, "misuse still returns a usable id");
        let err = p.build().unwrap_err();
        assert_eq!(err, JStarError::DuplicateTable { table: "A".into() });
    }

    #[test]
    fn duplicate_column_is_a_build_error() {
        let mut p = ProgramBuilder::new();
        let _ = p.table("A", |b| b.col_int("t").col_double("t"));
        let err = p.build().unwrap_err();
        assert_eq!(
            err,
            JStarError::DuplicateColumn {
                table: "A".into(),
                column: "t".into(),
            }
        );
    }

    #[test]
    fn key_of_uses_orderby() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t").col_int("x").orderby(&[seq("t")]));
        let prog = p.build().unwrap();
        let t1 = Tuple::new(a, vec![Value::Int(5), Value::Int(99)]);
        let t2 = Tuple::new(a, vec![Value::Int(5), Value::Int(1)]);
        assert_eq!(prog.key_of(&t1), prog.key_of(&t2), "x is not in the key");
    }

    #[test]
    fn check_causality_reports_modelless_rules() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t").orderby(&[seq("t")]));
        p.rule("anon", a, |_, _| {});
        let prog = p.build().unwrap();
        let results = prog.check_causality();
        assert_eq!(results.len(), 1);
        assert!(!results[0].proved);
        assert!(prog.validate_strict().is_err());
    }

    #[test]
    fn validated_program_passes_strict() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t").orderby(&[seq("t")]));
        let mut cx = ModelCtx::new();
        let bindings = cx.out("t").eq_(&(cx.trig("t") + 1));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "A".into(),
                guard: vec![],
                bindings,
                label: "tick".into(),
            }],
            queries: vec![],
        };
        p.rule_with_model("tick", a, model, move |ctx, t| {
            if t.int(0) < 3 {
                ctx.put(Tuple::new(a, vec![Value::Int(t.int(0) + 1)]));
            }
        });
        let prog = p.build().unwrap();
        assert!(prog.validate_strict().is_ok());
    }

    #[test]
    fn pvwatts_stratification_error_without_order() {
        // Fig. 4's scenario end to end at the program level.
        let build = |with_order: bool| {
            let mut p = ProgramBuilder::new();
            let pv = p.table("PvWatts", |b| {
                b.col_int("year")
                    .col_int("month")
                    .orderby(&[strat("PvWatts")])
            });
            let _sm = p.table("SumMonth", |b| {
                b.col_int("year")
                    .col_int("month")
                    .orderby(&[strat("SumMonth")])
            });
            if with_order {
                p.order(&["PvWatts", "SumMonth"]);
            }
            let _ = pv;
            let sm_id = p.table_id_for_test("SumMonth");
            let model = CausalityModel {
                ctx: ModelCtx::new(),
                invariants: vec![],
                puts: vec![],
                queries: vec![QueryModel {
                    q_table: "PvWatts".into(),
                    guard: vec![],
                    bindings: vec![],
                    label: "aggregate".into(),
                }],
            };
            p.rule_with_model("summarise", sm_id, model, |_, _| {});
            p.build().unwrap()
        };
        assert!(build(false).validate_strict().is_err());
        assert!(build(true).validate_strict().is_ok());
    }

    #[test]
    fn dependency_graph_from_models() {
        let mut p = ProgramBuilder::new();
        let a = p.table("A", |b| b.col_int("t").orderby(&[seq("t")]));
        let _b = p.table("B", |bb| bb.col_int("t").orderby(&[seq("t")]));
        let mut cx = ModelCtx::new();
        let bindings = cx.out("t").eq_(&cx.trig("t"));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "B".into(),
                guard: vec![],
                bindings,
                label: String::new(),
            }],
            queries: vec![],
        };
        p.rule_with_model("a-to-b", a, model, |_, _| {});
        let prog = p.build().unwrap();
        let g = prog.dependency_graph();
        assert_eq!(g.tables, vec!["A", "B"]);
        assert_eq!(g.rules, vec![("a-to-b".to_string(), 0, vec![1])]);
        let dot = g.to_dot(None);
        assert!(dot.contains("a-to-b"));
    }

    #[test]
    fn join_rules_carry_plans_and_opaque_rules_do_not() {
        crate::jstar_table! {
            /// table Lhs(int k, int v) orderby (Lhs)
            Lhs(int k, int v) orderby (Lhs)
        }
        crate::jstar_table! {
            /// table Rhs(int k, int w) orderby (Rhs)
            Rhs(int k, int w) orderby (Rhs)
        }
        let mut p = ProgramBuilder::new();
        p.rule_rel("opaque", |_, _: Lhs| {});
        p.rule_rel_join(
            "joined",
            crate::relation::join::<Lhs, Rhs>()
                .on(Lhs::k, Rhs::k)
                .lt(Lhs::v, Rhs::w),
            |_, _| {},
        );
        let prog = p.build().unwrap();
        assert!(
            prog.rules()[0].plan().is_none(),
            "closure bodies stay opaque and per-tuple"
        );
        let plan = prog.rules()[1]
            .plan()
            .expect("join rules expose an inspectable plan");
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(
            plan.first_stage().probe_table,
            prog.table_id("Rhs").unwrap()
        );
        assert_eq!(plan.first_stage().keys, vec![((0, 0), 0)]);
        assert_eq!(plan.first_stage().less, vec![((0, 1), 1)]);
        assert!(plan.root_less.is_empty());
    }

    #[test]
    fn two_stage_join_rules_carry_both_stages() {
        crate::jstar_table! {
            /// table T0(int a, int b) orderby (T0)
            T0(int a, int b) orderby (T0)
        }
        crate::jstar_table! {
            /// table T1(int c, int d) orderby (T1)
            T1(int c, int d) orderby (T1)
        }
        crate::jstar_table! {
            /// table T2(int e, int f) orderby (T2)
            T2(int e, int f) orderby (T2)
        }
        let mut p = ProgramBuilder::new();
        p.rule_rel_join(
            "two-stage",
            crate::relation::join3::<T0, T1, T2>()
                .on_ab(T0::b, T1::c)
                .on_ac(T0::a, T2::f)
                .lt_bc(T1::c, T2::f)
                .on_bc(T1::d, T2::e)
                .lt_ac(T0::b, T2::e)
                .lt_a(T0::a, T0::b),
            |_, _| {},
        );
        let prog = p.build().unwrap();
        let plan = prog.rules()[0].plan().expect("plan");
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].probe_table, prog.table_id("T1").unwrap());
        assert_eq!(plan.stages[0].keys, vec![((0, 1), 0)]);
        assert_eq!(plan.stages[1].probe_table, prog.table_id("T2").unwrap());
        // The C keys keep call order: on_ac (row 0, the trigger) was
        // declared first, so T2.f is the column the view is opened on
        // and on_bc (row 1, the stage-1 tuple) is a residual; the
        // inequalities keep the same layout, in declaration order, and
        // lt_a is a root check.
        assert_eq!(plan.stages[1].keys, vec![((0, 0), 1), ((1, 1), 0)]);
        assert_eq!(plan.stages[1].less, vec![((1, 0), 1), ((0, 1), 0)]);
        assert!(plan.stages[0].less.is_empty());
        assert_eq!(plan.root_less, vec![(0, 1)]);
    }

    #[test]
    fn two_stage_join_rule_carries_a_model() {
        crate::jstar_table! {
            /// table Path(int a, int b) orderby (Path)
            Path(int a, int b) orderby (Path)
        }
        crate::jstar_table! {
            /// table Hop(int from, int to) orderby (Hop)
            Hop(int from, int to) orderby (Hop)
        }
        crate::jstar_table! {
            /// table Loop(int a) orderby (Loop)
            Loop(int a) orderby (Loop)
        }
        let mut p = ProgramBuilder::new();
        p.relation::<Hop>();
        p.relation::<Path>();
        p.relation::<Loop>();
        p.order(&["Hop", "Path", "Loop"]);
        // Strata only: every put points to a later stratum than the
        // trigger, every query reads an earlier one.
        let model = CausalityModel {
            ctx: ModelCtx::new(),
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "Loop".into(),
                guard: vec![],
                bindings: vec![],
                label: "close".into(),
            }],
            queries: vec![QueryModel {
                q_table: "Hop".into(),
                guard: vec![],
                bindings: vec![],
                label: "hops".into(),
            }],
        };
        let j = crate::relation::join3::<Path, Hop, Hop>()
            .on_ab(Path::b, Hop::from)
            .on_bc(Hop::to, Hop::from)
            .on_ac(Path::a, Hop::to);
        p.rule_rel_join_with_model("close", j, model, |ctx, (p, _, _)| {
            ctx.put_rel(Loop { a: p.a })
        });
        for (from, to) in [(1, 2), (2, 3), (3, 1), (3, 4)] {
            p.put_rel(Hop { from, to });
        }
        p.put_rel(Path { a: 1, b: 2 });
        let prog = Arc::new(p.build().unwrap());
        let results = prog.check_causality();
        assert!(!results.is_empty());
        assert!(results.iter().all(|r| r.proved), "{results:?}");
        assert!(prog.validate_strict().is_ok());
        assert_eq!(prog.rules()[0].plan().expect("plan").stages.len(), 2);
        let mut engine =
            crate::engine::Engine::new(prog, crate::engine::EngineConfig::sequential());
        engine.run().unwrap();
        assert_eq!(engine.collect_rel(Loop::query().eq(Loop::a, 1)).len(), 1);
    }
}
