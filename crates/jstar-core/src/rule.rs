//! Rules — the computation of a JStar program (§3).
//!
//! "Each rule inspects the existing database, makes calculations and
//! decisions, and can then add tuples to one or more tables." A rule is
//! triggered by tuples of one table (the `foreach (Ship s)` header); its
//! body receives the trigger tuple and a [`crate::engine::RuleCtx`] through
//! which it queries Gamma and `put`s new tuples.

use crate::causality::CausalityModel;
use crate::engine::RuleCtx;
use crate::schema::TableId;
use crate::tuple::Tuple;
use std::sync::Arc;

/// The executable body of a rule. Bodies must be deterministic functions of
/// the trigger tuple and the database for JStar's deterministic-parallelism
/// guarantee (§1.3) to hold; they are called concurrently by the parallel
/// engine, hence `Send + Sync`.
pub type RuleBody = Arc<dyn Fn(&RuleCtx<'_>, &Tuple) + Send + Sync>;

/// Emission step of a [`JoinPlan`]: called once per full row
/// combination — the slice is `[trigger, stage1_probed, stage2_probed,
/// ...]` in stage order, one tuple per relation of the join — and
/// `put`s result tuples through the context.
pub type JoinEmit = Arc<dyn Fn(&RuleCtx<'_>, &[&Tuple]) + Send + Sync>;

/// One probe stage of a [`JoinPlan`]: a table to probe, the equi-join
/// keys binding it to rows already matched, and the inequalities its
/// candidates must satisfy against those rows.
#[derive(Debug, Clone)]
pub struct JoinStage {
    /// The Gamma table this stage probes.
    pub probe_table: TableId,
    /// Equi-join pairs `((row, field), probe_field)`: field `field` of
    /// row `row` — row 0 is the trigger (a read's `A` row), row `k ≥ 1` is stage
    /// `k`'s probed tuple — equates to `probe_field` of this stage's
    /// candidate. Stage 1 may only reference row 0; stage `k` may
    /// reference rows `0..k`.
    pub keys: Vec<((usize, usize), usize)>,
    /// Inequalities in the same layout: field `field` of row `row` is
    /// strictly below `probe_field` of this stage's candidate, under
    /// [`crate::value::Value`]'s order. Each is checked as the candidate
    /// is matched, beside the residual keys — the first stage that
    /// binds both of its sides — so a failing candidate never reaches a
    /// later stage.
    pub less: Vec<((usize, usize), usize)>,
}

impl JoinStage {
    /// The `(table, field)` this stage's column view is opened on: the
    /// probe column of its first key pair (the lowering refuses a stage
    /// without one).
    pub fn column(&self) -> (TableId, usize) {
        (self.probe_table, self.keys[0].1)
    }
}

/// An inspectable (join → emit) plan for a rule body.
///
/// Rules registered through
/// [`crate::program::ProgramBuilder::rule_rel_join`] — a
/// [`crate::relation::join`] or [`crate::relation::join3`] value with
/// the trigger as its first relation — expose their constraint
/// structure instead of hiding it inside an opaque closure: for each
/// trigger tuple passing the root checks, match the stages in order —
/// each stage's candidates constrained by equi-join keys and
/// inequalities against rows already matched — and run `emit` on each
/// full row combination. The variable order is fixed by stage
/// declaration order (no cost-based optimizer), and every stage is
/// keyed by at least one equi-join pair (the builder refuses a cross
/// join).
///
/// The engine runs a plan one way: every run of fresh trigger tuples
/// is cut into a view on the field stage 0 seeks by and becomes the
/// root of one leapfrog walk over sorted column views of the stage
/// tables, whatever the run's width.
pub struct JoinPlan {
    /// Root checks `(field, field)` on the trigger tuple: it is joined
    /// only when the first field is below the second.
    pub root_less: Vec<(usize, usize)>,
    /// The probe stages, in fixed variable order.
    pub stages: Vec<JoinStage>,
    /// Emission per full row combination.
    pub emit: JoinEmit,
}

impl JoinPlan {
    /// The first stage's probe table (every plan has at least one stage).
    pub fn first_stage(&self) -> &JoinStage {
        &self.stages[0]
    }
}

impl std::fmt::Debug for JoinPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinPlan")
            .field("root_less", &self.root_less)
            .field("stages", &self.stages)
            .finish()
    }
}

/// What a rule runs on its fresh trigger tuples.
pub enum RuleKind {
    /// An opaque closure, called once per trigger tuple.
    Body(RuleBody),
    /// An inspectable join, walked once per run of trigger tuples.
    Join(JoinPlan),
}

/// A JStar rule.
pub struct Rule {
    /// Diagnostic name.
    pub name: String,
    /// The table whose tuples trigger this rule.
    pub trigger: TableId,
    /// The per-tuple body or the join plan.
    pub kind: RuleKind,
    /// Optional causality model for static checking (§4). Rules without a
    /// model are reported as unproved by strict validation, mirroring the
    /// compiler warning the paper describes.
    pub model: Option<CausalityModel>,
}

impl Rule {
    /// The rule's join plan; `None` for an opaque closure body.
    pub fn plan(&self) -> Option<&JoinPlan> {
        match &self.kind {
            RuleKind::Join(plan) => Some(plan),
            RuleKind::Body(_) => None,
        }
    }
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("trigger", &self.trigger)
            .field("has_model", &self.model.is_some())
            .field("plan", &self.plan())
            .finish()
    }
}
