//! Orderby lists and causal order keys — the heart of JStar's Law of
//! Causality (§4 of the paper).
//!
//! Every table declares an `orderby` list that embeds its tuples into one
//! global lexicographic ordering, shared by all tables. The `i`-th level of
//! the Delta tree is sorted by the `i`-th entries of these lists:
//!
//! * a capitalised literal (`Int`, `PvWatts`, ...) — a *stratum* name,
//!   ordered by the program's explicit `order` declarations;
//! * `seq field` — sorted sequentially by the field's value;
//! * `par field` — subtrees are unordered, so everything below executes in
//!   parallel (one equivalence class).
//!
//! [`OrderKey`] is the materialised position of one tuple in this ordering.
//! Keys compare lexicographically; tuples whose keys compare equal form one
//! *equivalence class* and may run in parallel (§5's all-minimums strategy).

use crate::schema::TableDef;
use crate::strata::{StratId, StrataOrder};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A component of a declared `orderby` list (field references by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderComponent {
    /// A capitalised literal ordered by `order` declarations.
    Strat(String),
    /// `seq field`: sorted sequentially by this field.
    Seq(String),
    /// `par field`: unordered — everything below is one equivalence class.
    Par(String),
}

/// Builds a stratum-literal component.
pub fn strat(name: &str) -> OrderComponent {
    OrderComponent::Strat(name.to_string())
}

/// Builds a `seq field` component.
pub fn seq(field: &str) -> OrderComponent {
    OrderComponent::Seq(field.to_string())
}

/// Builds a `par field` component.
pub fn par(field: &str) -> OrderComponent {
    OrderComponent::Par(field.to_string())
}

/// An orderby component with field names resolved to column indexes and
/// stratum literals resolved to ids + total ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedComponent {
    Strat {
        id: StratId,
        rank: u32,
    },
    Seq {
        field: usize,
    },
    /// `par`: this level and everything below it is one equivalence class,
    /// so the key is truncated here. The field index is kept for
    /// diagnostics only.
    Par {
        field: usize,
    },
}

/// A table's fully resolved orderby specification.
#[derive(Debug, Clone, Default)]
pub struct ResolvedOrderBy {
    pub components: Vec<ResolvedComponent>,
}

impl ResolvedOrderBy {
    /// Resolves a declared orderby list against a table definition and the
    /// program's strata order.
    pub fn resolve(def: &TableDef, strata: &StrataOrder) -> Result<Self, String> {
        let mut components = Vec::with_capacity(def.orderby.len());
        for c in &def.orderby {
            components.push(match c {
                OrderComponent::Strat(name) => {
                    let id = strata.lookup(name).ok_or_else(|| {
                        format!(
                            "table {}: orderby literal {name} was never interned",
                            def.name
                        )
                    })?;
                    ResolvedComponent::Strat {
                        id,
                        rank: strata.rank(id),
                    }
                }
                OrderComponent::Seq(field) => ResolvedComponent::Seq {
                    field: def.column_index(field).ok_or_else(|| {
                        format!("table {}: orderby names unknown column {field}", def.name)
                    })?,
                },
                OrderComponent::Par(field) => ResolvedComponent::Par {
                    field: def.column_index(field).ok_or_else(|| {
                        format!("table {}: orderby names unknown column {field}", def.name)
                    })?,
                },
            });
        }
        Ok(ResolvedOrderBy { components })
    }

    /// Computes the order key of `tuple` under this specification.
    ///
    /// The key stops at the first `par` component: subtrees under a `par`
    /// node are unordered, so deeper components cannot influence scheduling.
    pub fn key_of(&self, tuple: &Tuple) -> OrderKey {
        let mut parts = Vec::with_capacity(self.components.len());
        for c in &self.components {
            match c {
                ResolvedComponent::Strat { rank, .. } => parts.push(KeyPart::Strat(*rank)),
                ResolvedComponent::Seq { field } => {
                    parts.push(KeyPart::Seq(tuple.get(*field).clone()))
                }
                ResolvedComponent::Par { .. } => break,
            }
        }
        OrderKey(parts)
    }
}

/// One level of an [`OrderKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// A stratum literal, compared by its total rank (a linearisation of the
    /// declared partial order).
    Strat(u32),
    /// A `seq` field value.
    Seq(Value),
}

impl KeyPart {
    fn kind_rank(&self) -> u8 {
        match self {
            KeyPart::Strat(_) => 0,
            KeyPart::Seq(_) => 1,
        }
    }
}

impl PartialOrd for KeyPart {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyPart {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (KeyPart::Strat(a), KeyPart::Strat(b)) => a.cmp(b),
            (KeyPart::Seq(a), KeyPart::Seq(b)) => a.cmp(b),
            // Heterogeneous shapes at the same tree level: deterministic
            // fallback (program validation warns about this situation).
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

/// The position of a tuple in the global causal ordering.
///
/// Keys compare lexicographically component by component. When one key is a
/// strict prefix of another, the shorter key orders first (its table's
/// leaves sit at a shallower level of the Delta tree).
///
/// Two tuples whose keys compare `Equal` are in the same **equivalence
/// class**: the Law of Causality cannot order them, so the parallel engine
/// may execute them simultaneously.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OrderKey(pub Vec<KeyPart>);

/// Lets a borrowed-or-owned key be handed to consumers that keep it only
/// sometimes ([`crate::delta::ShardedInbox::push`]): the clone happens
/// here, at the moment of keeping.
impl From<std::borrow::Cow<'_, OrderKey>> for OrderKey {
    fn from(key: std::borrow::Cow<'_, OrderKey>) -> OrderKey {
        key.into_owned()
    }
}

impl OrderKey {
    /// The minimal key: orders before (or equal to) every other key.
    /// Initial `put` commands use this as their implicit trigger position.
    pub fn minimum() -> Self {
        OrderKey(Vec::new())
    }

    /// Number of levels in the key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty (minimal) key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self <= other` in the causal ordering. An empty key precedes
    /// everything, so initial puts can target any table.
    pub fn causally_le(&self, other: &OrderKey) -> bool {
        // The minimum key is a prefix of every key and prefixes order first.
        self.cmp(other) != Ordering::Greater || self.is_empty()
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                KeyPart::Strat(r) => write!(f, "S{r}")?,
                KeyPart::Seq(v) => write!(f, "{v}")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(parts: &[KeyPart]) -> OrderKey {
        OrderKey(parts.to_vec())
    }

    #[test]
    fn lexicographic_comparison() {
        let a = k(&[KeyPart::Strat(0), KeyPart::Seq(Value::Int(1))]);
        let b = k(&[KeyPart::Strat(0), KeyPart::Seq(Value::Int(2))]);
        let c = k(&[KeyPart::Strat(1), KeyPart::Seq(Value::Int(0))]);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn prefix_orders_first() {
        let short = k(&[KeyPart::Strat(0)]);
        let long = k(&[KeyPart::Strat(0), KeyPart::Seq(Value::Int(0))]);
        assert!(short < long);
    }

    #[test]
    fn minimum_precedes_everything() {
        let min = OrderKey::minimum();
        let other = k(&[KeyPart::Strat(5)]);
        assert!(min < other);
        assert!(min.causally_le(&other));
        assert!(min.causally_le(&min.clone()));
    }

    #[test]
    fn equal_keys_are_one_equivalence_class() {
        let a = k(&[KeyPart::Strat(2), KeyPart::Seq(Value::Int(18))]);
        let b = k(&[KeyPart::Strat(2), KeyPart::Seq(Value::Int(18))]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert!(a.causally_le(&b) && b.causally_le(&a));
    }

    #[test]
    fn causally_le_rejects_past() {
        let early = k(&[KeyPart::Seq(Value::Int(3))]);
        let late = k(&[KeyPart::Seq(Value::Int(4))]);
        assert!(early.causally_le(&late));
        assert!(!late.causally_le(&early));
    }

    #[test]
    fn display_formats_key() {
        let key = k(&[KeyPart::Strat(1), KeyPart::Seq(Value::Int(7))]);
        assert_eq!(key.to_string(), "(S1, 7)");
    }

    #[test]
    fn component_constructors() {
        assert_eq!(strat("Int"), OrderComponent::Strat("Int".into()));
        assert_eq!(seq("frame"), OrderComponent::Seq("frame".into()));
        assert_eq!(par("row"), OrderComponent::Par("row".into()));
    }
}
