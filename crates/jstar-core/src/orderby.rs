//! Orderby lists and causal order keys — the heart of JStar's Law of
//! Causality (§4 of the paper).
//!
//! Every table declares an `orderby` list that embeds its tuples into one
//! global lexicographic ordering, shared by all tables: tuples are ordered
//! by the first entries of their lists, ties by the second, and so on. The
//! `i`-th entry is:
//!
//! * a capitalised literal (`Int`, `PvWatts`, ...) — a *stratum* name,
//!   ordered by the program's explicit `order` declarations;
//! * `seq field` — sorted sequentially by the field's value;
//! * `par field` — unordered: tuples that agree on every entry before it
//!   execute in parallel (one equivalence class).
//!
//! [`OrderKey`] is the materialised position of one tuple in this ordering.
//! Keys compare lexicographically; tuples whose keys compare equal form one
//! *equivalence class* and may run in parallel (§5's all-minimums strategy).
//!
//! **Keys allocate nothing.** Every Delta put computes a key, the inbox
//! keeps it beside the tuple and the Delta set is ordered by it, so a key
//! is a plain 48-byte value: up to [`INLINE_PARTS`] parts (every program
//! in the paper fits) are held in place as one 8-byte word each — a
//! stratum rank, or the `seq` field's integer, double or bool re-coded so
//! that unsigned word order *is* value order — with the parts' kinds and
//! their count packed into one more word. Building a key is a handful of
//! register-width stores, and two keys of the same shape (all keys one
//! table produces) compare as two short arrays of integers. A key with a
//! string part, or more than four parts, *spills*: all its parts move to a
//! boxed vector of [`KeyPart`]s and every operation takes the general path
//! over those. Both forms present the same parts ([`OrderKey::part`],
//! [`OrderKey::parts`]), compare, hash and print alike, so which one a key
//! is in cannot be observed.

use crate::schema::TableDef;
use crate::strata::{StratId, StrataOrder};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A component of a declared `orderby` list (field references by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderComponent {
    /// A capitalised literal ordered by `order` declarations.
    Strat(String),
    /// `seq field`: sorted sequentially by this field.
    Seq(String),
    /// `par field`: unordered — tuples that agree on every earlier
    /// component are one equivalence class.
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
    /// `par`: tuples that agree on every earlier component are one
    /// equivalence class, so the key is truncated here. The field index
    /// is kept for diagnostics only.
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
    /// The key stops at the first `par` component: tuples that agree up to
    /// it are unordered, so later components cannot influence scheduling.
    pub fn key_of(&self, tuple: &Tuple) -> OrderKey {
        let mut key = OrderKey::minimum();
        for c in &self.components {
            match c {
                ResolvedComponent::Strat { rank, .. } => key.push_packed(STRAT, *rank as u64),
                ResolvedComponent::Seq { field } => key.push_seq(tuple.get(*field)),
                ResolvedComponent::Par { .. } => break,
            }
        }
        key
    }
}

/// One component of an [`OrderKey`], as the program sees it: a stratum
/// literal or a `seq` field's value.
///
/// The `seq` variants mirror [`Value`]'s and order exactly as it does —
/// within a type by value (`f64::total_cmp` for doubles), across types by
/// `Int < Double < Str < Bool` — with every stratum part before every
/// `seq` part (keys of different shapes at one position: a deterministic
/// fallback; program validation warns about the situation).
#[derive(Debug, Clone)]
pub enum KeyPart {
    /// A stratum literal, compared by its total rank (a linearisation of the
    /// declared partial order).
    Strat(u32),
    /// A `seq` field holding [`Value::Int`].
    Int(i64),
    /// A `seq` field holding [`Value::Double`].
    Double(f64),
    /// A `seq` field holding [`Value::Str`] (shared with the tuple, not
    /// copied). The one part an [`OrderKey`] cannot hold in place.
    Str(Arc<str>),
    /// A `seq` field holding [`Value::Bool`].
    Bool(bool),
}

/// A part's kind: its variant's position, which is also its place in the
/// cross-shape order (strata first, then `Value`'s type ranks).
type Kind = u8;
const STRAT: Kind = 0;
const INT: Kind = 1;
const DOUBLE: Kind = 2;
const STR: Kind = 3;
const BOOL: Kind = 4;

const SIGN: u64 = 1 << 63;

/// An integer as a word whose unsigned order is the integer's order.
#[inline]
fn int_word(i: i64) -> u64 {
    i as u64 ^ SIGN
}

/// A double as a word whose unsigned order is `f64::total_cmp`'s:
/// negatives (sign bit set) reverse, non-negatives move above them.
#[inline]
fn double_word(d: f64) -> u64 {
    let bits = d.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// The part a packed `(kind, word)` pair stands for.
#[inline]
fn unpack(kind: Kind, word: u64) -> KeyPart {
    match kind {
        STRAT => KeyPart::Strat(word as u32),
        INT => KeyPart::Int((word ^ SIGN) as i64),
        DOUBLE => KeyPart::Double(f64::from_bits(if word & SIGN != 0 {
            word & !SIGN
        } else {
            !word
        })),
        BOOL => KeyPart::Bool(word != 0),
        _ => unreachable!("kind {kind} is never packed"),
    }
}

impl KeyPart {
    /// The part for a `seq` component whose field holds `v`.
    #[inline]
    pub fn seq(v: &Value) -> KeyPart {
        match v {
            Value::Int(i) => KeyPart::Int(*i),
            Value::Double(d) => KeyPart::Double(*d),
            Value::Str(s) => KeyPart::Str(Arc::clone(s)),
            Value::Bool(b) => KeyPart::Bool(*b),
        }
    }

    #[inline]
    fn kind(&self) -> Kind {
        match self {
            KeyPart::Strat(_) => STRAT,
            KeyPart::Int(_) => INT,
            KeyPart::Double(_) => DOUBLE,
            KeyPart::Str(_) => STR,
            KeyPart::Bool(_) => BOOL,
        }
    }
}

impl PartialEq for KeyPart {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KeyPart {}

impl PartialOrd for KeyPart {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyPart {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (KeyPart::Strat(a), KeyPart::Strat(b)) => a.cmp(b),
            (KeyPart::Int(a), KeyPart::Int(b)) => a.cmp(b),
            (KeyPart::Double(a), KeyPart::Double(b)) => a.total_cmp(b),
            (KeyPart::Str(a), KeyPart::Str(b)) => a.cmp(b),
            (KeyPart::Bool(a), KeyPart::Bool(b)) => a.cmp(b),
            _ => self.kind().cmp(&other.kind()),
        }
    }
}

/// Consistent with `Eq` (doubles by bit pattern, as [`Value`] hashes
/// them). A `seq` part feeds the hasher what `(1, value)` would and a
/// stratum part what `(0, rank)` would, so where a key lands among the
/// inbox partitions does not depend on how its parts are stored.
impl Hash for KeyPart {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let seq = |state: &mut H, type_rank: u8| {
            state.write_isize(1);
            type_rank.hash(state);
        };
        match self {
            KeyPart::Strat(rank) => {
                state.write_isize(0);
                rank.hash(state);
            }
            KeyPart::Int(i) => {
                seq(state, 0);
                i.hash(state);
            }
            KeyPart::Double(d) => {
                seq(state, 1);
                d.to_bits().hash(state);
            }
            KeyPart::Str(s) => {
                seq(state, 2);
                s.hash(state);
            }
            KeyPart::Bool(b) => {
                seq(state, 3);
                b.hash(state);
            }
        }
    }
}

/// Parts an [`OrderKey`] holds in place before it spills to the heap.
pub const INLINE_PARTS: usize = 4;

/// The position of a tuple in the global causal ordering.
///
/// Keys compare lexicographically component by component. When one key is a
/// strict prefix of another, the shorter key orders first (a table whose
/// orderby list is a prefix of another's is causally earlier).
///
/// Two tuples whose keys compare `Equal` are in the same **equivalence
/// class**: the Law of Causality cannot order them, so the parallel engine
/// may execute them simultaneously.
#[derive(Clone, Default)]
pub struct OrderKey {
    /// In-place form: byte 0 is the number of parts, byte `1 + i` the
    /// [`Kind`] of part `i`. Zero when spilled.
    meta: u64,
    /// In-place form: part `i`'s order-preserving word ([`int_word`],
    /// [`double_word`], a rank, a bool). Words past the length — and all
    /// of them when spilled — are zero, so same-shape keys compare and
    /// equate as whole arrays.
    words: [u64; INLINE_PARTS],
    /// Spilled form (a string part, or more than [`INLINE_PARTS`]): every
    /// part of the key, in order. Boxed so that the common form pays one
    /// word for it, not a vector's three.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<KeyPart>>>,
}

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
    pub const fn minimum() -> Self {
        OrderKey {
            meta: 0,
            words: [0; INLINE_PARTS],
            spill: None,
        }
    }

    /// The key with the given parts, most significant first.
    pub fn from_parts(parts: impl IntoIterator<Item = KeyPart>) -> Self {
        let mut key = OrderKey::minimum();
        for part in parts {
            key.push(part);
        }
        key
    }

    /// Number of parts held in place (zero when spilled).
    #[inline]
    fn inline_len(&self) -> usize {
        (self.meta & 0xff) as usize
    }

    /// Kind of in-place part `i`.
    #[inline]
    fn inline_kind(&self, i: usize) -> Kind {
        (self.meta >> (8 * (i + 1))) as Kind
    }

    /// Number of parts in the key.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.spill {
            None => self.inline_len(),
            Some(parts) => parts.len(),
        }
    }

    /// True for the empty (minimal) key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Part `i` (0 is the most significant), if the key is that long.
    #[inline]
    pub fn part(&self, i: usize) -> Option<KeyPart> {
        match &self.spill {
            None if i < self.inline_len() => Some(unpack(self.inline_kind(i), self.words[i])),
            None => None,
            Some(parts) => parts.get(i).cloned(),
        }
    }

    /// The key's parts, most significant first.
    #[inline]
    pub fn parts(&self) -> impl Iterator<Item = KeyPart> + '_ {
        (0..self.len()).filter_map(move |i| self.part(i))
    }

    /// Appends one (least significant) part.
    #[inline]
    pub(crate) fn push(&mut self, part: KeyPart) {
        match part {
            KeyPart::Strat(rank) => self.push_packed(STRAT, rank as u64),
            KeyPart::Int(i) => self.push_packed(INT, int_word(i)),
            KeyPart::Double(d) => self.push_packed(DOUBLE, double_word(d)),
            KeyPart::Bool(b) => self.push_packed(BOOL, b as u64),
            KeyPart::Str(_) => self.push_spilled(part),
        }
    }

    /// Appends the `seq` part of a field holding `v`:
    /// `push(KeyPart::seq(v))` without building the part, which
    /// [`ResolvedOrderBy::key_of`] measures at 14 ns against 23.
    #[inline]
    fn push_seq(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.push_packed(INT, int_word(*i)),
            Value::Double(d) => self.push_packed(DOUBLE, double_word(*d)),
            Value::Bool(b) => self.push_packed(BOOL, *b as u64),
            Value::Str(s) => self.push_spilled(KeyPart::Str(Arc::clone(s))),
        }
    }

    #[inline]
    fn push_packed(&mut self, kind: Kind, word: u64) {
        let len = self.inline_len();
        if len < INLINE_PARTS && self.spill.is_none() {
            self.words[len] = word;
            self.meta = (self.meta + 1) | (kind as u64) << (8 * (len + 1));
        } else {
            self.push_spilled(unpack(kind, word));
        }
    }

    /// [`OrderKey::push`] onto the spilled form, spilling first if need be.
    #[cold]
    fn push_spilled(&mut self, part: KeyPart) {
        if self.spill.is_none() {
            let mut parts = Vec::with_capacity(2 * INLINE_PARTS);
            parts.extend(self.parts());
            (self.meta, self.words) = (0, [0; INLINE_PARTS]);
            self.spill = Some(Box::new(parts));
        }
        if let Some(parts) = &mut self.spill {
            parts.push(part);
        }
    }

    /// `self <= other` in the causal ordering. An empty key precedes
    /// everything, so initial puts can target any table.
    pub fn causally_le(&self, other: &OrderKey) -> bool {
        // The minimum key is a prefix of every key and prefixes order first.
        self.cmp(other) != Ordering::Greater || self.is_empty()
    }
}

impl fmt::Debug for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OrderKey")?;
        f.debug_list().entries(self.parts()).finish()
    }
}

impl PartialEq for OrderKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.spill, &other.spill) {
            (None, None) => self.meta == other.meta && self.words == other.words,
            _ => self.parts().eq(other.parts()),
        }
    }
}

impl Eq for OrderKey {}

/// What a `[KeyPart]` slice of the same parts feeds a hasher (the length,
/// then each part), whichever form the key is in.
impl Hash for OrderKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        self.hash_prefix(usize::MAX, state);
    }
}

impl OrderKey {
    /// Feeds the key's first `n` parts (all of them, if it has fewer) to
    /// `state`, one after the other — what the inbox partitions by.
    #[inline]
    pub(crate) fn hash_prefix<H: Hasher>(&self, n: usize, state: &mut H) {
        match &self.spill {
            // The parts are built in registers and hashed from there.
            None => (0..self.inline_len().min(n))
                .for_each(|i| unpack(self.inline_kind(i), self.words[i]).hash(state)),
            Some(parts) => parts.iter().take(n).for_each(|part| part.hash(state)),
        }
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    /// Part by part, a strict prefix first.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if self.spill.is_some() || other.spill.is_some() {
            return self.parts().cmp(other.parts());
        }
        if self.meta == other.meta {
            // Same length, same kinds: word order is value order, and the
            // unused words are zero on both sides.
            return self.words.cmp(&other.words);
        }
        let (mine, theirs) = (self.inline_len(), other.inline_len());
        for i in 0..mine.min(theirs) {
            let by_kind = self.inline_kind(i).cmp(&other.inline_kind(i));
            match by_kind.then_with(|| self.words[i].cmp(&other.words[i])) {
                Ordering::Equal => continue,
                decided => return decided,
            }
        }
        mine.cmp(&theirs)
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.parts().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                KeyPart::Strat(r) => write!(f, "S{r}")?,
                KeyPart::Int(v) => write!(f, "{v}")?,
                KeyPart::Double(v) => write!(f, "{v}")?,
                KeyPart::Str(v) => write!(f, "{v}")?,
                KeyPart::Bool(v) => write!(f, "{v}")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(parts: &[KeyPart]) -> OrderKey {
        OrderKey::from_parts(parts.iter().cloned())
    }

    #[test]
    fn lexicographic_comparison() {
        let a = k(&[KeyPart::Strat(0), KeyPart::Int(1)]);
        let b = k(&[KeyPart::Strat(0), KeyPart::Int(2)]);
        let c = k(&[KeyPart::Strat(1), KeyPart::Int(0)]);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn prefix_orders_first() {
        let short = k(&[KeyPart::Strat(0)]);
        let long = k(&[KeyPart::Strat(0), KeyPart::Int(0)]);
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
        let a = k(&[KeyPart::Strat(2), KeyPart::Int(18)]);
        let b = k(&[KeyPart::Strat(2), KeyPart::Int(18)]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert!(a.causally_le(&b) && b.causally_le(&a));
    }

    #[test]
    fn causally_le_rejects_past() {
        let early = k(&[KeyPart::Int(3)]);
        let late = k(&[KeyPart::Int(4)]);
        assert!(early.causally_le(&late));
        assert!(!late.causally_le(&early));
    }

    #[test]
    fn display_formats_key() {
        let key = k(&[KeyPart::Strat(1), KeyPart::Int(7)]);
        assert_eq!(key.to_string(), "(S1, 7)");
    }

    #[test]
    fn a_key_is_a_small_value_and_spills_only_when_it_must() {
        assert_eq!(std::mem::size_of::<OrderKey>(), 48);
        let ints = |n: i64| (0..n).map(KeyPart::Int);
        let four = OrderKey::from_parts(ints(INLINE_PARTS as i64));
        assert!(four.spill.is_none());
        assert_eq!(four.len(), 4);
        let five = OrderKey::from_parts(ints(5));
        assert!(five.spill.is_some());
        assert_eq!(
            five.parts().collect::<Vec<_>>(),
            ints(5).collect::<Vec<_>>()
        );
        assert!(four < five, "a prefix orders first across the two forms");
        assert_eq!(five.part(4), Some(KeyPart::Int(4)));
        assert_eq!((four.part(4), five.part(5)), (None, None));
        // A string part cannot be held in place, however short the key.
        let named = k(&[KeyPart::Strat(1), KeyPart::seq(&Value::str("x"))]);
        assert!(named.spill.is_some());
        assert_eq!(named.to_string(), "(S1, x)");
    }

    #[test]
    fn packed_words_decode_to_the_parts_they_encode() {
        let doubles = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.0, f64::INFINITY];
        let parts: Vec<KeyPart> = [i64::MIN, -1, 0, 1, i64::MAX]
            .into_iter()
            .map(KeyPart::Int)
            .chain(doubles.into_iter().map(KeyPart::Double))
            .chain([KeyPart::Double(f64::NAN), KeyPart::Double(-f64::NAN)])
            .chain([false, true].into_iter().map(KeyPart::Bool))
            .chain([0, 7, u32::MAX].into_iter().map(KeyPart::Strat))
            .collect();
        for part in &parts {
            let key = k(std::slice::from_ref(part));
            assert!(key.spill.is_none());
            assert_eq!(key.part(0).as_ref(), Some(part), "{part:?}");
            // Word order is part order, also against every other shape.
            for other in &parts {
                let other_key = k(std::slice::from_ref(other));
                assert_eq!(
                    key.cmp(&other_key),
                    part.cmp(other),
                    "{part:?} vs {other:?}"
                );
                assert_eq!(key == other_key, part == other);
            }
        }
    }

    #[test]
    fn which_form_a_key_is_in_cannot_be_observed() {
        use std::collections::hash_map::DefaultHasher;
        fn hash(k: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        }
        let parts = [KeyPart::Strat(2), KeyPart::Int(-4), KeyPart::Double(-0.0)];
        let inline = k(&parts);
        assert!(inline.spill.is_none());
        // The same three parts, held in the spilled form.
        let spilled = OrderKey {
            meta: 0,
            words: [0; INLINE_PARTS],
            spill: Some(Box::new(parts.to_vec())),
        };
        assert_eq!(inline, spilled);
        assert_eq!(inline.cmp(&spilled), Ordering::Equal);
        assert_eq!(hash(&inline), hash(&spilled));
        assert_eq!(hash(&inline), hash(&parts.to_vec()), "a slice of the parts");
        assert_eq!(inline.to_string(), "(S2, -4, -0)");
        assert_eq!(inline.to_string(), spilled.to_string());
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        // Both order alike against a third key, from either side.
        let later = k(&[KeyPart::Strat(2), KeyPart::Int(-4), KeyPart::Double(0.0)]);
        assert!(inline < later && spilled < later);
        assert_eq!(later.cmp(&spilled), Ordering::Greater);
    }

    #[test]
    fn seq_parts_order_as_their_values_do() {
        let values = [
            Value::Int(-1),
            Value::Int(3),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::str(""),
            Value::str("b"),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for a in &values {
            assert!(KeyPart::Strat(u32::MAX) < KeyPart::seq(a), "strata first");
            for b in &values {
                assert_eq!(
                    KeyPart::seq(a).cmp(&KeyPart::seq(b)),
                    a.cmp(b),
                    "{a} vs {b}"
                );
                assert_eq!(KeyPart::seq(a) == KeyPart::seq(b), a == b);
            }
        }
    }

    #[test]
    fn component_constructors() {
        assert_eq!(strat("Int"), OrderComponent::Strat("Int".into()));
        assert_eq!(seq("frame"), OrderComponent::Seq("frame".into()));
        assert_eq!(par("row"), OrderComponent::Par("row".into()));
    }
}
