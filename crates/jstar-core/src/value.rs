//! Dynamic field values for JStar tuples.
//!
//! JStar tables are relations whose columns hold Java-like scalar values.
//! Our engine is dynamically typed at the tuple level (the XText compiler's
//! static typing is out of scope), so fields are [`Value`]s with a *total*
//! order and hash — both required because tuples live in hash tables
//! (Gamma stores, Delta leaves), sorted column views and orderby keys.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column, declared in a [`crate::schema::TableDef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (covers Java `int` and `long`).
    Int,
    /// 64-bit IEEE float with total ordering (`f64::total_cmp`).
    Double,
    /// Immutable interned string.
    Str,
    /// Boolean.
    Bool,
}

impl ValueType {
    /// The default value of this type, used by the tuple builder when a
    /// field is not specified (`new Ship() [x=10; dx=150; y=10]` leaves
    /// `frame` and `dy` at their defaults).
    pub fn default_value(self) -> Value {
        match self {
            ValueType::Int => Value::Int(0),
            ValueType::Double => Value::Double(0.0),
            ValueType::Str => Value::str(""),
            ValueType::Bool => Value::Bool(false),
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Double => write!(f, "double"),
            ValueType::Str => write!(f, "String"),
            ValueType::Bool => write!(f, "boolean"),
        }
    }
}

/// A dynamically typed field value.
///
/// `Value` implements `Eq`, `Ord` and `Hash` for *all* variants, including
/// `Double` (via `total_cmp` / bit hashing), so tuples can be stored in
/// ordered and hashed containers. Values of different types order by a fixed
/// type rank (Int < Double < Str < Bool); well-typed programs never compare
/// across types, but the total order keeps container invariants safe.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Double(f64),
    Str(Arc<str>),
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<Cow<'static, str>>) -> Value {
        match s.into() {
            Cow::Borrowed(b) => Value::Str(Arc::from(b)),
            Cow::Owned(o) => Value::Str(Arc::from(o.as_str())),
        }
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Double(_) => ValueType::Double,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Extracts an integer, panicking on type mismatch (rule bodies are
    /// generated code in the paper; a mismatch is a compiler bug there and a
    /// programming bug here).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected int value, found {other:?}"),
        }
    }

    /// Extracts a double, panicking on type mismatch.
    pub fn as_double(&self) -> f64 {
        match self {
            Value::Double(d) => *d,
            other => panic!("expected double value, found {other:?}"),
        }
    }

    /// Extracts a string slice, panicking on type mismatch.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected String value, found {other:?}"),
        }
    }

    /// Extracts a bool, panicking on type mismatch.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected boolean value, found {other:?}"),
        }
    }

    /// Numeric view: Int and Double both convert to f64. Used by the
    /// built-in aggregate reducers (`Statistics`, sum, min, max).
    pub fn as_f64_lossy(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Double(d) => *d,
            other => panic!("expected numeric value, found {other:?}"),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Double(_) => 1,
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(5), Value::Int(5));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        let one = Value::Double(1.0);
        // total_cmp puts NaN above all normal numbers.
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn double_zero_signs_distinct_but_consistent() {
        let pz = Value::Double(0.0);
        let nz = Value::Double(-0.0);
        // total_cmp: -0.0 < +0.0; Eq must agree with Ord.
        assert!(nz < pz);
        assert_ne!(nz, pz);
        assert_ne!(hash_of(&nz), hash_of(&pz));
    }

    #[test]
    fn eq_and_hash_agree() {
        let a = Value::str("hello");
        let b = Value::str("hello");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_type_order_is_total_and_antisymmetric() {
        let vals = [
            Value::Int(3),
            Value::Double(1.5),
            Value::str("x"),
            Value::Bool(true),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn accessors_extract_and_display() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Double(2.5).as_double(), 2.5);
        assert_eq!(Value::str("abc").as_str(), "abc");
        assert!(Value::Bool(true).as_bool());
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Int(3).as_f64_lossy(), 3.0);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_panics_on_type_mismatch() {
        Value::Bool(false).as_int();
    }

    #[test]
    fn defaults_match_types() {
        assert_eq!(ValueType::Int.default_value(), Value::Int(0));
        assert_eq!(ValueType::Str.default_value(), Value::str(""));
        assert_eq!(ValueType::Bool.default_value(), Value::Bool(false));
        assert_eq!(ValueType::Double.default_value(), Value::Double(0.0));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(2.0f64), Value::Double(2.0));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("t")), Value::str("t"));
    }
}
