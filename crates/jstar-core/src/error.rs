//! Error types for program construction, validation and execution.

use crate::orderby::OrderKey;
use std::fmt;

/// Any error produced by the JStar runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum JStarError {
    /// `order` declarations are cyclic, or an orderby list is malformed.
    Stratification(String),
    /// A rule `put` a tuple into the past at run time — the Law of
    /// Causality was violated (§4).
    /// (The keys are boxed: an [`OrderKey`] is an inline 72-byte value,
    /// and two of them would make every `Result` in the crate that wide.)
    CausalityViolation {
        rule: String,
        trigger_key: Box<OrderKey>,
        put_key: Box<OrderKey>,
        tuple: String,
    },
    /// A primary-key (`->`) invariant was violated: two tuples with the
    /// same key but different dependent fields.
    KeyViolation { table: String, detail: String },
    /// A rule read a write-once table before the run had closed it
    /// (see [`crate::gamma::WriteOnceStore`]): rows may still arrive,
    /// so whatever the read saw could change.
    ReadBeforeClose { rule: String, table: String },
    /// A tuple failed schema type checking.
    Type(String),
    /// Two tables were declared with the same name. Recorded by the
    /// builder and reported at [`crate::program::ProgramBuilder::build`]
    /// so misuse is an error, not a crash.
    DuplicateTable { table: String },
    /// A table declared two columns with the same name. Recorded by the
    /// builder and reported at build time.
    DuplicateColumn { table: String, column: String },
    /// A join rule left a relation after its trigger keyed by no `on`
    /// pair — a cross join, which gives the walk nothing to seek on.
    /// Recorded by the builder and reported at build time; write a
    /// cross join as an opaque rule that loops over a query.
    KeylessJoin { rule: String, relation: String },
    /// A query constrained a field the table does not have. Positional
    /// queries are validated when they first reach the engine (typed
    /// [`crate::relation::TypedQuery`] constraints cannot express this).
    /// `field` is the column name, or `#i` for a raw positional index.
    NoSuchField { table: String, field: String },
    /// Static causality checking could not prove an obligation. The paper
    /// treats this as a strong warning;
    /// [`crate::program::Program::validate_strict`]
    /// reports it as an error when strict checking is requested.
    Unproved(String),
    /// Anything else (I/O in system rules, configuration mistakes...).
    Other(String),
    /// An operating-system I/O failure while writing or reading a
    /// snapshot. Carries the rendered `std::io::Error` so the variant
    /// stays `Clone + PartialEq` like the rest of the enum.
    Io(String),
    /// A snapshot file failed structural validation: bad magic, version,
    /// checksum, or framing. [`crate::engine::Engine::restore`] reports
    /// this instead of panicking on truncated or bit-flipped input.
    CorruptSnapshot(String),
    /// A snapshot was written by a program with a different schema
    /// (table names, column names/types, key split, or orderby lists).
    SchemaMismatch(String),
}

impl fmt::Display for JStarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JStarError::Stratification(msg) => write!(f, "Stratification error: {msg}"),
            JStarError::CausalityViolation {
                rule,
                trigger_key,
                put_key,
                tuple,
            } => write!(
                f,
                "Causality violation in rule {rule}: put {tuple} at {put_key}, \
                 which is before the trigger at {trigger_key} — rules may not change the past"
            ),
            JStarError::KeyViolation { table, detail } => {
                write!(f, "Key violation in table {table}: {detail}")
            }
            JStarError::ReadBeforeClose { rule, table } => write!(
                f,
                "Rule {rule} read table {table} before it closed: no rule triggers {table}, \
                 so it is read only once the run has passed its stratum"
            ),
            JStarError::Type(msg) => write!(f, "Type error: {msg}"),
            JStarError::DuplicateTable { table } => {
                write!(f, "Duplicate table declaration: {table}")
            }
            JStarError::DuplicateColumn { table, column } => {
                write!(f, "Duplicate column {column} in table {table}")
            }
            JStarError::KeylessJoin { rule, relation } => write!(
                f,
                "Join rule {rule}: relation {relation} is keyed by no on() pair (a cross join)"
            ),
            JStarError::NoSuchField { table, field } => {
                write!(f, "Query error: table {table} has no field {field}")
            }
            JStarError::Unproved(msg) => write!(f, "Causality warning: {msg}"),
            JStarError::Other(msg) => write!(f, "{msg}"),
            JStarError::Io(msg) => write!(f, "I/O error: {msg}"),
            JStarError::CorruptSnapshot(msg) => write!(f, "Corrupt snapshot: {msg}"),
            JStarError::SchemaMismatch(msg) => write!(f, "Snapshot schema mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JStarError {}

/// Result alias used across the runtime.
pub type Result<T> = std::result::Result<T, JStarError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = JStarError::Stratification("no order between A and B".into());
        assert!(e.to_string().contains("Stratification"));

        let e = JStarError::CausalityViolation {
            rule: "move".into(),
            trigger_key: Box::new(OrderKey::minimum()),
            put_key: Box::new(OrderKey::minimum()),
            tuple: "Ship(0)".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("rule move"));
        assert!(msg.contains("change the past"));

        let e = JStarError::KeyViolation {
            table: "Done".into(),
            detail: "two distances for vertex 3".into(),
        };
        assert!(e.to_string().contains("Done"));
    }

    #[test]
    fn persistence_errors_name_their_cause() {
        let e = JStarError::Io("permission denied".into());
        assert!(e.to_string().contains("I/O"));
        assert!(e.to_string().contains("permission denied"));

        let e = JStarError::CorruptSnapshot("checksum mismatch".into());
        assert!(e.to_string().contains("Corrupt snapshot"));

        let e = JStarError::SchemaMismatch("table Ship: arity 5 vs 4".into());
        assert!(e.to_string().contains("schema mismatch"));
        assert!(e.to_string().contains("Ship"));
    }
}
