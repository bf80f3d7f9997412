//! Table schemas — the JStar `table` declaration.
//!
//! A JStar table declaration such as
//!
//! ```text
//! table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
//! ```
//!
//! declares column names and types, a primary-key split (`->`: the columns
//! before the arrow functionally determine the ones after), and an `orderby`
//! list that positions the table's tuples in the global causality ordering.

use crate::error::JStarError;
use crate::orderby::OrderComponent;
use crate::value::{Value, ValueType};
use std::fmt;

/// Identifies a table within one [`crate::program::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    /// The index of this table in program-wide vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One column of a table.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ValueType,
    /// Value used when the tuple builder leaves the field unset.
    pub default: Value,
}

/// A complete table definition.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Number of leading columns forming the primary key (`->` notation).
    /// `None` means the whole tuple is the key (pure set semantics).
    pub key_arity: Option<usize>,
    /// The `orderby` list controlling this table's position in the Delta
    /// tree and in the causality ordering.
    pub orderby: Vec<OrderComponent>,
}

impl TableDef {
    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column index by name, panicking with a diagnostic if absent.
    pub fn col(&self, name: &str) -> usize {
        self.column_index(name)
            .unwrap_or_else(|| panic!("table {} has no column named {name}", self.name))
    }

    /// The default field values for a fresh tuple builder.
    pub fn default_fields(&self) -> Vec<Value> {
        self.columns.iter().map(|c| c.default.clone()).collect()
    }

    /// True if `fields` matches this schema's arity and column types.
    pub fn type_check(&self, fields: &[Value]) -> Result<(), String> {
        if fields.len() != self.columns.len() {
            return Err(format!(
                "table {}: expected {} fields, got {}",
                self.name,
                self.columns.len(),
                fields.len()
            ));
        }
        for (i, (f, c)) in fields.iter().zip(&self.columns).enumerate() {
            if f.value_type() != c.ty {
                return Err(format!(
                    "table {}: field {i} ({}) expected {} but got {}",
                    self.name,
                    c.name,
                    c.ty,
                    f.value_type()
                ));
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`TableDef`], used by
/// [`crate::program::ProgramBuilder::table`].
pub struct TableDefBuilder {
    pub(crate) name: String,
    pub(crate) columns: Vec<ColumnDef>,
    pub(crate) key_arity: Option<usize>,
    pub(crate) orderby: Vec<OrderComponent>,
    /// First misuse (duplicate column) noticed while building. Deferred
    /// rather than panicked on: [`crate::program::ProgramBuilder::build`]
    /// reports it as a [`JStarError`], keeping the fluent API infallible
    /// at each step while making misuse reportable, not a crash.
    pub(crate) error: Option<JStarError>,
}

impl TableDefBuilder {
    /// Starts a standalone table definition (outside a
    /// [`crate::program::ProgramBuilder`]) — useful for constructing custom
    /// stores and for tests. Finish with [`TableDefBuilder::build_def`] or
    /// [`TableDefBuilder::try_build_def`].
    pub fn standalone(name: &str) -> Self {
        TableDefBuilder::new(name)
    }

    /// Finishes a standalone definition with an explicit id, returning
    /// any misuse recorded along the way (duplicate column names).
    pub fn try_build_def(self, id: TableId) -> crate::error::Result<TableDef> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(TableDef {
            id,
            name: self.name,
            columns: self.columns,
            key_arity: self.key_arity,
            orderby: self.orderby,
        })
    }

    /// Finishes a standalone definition with an explicit id. Panics on
    /// recorded misuse — use [`TableDefBuilder::try_build_def`] where a
    /// reportable error is wanted.
    pub fn build_def(self, id: TableId) -> TableDef {
        self.try_build_def(id).expect("table definition is valid")
    }

    pub(crate) fn new(name: &str) -> Self {
        TableDefBuilder {
            name: name.to_string(),
            columns: Vec::new(),
            key_arity: None,
            orderby: Vec::new(),
            error: None,
        }
    }

    fn push_col(mut self, name: &str, ty: ValueType) -> Self {
        if self.columns.iter().any(|c| c.name == name) {
            if self.error.is_none() {
                self.error = Some(JStarError::DuplicateColumn {
                    table: self.name.clone(),
                    column: name.to_string(),
                });
            }
            return self;
        }
        self.columns.push(ColumnDef {
            name: name.to_string(),
            ty,
            default: ty.default_value(),
        });
        self
    }

    /// Adds a column of an arbitrary [`ValueType`] — used by
    /// [`crate::program::ProgramBuilder::relation`] to instantiate a
    /// [`crate::relation::Relation`] schema.
    pub fn col(self, name: &str, ty: ValueType) -> Self {
        self.push_col(name, ty)
    }

    /// Adds an `int` column.
    pub fn col_int(self, name: &str) -> Self {
        self.push_col(name, ValueType::Int)
    }

    /// Adds a `double` column.
    pub fn col_double(self, name: &str) -> Self {
        self.push_col(name, ValueType::Double)
    }

    /// Adds a `String` column.
    pub fn col_str(self, name: &str) -> Self {
        self.push_col(name, ValueType::Str)
    }

    /// Adds a `boolean` column.
    pub fn col_bool(self, name: &str) -> Self {
        self.push_col(name, ValueType::Bool)
    }

    /// Overrides the default value of the most recently added column.
    pub fn default_value(mut self, v: impl Into<Value>) -> Self {
        let col = self
            .columns
            .last_mut()
            .expect("default_value must follow a column");
        let v = v.into();
        assert_eq!(
            v.value_type(),
            col.ty,
            "default for column {} has wrong type",
            col.name
        );
        col.default = v;
        self
    }

    /// Declares the `->` primary-key split: the first `arity` columns
    /// functionally determine the rest (at most one tuple per key).
    pub fn key(mut self, arity: usize) -> Self {
        assert!(arity > 0 && arity <= self.columns.len());
        self.key_arity = Some(arity);
        self
    }

    /// Sets the `orderby` list. Use [`crate::orderby::strat`],
    /// [`crate::orderby::seq`] and [`crate::orderby::par`] to build
    /// components; `seq`/`par` name columns of this table.
    pub fn orderby(mut self, components: &[OrderComponent]) -> Self {
        self.orderby = components.to_vec();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::{seq, strat};

    fn ship_def() -> TableDef {
        let b = TableDefBuilder::new("Ship")
            .col_int("frame")
            .col_int("x")
            .col_int("y")
            .col_int("dx")
            .col_int("dy")
            .key(1)
            .orderby(&[strat("Int"), seq("frame")]);
        TableDef {
            id: TableId(0),
            name: b.name,
            columns: b.columns,
            key_arity: b.key_arity,
            orderby: b.orderby,
        }
    }

    #[test]
    fn builder_collects_columns() {
        let def = ship_def();
        assert_eq!(def.arity(), 5);
        assert_eq!(def.column_index("dx"), Some(3));
        assert_eq!(def.col("frame"), 0);
        assert_eq!(def.key_arity, Some(1));
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn missing_column_panics() {
        ship_def().col("nope");
    }

    #[test]
    fn type_check_accepts_good_fields() {
        let def = ship_def();
        let fields = vec![
            Value::Int(0),
            Value::Int(10),
            Value::Int(10),
            Value::Int(150),
            Value::Int(0),
        ];
        assert!(def.type_check(&fields).is_ok());
    }

    #[test]
    fn type_check_rejects_bad_arity_and_types() {
        let def = ship_def();
        assert!(def.type_check(&[Value::Int(0)]).is_err());
        let fields = vec![
            Value::Int(0),
            Value::str("oops"),
            Value::Int(10),
            Value::Int(150),
            Value::Int(0),
        ];
        let err = def.type_check(&fields).unwrap_err();
        assert!(err.contains("field 1"), "{err}");
    }

    #[test]
    fn default_fields_respect_overrides() {
        let b = TableDefBuilder::new("T")
            .col_int("a")
            .default_value(42i64)
            .col_str("s");
        assert_eq!(b.columns[0].default, Value::Int(42));
        assert_eq!(b.columns[1].default, Value::str(""));
    }

    #[test]
    fn duplicate_column_is_a_reported_error() {
        let err = TableDefBuilder::new("T")
            .col_int("a")
            .col_int("a")
            .try_build_def(TableId(0))
            .unwrap_err();
        assert_eq!(
            err,
            JStarError::DuplicateColumn {
                table: "T".into(),
                column: "a".into(),
            }
        );
        assert!(err.to_string().contains("Duplicate column a in table T"));
    }

    #[test]
    fn generic_col_matches_typed_shorthands() {
        let def = TableDefBuilder::standalone("G")
            .col("i", ValueType::Int)
            .col("s", ValueType::Str)
            .build_def(TableId(0));
        assert_eq!(def.columns[0].ty, ValueType::Int);
        assert_eq!(def.columns[1].ty, ValueType::Str);
    }
}
