//! Immutable tuples — the only data JStar programs manipulate.
//!
//! "Each tuple in a table is typically implemented as an immutable Java
//! object with a fixed set of named fields" (§3). Here a [`Tuple`] is a
//! reference-counted immutable row; cloning is a count bump, which is
//! what lets the same tuple sit in the Delta tree, the Gamma database and
//! rule-trigger queues without copying.
//!
//! **One allocation, one thin pointer.** A row is a single heap block —
//! a header `{refs, table, len}` followed by its `len` field [`Value`]s —
//! and a `Tuple` is the 8-byte pointer to it, so a Gamma slot holds a row
//! in one word and a probe that matches reaches the fields with one more
//! cache miss, not two. (An `Arc<[Value]>` would be a 16-byte fat pointer
//! with nowhere for the table id; an `Arc` of a struct holding a boxed
//! slice, two allocations and two misses.) The reference count
//! follows `Arc`'s protocol exactly: clone is a `Relaxed` increment (the
//! cloner already owns a reference, so nothing needs ordering) that
//! aborts the process should the count pass `isize::MAX`; drop is a
//! `Release` decrement, and the thread that takes the count to zero
//! issues an `Acquire` fence before it drops the fields and frees the
//! block — so every other owner's reads of the row happen-before the
//! free. The atomics come from `jstar_check::sync`, and the header
//! carries a zero-sized `freed` cell the free "writes", so the model
//! checker sees the one plain-memory event that matters (CONCURRENCY.md,
//! protocol 8). All of the `unsafe` that the layout needs is in this
//! file; everything outside it sees `&[Value]`.

use crate::schema::{TableDef, TableId};
use crate::value::Value;
use jstar_check::sync::{fence, AtomicUsize, Ordering, UnsafeCell};
use std::alloc::Layout;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ptr::NonNull;

/// The fixed part of a row's heap block; `len` [`Value`]s follow it at
/// [`FIELDS_AT`].
#[repr(C)]
struct Header {
    refs: AtomicUsize,
    table: TableId,
    len: u32,
    /// Zero-sized in production. The freeing thread "writes" it after its
    /// Acquire fence: under `model-check` that is the event the race
    /// detector orders every earlier read of the row against.
    freed: UnsafeCell<()>,
}

/// Byte offset of the first field in a row's block.
const FIELDS_AT: usize = size_of::<Header>().next_multiple_of(align_of::<Value>());

/// Alignment of a row's block: the stricter of header and fields.
const ROW_ALIGN: usize = if align_of::<Header>() > align_of::<Value>() {
    align_of::<Header>()
} else {
    align_of::<Value>()
};

/// The layout of a row with `len` fields.
fn row_layout(len: usize) -> Layout {
    size_of::<Value>()
        .checked_mul(len)
        .and_then(|fields| fields.checked_add(FIELDS_AT))
        .and_then(|bytes| Layout::from_size_align(bytes, ROW_ALIGN).ok())
        .unwrap_or_else(|| panic!("a tuple of {len} fields does not fit the address space"))
}

/// An immutable tuple belonging to one table.
pub struct Tuple {
    /// The row's block: a live [`Header`] with `len` initialised fields
    /// behind it, kept alive by the reference this `Tuple` counts for.
    row: NonNull<Header>,
}

// SAFETY: a Tuple is shared ownership of an immutable row: the fields
// (`Value`: Send + Sync — integers, floats, bools and `Arc<str>`) are never
// written after construction, the count is atomic, and the last owner —
// whichever thread that is — frees the block only after the
// Release/Acquire hand-over in `Drop`. Exactly `Arc<T: Send + Sync>`.
unsafe impl Send for Tuple {}
// SAFETY: as above — `&Tuple` only reads the immutable row or bumps the
// atomic count.
unsafe impl Sync for Tuple {}

impl Tuple {
    /// Creates a tuple by position (the `new Ship(0,10,10,150,0)` form).
    /// Field types are *not* checked here; [`crate::program::Program`]
    /// checks them at `put` time when type checking is enabled.
    pub fn new(table: TableId, fields: impl Into<Vec<Value>>) -> Tuple {
        Tuple::drain_from(table, &mut fields.into())
    }

    /// [`Tuple::new`] out of a caller-owned scratch vector: every value
    /// moves into the row's one allocation and `fields` is left empty
    /// with its capacity intact, ready for the next record — the snapshot
    /// reader decodes a whole table through one such vector.
    pub fn drain_from(table: TableId, fields: &mut Vec<Value>) -> Tuple {
        // SAFETY: the vector holds `len()` initialised values; `set_len(0)`
        // right after makes it forget them, so each value has exactly one
        // owner (the row) and the vector keeps only its buffer.
        unsafe {
            let t = Tuple::from_raw_fields(table, fields.as_ptr(), fields.len());
            fields.set_len(0);
            t
        }
    }

    /// [`Tuple::new`] from a fixed-arity array: the fields move straight
    /// from the stack into the row's one allocation — no intermediate
    /// `Vec`. The typed put path ([`crate::relation::Relation::into_tuple`]
    /// as `jstar_table!` / `relation!` generate it) builds rows this way.
    #[inline]
    pub fn from_fields<const N: usize>(table: TableId, fields: [Value; N]) -> Tuple {
        let fields = ManuallyDrop::new(fields);
        // SAFETY: the array holds N initialised values and, wrapped in
        // ManuallyDrop, never drops them: the row becomes their one owner.
        unsafe { Tuple::from_raw_fields(table, fields.as_ptr(), N) }
    }

    /// Allocates a row and moves `len` values into it bitwise.
    ///
    /// # Safety
    /// `src` must point at `len` initialised `Value`s that the caller
    /// gives up: it must not drop or use them afterwards.
    unsafe fn from_raw_fields(table: TableId, src: *const Value, len: usize) -> Tuple {
        let header = Header {
            refs: AtomicUsize::new(1),
            table,
            len: u32::try_from(len).unwrap_or_else(|_| panic!("a tuple of {len} fields")),
            freed: UnsafeCell::new(()),
        };
        let layout = row_layout(len);
        // SAFETY: the layout is never zero-sized (it contains the header);
        // a null return is routed to the allocation-failure handler. The
        // block is `row_layout(len)`: room for the header at offset 0 and
        // `len` values at FIELDS_AT, both suitably aligned (ROW_ALIGN), so
        // the two writes stay in bounds; `src` is valid per the contract
        // and cannot overlap a block that was allocated just now.
        unsafe {
            let block = std::alloc::alloc(layout);
            let Some(row) = NonNull::new(block as *mut Header) else {
                std::alloc::handle_alloc_error(layout)
            };
            row.as_ptr().write(header);
            std::ptr::copy_nonoverlapping(src, block.add(FIELDS_AT) as *mut Value, len);
            Tuple { row }
        }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: `row` points at a live header for as long as this Tuple
        // holds its reference (the struct invariant).
        unsafe { self.row.as_ref() }
    }

    /// Starts a named-field builder (the `new Ship() [frame=0; x=10]` form):
    /// unset fields keep the column defaults from the table definition.
    pub fn build(def: &TableDef) -> TupleBuilder<'_> {
        TupleBuilder {
            def,
            fields: def.default_fields(),
        }
    }

    /// The table this tuple belongs to.
    #[inline]
    pub fn table(&self) -> TableId {
        self.header().table
    }

    /// All field values in column order.
    #[inline]
    pub fn fields(&self) -> &[Value] {
        // SAFETY: the block holds `len` initialised values at FIELDS_AT
        // (written by `from_raw_fields`, never mutated), and lives at
        // least as long as `&self`.
        unsafe {
            let first = (self.row.as_ptr() as *const u8).add(FIELDS_AT) as *const Value;
            std::slice::from_raw_parts(first, self.arity())
        }
    }

    /// Raw pointer to the tuple's heap allocation — a prefetch hint
    /// for bulk walks (the snapshot export's lookahead window). Never
    /// dereferenced by callers; reading the fields still goes through
    /// [`Tuple::fields`].
    #[inline]
    pub(crate) fn heap_ptr(&self) -> *const u8 {
        self.row.as_ptr() as *const u8
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.header().len as usize
    }

    /// The `i`-th field.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.fields()[i]
    }

    /// Integer field accessor.
    #[inline]
    pub fn int(&self, i: usize) -> i64 {
        self.get(i).as_int()
    }

    /// Double field accessor.
    #[inline]
    pub fn double(&self, i: usize) -> f64 {
        self.get(i).as_double()
    }

    /// String field accessor.
    #[inline]
    pub fn str(&self, i: usize) -> &str {
        self.get(i).as_str()
    }

    /// Bool field accessor.
    #[inline]
    pub fn bool(&self, i: usize) -> bool {
        self.get(i).as_bool()
    }

    /// Copy-update: returns a builder pre-loaded with this tuple's fields
    /// (the generated `copy` method of the paper's builder classes, which
    /// "can take an existing (immutable) tuple, update a few fields and
    /// create a new tuple").
    pub fn copy<'d>(&self, def: &'d TableDef) -> TupleBuilder<'d> {
        assert_eq!(def.id, self.table(), "copy with mismatched table def");
        TupleBuilder {
            def,
            fields: self.fields().to_vec(),
        }
    }

    /// The leading key fields (primary key if declared, else all fields).
    pub fn key_fields<'t>(&'t self, def: &TableDef) -> &'t [Value] {
        match def.key_arity {
            Some(k) => &self.fields()[..k],
            None => self.fields(),
        }
    }
}

impl Clone for Tuple {
    #[inline]
    fn clone(&self) -> Tuple {
        // ord: Relaxed — the cloner already holds a reference, so the row
        // cannot be freed under it and the new reference needs no edge of
        // its own: whoever receives the clone gets it through some other
        // synchronisation (`Arc::clone`'s argument).
        let before = self.header().refs.fetch_add(1, Ordering::Relaxed);
        if before > isize::MAX as usize {
            // Leaked clones have overflowed the count; a wrap would free a
            // row still in use, so stop here, as `Arc` does.
            std::process::abort();
        }
        Tuple { row: self.row }
    }
}

impl Drop for Tuple {
    #[inline]
    fn drop(&mut self) {
        // ord: Release — orders this owner's reads of the row before the
        // decrement, for the fence in `free` (on whichever thread ends up
        // there) to acquire.
        if self.header().refs.fetch_sub(1, Ordering::Release) == 1 {
            // SAFETY: this decrement took the count to zero.
            unsafe { self.free() };
        }
    }
}

impl Tuple {
    /// The last owner's half of `drop`, out of line: drops the fields and
    /// frees the block.
    ///
    /// # Safety
    /// The caller's decrement must have taken the count to zero, and it
    /// must not touch the row afterwards.
    #[inline(never)]
    unsafe fn free(&mut self) {
        // ord: Acquire — pairs with every other owner's Release decrement:
        // their reads of the row happen-before the free.
        fence(Ordering::Acquire);
        // The free, as the race detector sees it (no-op in production).
        self.header().freed.with_mut(|_| ());
        let len = self.arity();
        // SAFETY: the count reached zero (the contract), so this is the
        // only reference left and — after the fence — the only thread
        // touching the block. The fields are initialised and dropped
        // exactly once, here; the block was allocated with
        // `row_layout(len)` by `from_raw_fields`.
        unsafe {
            let block = self.row.as_ptr() as *mut u8;
            let first = block.add(FIELDS_AT) as *mut Value;
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(first, len));
            std::alloc::dealloc(block, row_layout(len));
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("table", &self.table())
            .field("fields", &self.fields())
            .finish()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality fast path: clones share the same allocation.
        self.row == other.row || (self.table() == other.table() && self.fields() == other.fields())
    }
}
impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.table().hash(state);
        self.fields().hash(state);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Tuples order by (table, fields) lexicographically — the order used by
/// the BTree-based Gamma stores (the paper's `TreeSet` default).
impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.table()
            .cmp(&other.table())
            .then_with(|| self.fields().cmp(other.fields()))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.table())?;
        for (i, v) in self.fields().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builder for the named-field construction form.
pub struct TupleBuilder<'d> {
    def: &'d TableDef,
    fields: Vec<Value>,
}

impl<'d> TupleBuilder<'d> {
    /// Sets a field by name.
    pub fn set(mut self, name: &str, v: impl Into<Value>) -> Self {
        let idx = self.def.col(name);
        let v = v.into();
        assert_eq!(
            v.value_type(),
            self.def.columns[idx].ty,
            "field {name} of table {} has type {}",
            self.def.name,
            self.def.columns[idx].ty
        );
        self.fields[idx] = v;
        self
    }

    /// Finishes the tuple.
    pub fn finish(self) -> Tuple {
        Tuple::new(self.def.id, self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::{seq, strat};
    use crate::schema::TableDefBuilder;

    fn ship_def() -> TableDef {
        let b = TableDefBuilder::new("Ship")
            .col_int("frame")
            .col_int("x")
            .col_int("y")
            .col_int("dx")
            .default_value(150i64)
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
    fn positional_construction() {
        let def = ship_def();
        let t = Tuple::new(
            def.id,
            vec![
                Value::Int(0),
                Value::Int(10),
                Value::Int(10),
                Value::Int(150),
                Value::Int(0),
            ],
        );
        assert_eq!(t.int(0), 0);
        assert_eq!(t.int(3), 150);
        assert_eq!(t.arity(), 5);
    }

    #[test]
    fn named_construction_uses_defaults() {
        // new Ship() [x=10; y=10] — frame and dy default to 0, dx to 150.
        let def = ship_def();
        let t = Tuple::build(&def).set("x", 10i64).set("y", 10i64).finish();
        assert_eq!(t.int(0), 0, "frame defaults to 0");
        assert_eq!(t.int(3), 150, "dx has an overridden default");
        assert_eq!(t.int(4), 0, "dy defaults to 0");
    }

    #[test]
    fn equivalent_construction_forms_are_equal() {
        let def = ship_def();
        let positional = Tuple::new(
            def.id,
            vec![
                Value::Int(0),
                Value::Int(10),
                Value::Int(10),
                Value::Int(150),
                Value::Int(0),
            ],
        );
        let named = Tuple::build(&def)
            .set("frame", 0i64)
            .set("x", 10i64)
            .set("dx", 150i64)
            .set("y", 10i64)
            .set("dy", 0i64)
            .finish();
        let defaulted = Tuple::build(&def).set("x", 10i64).set("y", 10i64).finish();
        assert_eq!(positional, named);
        assert_eq!(positional, defaulted);
    }

    #[test]
    fn copy_updates_some_fields() {
        let def = ship_def();
        let t = Tuple::build(&def).set("x", 10i64).finish();
        let t2 = t.copy(&def).set("frame", 1i64).set("x", 160i64).finish();
        assert_eq!(t2.int(0), 1);
        assert_eq!(t2.int(1), 160);
        assert_eq!(t2.int(3), t.int(3), "unchanged fields preserved");
        assert_ne!(t, t2);
    }

    #[test]
    fn clones_are_equal_and_cheap() {
        let def = ship_def();
        let t = Tuple::build(&def).finish();
        let c = t.clone();
        assert_eq!(t, c);
    }

    #[test]
    fn key_fields_respect_pk() {
        let def = ship_def();
        let t = Tuple::build(&def).set("frame", 7i64).finish();
        assert_eq!(t.key_fields(&def), &[Value::Int(7)]);
    }

    #[test]
    fn ordering_is_by_table_then_fields() {
        let a = Tuple::new(TableId(0), vec![Value::Int(5)]);
        let b = Tuple::new(TableId(0), vec![Value::Int(6)]);
        let c = Tuple::new(TableId(1), vec![Value::Int(0)]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    #[should_panic(expected = "has type int")]
    fn builder_rejects_wrong_type() {
        let def = ship_def();
        let _ = Tuple::build(&def).set("x", "oops");
    }

    #[test]
    fn display_renders_fields() {
        let t = Tuple::new(TableId(3), vec![Value::Int(1), Value::str("a")]);
        assert_eq!(t.to_string(), "T3(1, a)");
    }

    // ── The hand-rolled row: ownership, layout, auto traits. ────────

    fn hash_of(t: &Tuple) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn string_fields_are_freed_exactly_once() {
        use std::sync::Arc;
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("alpha"), Arc::from("beta"));
        let fields = || vec![Value::Str(a.clone()), Value::Int(1), Value::Str(b.clone())];
        let t = Tuple::new(TableId(0), fields());
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        // Clones share the row: no string is cloned with them...
        let clones: Vec<Tuple> = (0..5).map(|_| t.clone()).collect();
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        assert!(clones
            .iter()
            .all(|c| c.str(0) == "alpha" && c.str(2) == "beta"));
        // ...and none is released while any owner is left, whichever goes
        // first.
        drop(t);
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        drop(clones);
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
        // The array form moves its values in the same way.
        let [x, y, z]: [Value; 3] = fields().try_into().unwrap();
        drop(Tuple::from_fields(TableId(0), [x, y, z]));
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
        // A vector with spare capacity gives up its values, not its buffer.
        let mut roomy = Vec::with_capacity(16);
        roomy.extend(fields());
        drop(Tuple::new(TableId(0), roomy));
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
    }

    #[test]
    fn drain_from_moves_the_values_and_keeps_the_scratch() {
        use std::sync::Arc;
        let name: Arc<str> = Arc::from("alpha");
        let mut scratch = Vec::with_capacity(8);
        let (buffer, capacity) = (scratch.as_ptr(), scratch.capacity());
        let mut rows = Vec::new();
        for i in 0..3 {
            scratch.extend([Value::Str(name.clone()), Value::Int(i)]);
            rows.push(Tuple::drain_from(TableId(2), &mut scratch));
            // Emptied, not reallocated: the next record reuses the buffer.
            assert!(scratch.is_empty());
            assert_eq!((scratch.as_ptr(), scratch.capacity()), (buffer, capacity));
        }
        // Each string moved — one reference per row, none left behind in
        // the scratch and none cloned on the way.
        assert_eq!(Arc::strong_count(&name), 4);
        assert_eq!(
            rows[1],
            Tuple::new(TableId(2), vec![Value::Str(name.clone()), Value::Int(1)])
        );
        drop(rows);
        assert_eq!(Arc::strong_count(&name), 1);
        // An empty scratch is the zero-arity row.
        assert_eq!(Tuple::drain_from(TableId(2), &mut scratch).arity(), 0);
    }

    #[test]
    fn zero_arity_rows_work() {
        let unit = Tuple::new(TableId(4), Vec::new());
        assert_eq!(
            (unit.arity(), unit.fields().len(), unit.table()),
            (0, 0, TableId(4))
        );
        assert_eq!(unit, Tuple::from_fields(TableId(4), []));
        assert_eq!(unit.clone().to_string(), "T4()");
        assert!(unit < Tuple::new(TableId(4), vec![Value::Int(0)]));
    }

    #[test]
    fn every_construction_form_builds_the_same_row() {
        let def = ship_def();
        let values = || [0i64, 10, 10, 150, 0].map(Value::Int);
        let from_vec = Tuple::new(def.id, values().to_vec());
        let from_array = Tuple::from_fields(def.id, values());
        let built = Tuple::build(&def).set("x", 10i64).set("y", 10i64).finish();
        let copied = from_vec.copy(&def).finish();
        for other in [&from_array, &built, &copied] {
            assert_eq!(&from_vec, other);
            assert_eq!(from_vec.cmp(other), std::cmp::Ordering::Equal);
            assert_eq!(hash_of(&from_vec), hash_of(other));
            assert_eq!(from_vec.fields(), other.fields());
        }
        // Same fields under another table id: a different tuple, ordered
        // by table first.
        let elsewhere = Tuple::from_fields(TableId(9), values());
        assert_ne!(from_vec, elsewhere);
        assert!(from_vec < elsewhere);
    }

    #[test]
    fn a_tuple_is_one_thin_shareable_pointer() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Tuple>();
        assert_eq!(std::mem::size_of::<Tuple>(), 8);
        assert_eq!(std::mem::size_of::<Option<Tuple>>(), 8);
    }
}

/// The reference-count hand-over, explored by the jstar-check scheduler
/// (`cargo test -p jstar-core --features model-check`; CONCURRENCY.md
/// protocol 8).
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use jstar_check::{thread, Checker};
    use std::sync::Arc;

    /// Two threads give up the last two references. In every
    /// interleaving the row is freed exactly once — the string field's
    /// own count says its destructor ran once, not twice, not never — and
    /// the other thread's read of the row happens-before that free: the
    /// read is recorded on the header's `freed` cell, which the freeing
    /// thread writes after its Acquire fence, so a `Relaxed` decrement or
    /// a missing fence is a reported data race.
    #[test]
    fn the_last_two_owners_free_the_row_exactly_once() {
        let report = Checker::new().check(|| {
            let name: Arc<str> = Arc::from("shared");
            let t = Tuple::new(TableId(0), vec![Value::Int(7), Value::Str(name.clone())]);
            let owners: Vec<_> = [t.clone(), t.clone()]
                .into_iter()
                .map(|mine| {
                    thread::spawn(move || {
                        mine.header().freed.with(|_| ());
                        assert_eq!((mine.int(0), mine.str(1)), (7, "shared"));
                    })
                })
                .collect();
            drop(t);
            for owner in owners {
                owner.join();
            }
            assert_eq!(Arc::strong_count(&name), 1, "the fields were dropped once");
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
