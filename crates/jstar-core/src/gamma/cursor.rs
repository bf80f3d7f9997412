//! Sorted per-column cursors — the seek/next walk surface of the
//! worst-case-optimal join lowering.
//!
//! A [`ColumnIndex`] is an immutable sorted view of one column of a
//! Gamma store, held as a handful of flat arrays (one allocation each,
//! whatever the number of distinct values):
//!
//! * `keys` — every distinct value of the column, ascending;
//! * `starts` — group `g` is `rows[starts[g]..starts[g + 1]]`;
//! * `rows` — the tuple handles, group-major, each group in store
//!   iteration (journal) order;
//! * `int_keys` — a dense `i64` copy of `keys`, present when every key
//!   is a `Value::Int`: seeks on an integer target search 8-byte keys
//!   instead of comparing enums;
//! * `cells` — a row-major `i64` copy of every field of every row,
//!   present when all of them are `Value::Int`: a join's residual
//!   equality reads one contiguous slice and never touches the tuple.
//!
//! The two packed mirrors are decided by what the column holds, once,
//! when the view is built or merged; a view never changes after that.
//! It is built by [`super::TableStore::open_cursor`] (or caught up by
//! the [`super::IndexCache`]) and shared — it is handed out in an `Arc`
//! — by every worker participating in a walk; each worker positions its
//! own lightweight [`ColumnCursor`] over it. The join walks themselves
//! live in [`super::leapfrog`].
//!
//! The cursor distinguishes the two leapfrog-triejoin motions:
//!
//! * [`ColumnCursor::next`] — advance one distinct value. Constant
//!   time, *not* counted as a seek.
//! * [`ColumnCursor::seek`] — position at the first value `>=` a
//!   target. When a single `next` step is not enough, the cursor
//!   gallops (exponential probe, then binary search), and **that** is
//!   what the seek counter counts: the number of logarithmic search
//!   operations, the cursor-walk analogue of a hash probe. A dense
//!   intersection that mostly steps forward therefore reports far
//!   fewer seeks than it visits keys — which is exactly the economy
//!   the leapfrog walk is chosen for. The contract is the same on the
//!   dense and on the generic key representation (one search routine,
//!   instantiated for both).

use crate::error::{JStarError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use std::ops::Range;
use std::sync::Arc;

/// A store-iteration callback: invoked with a sink that must be fed
/// every live tuple of the table. How [`ColumnIndex::build`] borrows a
/// store's `for_each` without naming the store type.
pub type TupleVisit<'a> = dyn FnMut(&mut dyn FnMut(&Tuple)) + 'a;

/// An immutable sorted view of one column of a table store: distinct
/// values ascending, each with its group of tuples (in store iteration
/// order), plus the packed mirrors described in the module docs. Shared
/// across the workers of one join walk.
#[derive(Debug, PartialEq)]
pub struct ColumnIndex {
    pub(super) keys: Vec<Value>,
    pub(super) starts: Vec<u32>,
    pub(super) rows: Vec<Tuple>,
    pub(super) int_keys: Option<Box<[i64]>>,
    pub(super) cells: Option<Box<[i64]>>,
    /// Fields per row (0 while the view is empty); `cells` holds
    /// `rows.len() * width` values.
    pub(super) width: usize,
}

/// A seek target: an integer (searched on the dense keys when the view
/// has them) or any other value. `Val` never holds a `Value::Int`.
#[derive(Clone, Copy)]
pub(super) enum Key<'a> {
    Int(i64),
    Val(&'a Value),
}

impl<'a> Key<'a> {
    pub(super) fn of(v: &'a Value) -> Key<'a> {
        match v {
            Value::Int(i) => Key::Int(*i),
            other => Key::Val(other),
        }
    }
}

/// Accumulates the flat arrays group by group — the one place the
/// packed mirrors are decided, shared by the cold cut and the merge.
struct FlatBuilder {
    keys: Vec<Value>,
    starts: Vec<u32>,
    rows: Vec<Tuple>,
    int_keys: Option<Vec<i64>>,
    cells: Option<Vec<i64>>,
    width: usize,
}

impl FlatBuilder {
    fn with_capacity(rows: usize) -> FlatBuilder {
        FlatBuilder {
            keys: Vec::new(),
            starts: Vec::new(),
            rows: Vec::with_capacity(rows),
            int_keys: Some(Vec::new()),
            cells: Some(Vec::new()),
            width: 0,
        }
    }

    /// Opens the next group; `key` must exceed every key so far.
    fn open_group(&mut self, key: Value) {
        self.starts.push(self.rows.len() as u32);
        match (&mut self.int_keys, &key) {
            (Some(dense), Value::Int(i)) => dense.push(*i),
            _ => self.int_keys = None,
        }
        self.keys.push(key);
    }

    /// Appends a row to the open group, packing its fields while every
    /// field seen so far has been an integer.
    fn push_row(&mut self, t: Tuple) {
        if let Some(cells) = &mut self.cells {
            if self.rows.is_empty() {
                self.width = t.arity();
            }
            let at = cells.len();
            let packed = t.arity() == self.width
                && t.fields().iter().all(|v| match v {
                    Value::Int(i) => {
                        cells.push(*i);
                        true
                    }
                    _ => false,
                });
            if !packed {
                cells.truncate(at);
                self.cells = None;
            }
        }
        self.rows.push(t);
    }

    /// Appends group `g` of `old` to the open group: handles cloned,
    /// packed cells copied as one slice.
    fn push_group_of(&mut self, old: &ColumnIndex, g: usize) {
        let range = old.group_range(g);
        if self.rows.is_empty() {
            self.width = old.width;
        }
        match (&mut self.cells, &old.cells) {
            (Some(cells), Some(packed)) if self.width == old.width => {
                cells.extend_from_slice(&packed[range.start * old.width..range.end * old.width]);
            }
            _ => self.cells = None,
        }
        self.rows.extend_from_slice(&old.rows[range]);
    }

    fn finish(mut self) -> ColumnIndex {
        // `starts` is u32: half the bytes of usize offsets on the array
        // every group lookup reads.
        assert!(
            self.rows.len() <= u32::MAX as usize,
            "ColumnIndex holds at most u32::MAX rows"
        );
        self.starts.push(self.rows.len() as u32);
        self.keys.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.rows.shrink_to_fit();
        ColumnIndex {
            keys: self.keys,
            starts: self.starts,
            rows: self.rows,
            int_keys: self.int_keys.map(Vec::into_boxed_slice),
            cells: self.cells.map(Vec::into_boxed_slice),
            width: self.width,
        }
    }
}

impl ColumnIndex {
    /// Builds the index by sorting a full `visit` pass on `field` —
    /// the default [`super::TableStore::open_cursor`]. The sort is
    /// stable, so each group keeps store iteration order.
    pub fn build(field: usize, visit: &mut TupleVisit<'_>) -> ColumnIndex {
        let mut pairs: Vec<(Value, Tuple)> = Vec::new();
        visit(&mut |t| pairs.push((t.get(field).clone(), t.clone())));
        sort_by_value(&mut pairs, |(k, _)| k);
        match ColumnIndex::try_from_sorted(pairs) {
            Ok(index) => index,
            Err(e) => unreachable!("pairs were sorted just above: {e}"),
        }
    }

    /// Cuts `(key, tuple)` pairs already sorted ascending by key (equal
    /// keys adjacent, in the order their group should keep) into the
    /// flat view — the one builder every producer ends in. The order is
    /// verified in release builds too (the comparisons the cut makes
    /// anyway) and a violation comes back as a typed error instead of
    /// silently corrupting every later seek, so a producer that skips
    /// the sort because its source is ordered is caught at build time.
    pub fn try_from_sorted(pairs: Vec<(Value, Tuple)>) -> Result<ColumnIndex> {
        let mut flat = FlatBuilder::with_capacity(pairs.len());
        for (i, (key, t)) in pairs.into_iter().enumerate() {
            match flat.keys.last().map(|last| last.cmp(&key)) {
                Some(std::cmp::Ordering::Equal) => {}
                Some(std::cmp::Ordering::Greater) => {
                    return Err(JStarError::Other(format!(
                        "ColumnIndex::try_from_sorted: keys not ascending \
                         at position {i} ({:?} > {key:?})",
                        flat.keys.last()
                    )));
                }
                _ => flat.open_group(key),
            }
            flat.push_row(t);
        }
        Ok(flat.finish())
    }

    /// Two-way merges a sorted batch of *new* `(key, tuple)` pairs into
    /// this index, producing the caught-up index in one linear pass
    /// over both sides: values interleave in ascending order, and where
    /// a value exists on both sides the new tuples are appended
    /// **after** the cached ones — new tuples carry later journal
    /// positions, so the merged group order stays journal order,
    /// exactly what a cold rebuild over the longer journal would emit.
    /// Cached rows are copied group by group (handles cloned, packed
    /// cells as slices); only the new tuples are unpacked. `new` must
    /// be sorted like [`ColumnIndex::try_from_sorted`]'s input.
    pub(crate) fn merge_suffix(&self, new: Vec<(Value, Tuple)>) -> ColumnIndex {
        debug_assert!(new.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut flat = FlatBuilder::with_capacity(self.rows.len() + new.len());
        let mut new = new.into_iter().peekable();
        let mut g = 0;
        loop {
            // The smaller head opens the next group; on a tie the cached
            // group goes first and the new tuples follow it.
            let old_first = match (self.keys.get(g), new.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(old), Some((fresh, _))) => old <= fresh,
            };
            if old_first {
                flat.open_group(self.keys[g].clone());
                flat.push_group_of(self, g);
                g += 1;
            } else if let Some((key, t)) = new.next() {
                flat.open_group(key);
                flat.push_row(t);
            }
            while let Some((_, t)) = new.next_if(|(k, _)| flat.keys.last() == Some(k)) {
                flat.push_row(t);
            }
        }
        flat.finish()
    }

    /// Heap bytes this view owns, for the cache's byte-bounded LRU: the
    /// five arrays at their capacities. A row is a handle — the tuple
    /// payload belongs to the store (and a `Str` key's text to its
    /// tuple), so neither is charged here.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let packed = |p: &Option<Box<[i64]>>| p.as_ref().map_or(0, |b| b.len() * size_of::<i64>());
        self.keys.capacity() * size_of::<Value>()
            + self.starts.capacity() * size_of::<u32>()
            + self.rows.capacity() * size_of::<Tuple>()
            + packed(&self.int_keys)
            + packed(&self.cells)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// A fresh cursor positioned at the first (smallest) value.
    pub fn cursor(self: &Arc<Self>) -> ColumnCursor {
        ColumnCursor {
            index: Arc::clone(self),
            pos: 0,
            seeks: 0,
        }
    }

    /// Row positions of group `g` (`g < len()`).
    pub(super) fn group_range(&self, g: usize) -> Range<usize> {
        self.starts[g] as usize..self.starts[g + 1] as usize
    }

    /// The packed fields of row `r`, when the view has them.
    pub(super) fn cells_of(&self, r: usize) -> Option<&[i64]> {
        self.cells
            .as_deref()
            .map(|c| &c[r * self.width..(r + 1) * self.width])
    }

    /// The key at group position `g` as a seek target.
    pub(super) fn key_at(&self, g: usize) -> Key<'_> {
        match &self.int_keys {
            Some(dense) => Key::Int(dense[g]),
            None => Key::of(&self.keys[g]),
        }
    }

    /// Moves `pos` to the first key `>= target` under the module's
    /// free / one-step / counted-gallop contract; true when the move
    /// was a counted search.
    pub(super) fn seek_from(&self, pos: &mut usize, target: Key<'_>) -> bool {
        match (target, &self.int_keys) {
            (Key::Int(i), Some(dense)) => seek_sorted(dense, pos, &i),
            (Key::Int(i), None) => seek_sorted(&self.keys, pos, &Value::Int(i)),
            (Key::Val(v), _) => seek_sorted(&self.keys, pos, v),
        }
    }

    /// True when group position `g` exists and its key equals `target`.
    pub(super) fn key_is(&self, g: usize, target: Key<'_>) -> bool {
        match (target, &self.int_keys) {
            (Key::Int(i), Some(dense)) => dense.get(g) == Some(&i),
            (Key::Int(i), None) => matches!(self.keys.get(g), Some(Value::Int(k)) if *k == i),
            (Key::Val(v), _) => self.keys.get(g) == Some(v),
        }
    }
}

/// Stable sort of `items` ascending by the value `key` reads from each
/// — the sort in front of every [`ColumnIndex::try_from_sorted`] (on
/// `(key, tuple)` pairs) and of a join rule's delta (on its stage-0 key
/// field). When every key is an integer it sorts 16-byte
/// `(i64, position)` pairs and permutes once, instead of moving the
/// items and comparing 32-byte enums throughout.
pub(crate) fn sort_by_value<T>(items: &mut [T], key: impl Fn(&T) -> &Value) {
    if items.iter().all(|t| matches!(key(t), Value::Int(_))) {
        items.sort_by_cached_key(|t| match key(t) {
            Value::Int(i) => *i,
            _ => unreachable!("checked just above"),
        });
    } else {
        items.sort_by(|a, b| key(a).cmp(key(b)));
    }
}

/// The one search routine behind every seek, on either key
/// representation. Already at-or-past the target: free. One step away:
/// one constant-time advance. Anything further — forward *or* backward
/// (later join stages seek in data order, not sorted order) — is a
/// counted search, reported by returning true.
fn seek_sorted<K: Ord>(keys: &[K], pos: &mut usize, target: &K) -> bool {
    // Backward target: restart with one binary search.
    if *pos > 0 && *target <= keys[*pos - 1] {
        *pos = keys.partition_point(|k| k < target);
        return true;
    }
    if !matches!(keys.get(*pos), Some(k) if k < target) {
        return false;
    }
    // One step forward covers the common dense-walk case.
    *pos += 1;
    if !matches!(keys.get(*pos), Some(k) if k < target) {
        return false;
    }
    // Gallop: double the stride while the probed key is still below the
    // target, then binary search between the last two probes — every
    // key up to `below` is < target, and `hi` is the end or a key that
    // is not, so the first-geq position lies in (below, hi].
    let mut below = *pos;
    let mut step = 1usize;
    let mut hi = keys.len();
    while below + step < keys.len() {
        if keys[below + step] >= *target {
            hi = below + step;
            break;
        }
        below += step;
        step *= 2;
    }
    *pos = below + 1 + keys[below + 1..hi].partition_point(|k| k < target);
    true
}

/// One worker's position over a shared [`ColumnIndex`] — the seek/next
/// cursor of the leapfrog walk. Cheap to create (an `Arc` clone and two
/// integers), so parallel walks give every worker its own.
pub struct ColumnCursor {
    index: Arc<ColumnIndex>,
    pos: usize,
    /// Galloping repositioning searches performed (see module docs —
    /// single-step advances are not seeks).
    seeks: u64,
}

impl ColumnCursor {
    /// The value at the cursor, or `None` once exhausted.
    pub fn key(&self) -> Option<&Value> {
        self.index.keys.get(self.pos)
    }

    /// The tuples carrying the current value, or `None` once exhausted.
    pub fn group(&self) -> Option<&[Tuple]> {
        (self.pos < self.index.len()).then(|| &self.index.rows[self.index.group_range(self.pos)])
    }

    /// True when the cursor has moved past the last value.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.index.len()
    }

    /// Advances one distinct value (constant time; not a seek).
    pub fn next(&mut self) {
        if self.pos < self.index.len() {
            self.pos += 1;
        }
    }

    /// Positions the cursor at the first value `>= target` and returns
    /// the group when that value equals `target` exactly.
    ///
    /// Already at-or-past the target: free. One `next` step away: one
    /// constant-time advance. Anything further — forward *or* backward
    /// (later join stages seek in data order, not sorted order) — is a
    /// counted galloping search.
    pub fn seek_exact(&mut self, target: &Value) -> Option<&[Tuple]> {
        self.seek(target);
        if self.index.key_is(self.pos, Key::of(target)) {
            self.group()
        } else {
            None
        }
    }

    /// Positions the cursor at the first value `>= target` (see
    /// [`ColumnCursor::seek_exact`] for the cost/counting contract).
    pub fn seek(&mut self, target: &Value) {
        if self.index.seek_from(&mut self.pos, Key::of(target)) {
            self.seeks += 1;
        }
    }

    /// Counted galloping seeks so far (see module docs).
    pub fn seeks(&self) -> u64 {
        self.seeks
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::schema::TableId;

    /// `(key, payload)` rows in the given order; the key is column 0.
    fn index_of(rows: Vec<Vec<Value>>) -> Arc<ColumnIndex> {
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|f| Tuple::new(TableId(0), f))
            .collect();
        Arc::new(ColumnIndex::build(0, &mut |emit| {
            tuples.iter().for_each(&mut *emit)
        }))
    }

    fn index(vals: &[i64]) -> Arc<ColumnIndex> {
        index_of(
            vals.iter()
                .map(|&v| vec![Value::Int(v), Value::Int(v * 10)])
                .collect(),
        )
    }

    #[test]
    fn empty_index_cursor_is_exhausted() {
        let idx = index(&[]);
        assert!(idx.is_empty());
        let mut c = idx.cursor();
        assert!(c.is_exhausted());
        assert_eq!(c.key(), None);
        assert_eq!(c.group(), None);
        assert_eq!(c.seek_exact(&Value::Int(5)), None);
        c.next();
        assert!(c.is_exhausted());
    }

    #[test]
    fn degenerate_single_value_index() {
        let idx = index(&[7]);
        let mut c = idx.cursor();
        assert_eq!(c.key(), Some(&Value::Int(7)));
        assert_eq!(c.seek_exact(&Value::Int(7)).map(|g| g.len()), Some(1));
        // Seeking below the only value lands on it without matching.
        assert_eq!(c.seek_exact(&Value::Int(6)), None);
        assert_eq!(c.key(), Some(&Value::Int(7)));
        assert_eq!(c.seek_exact(&Value::Int(8)), None);
        assert!(c.is_exhausted());
    }

    #[test]
    fn duplicate_keys_group_together() {
        let idx = index(&[3, 3, 3, 9, 9]);
        assert_eq!(idx.len(), 2, "two distinct values");
        let mut c = idx.cursor();
        assert_eq!(c.group().map(|g| g.len()), Some(3));
        c.next();
        assert_eq!(c.key(), Some(&Value::Int(9)));
        assert_eq!(c.group().map(|g| g.len()), Some(2));
        c.next();
        assert!(c.is_exhausted());
    }

    #[test]
    fn dense_forward_walk_counts_no_seeks() {
        let idx = index(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut c = idx.cursor();
        for v in 1..=8 {
            assert!(c.seek_exact(&Value::Int(v)).is_some(), "v={v}");
        }
        assert_eq!(c.seeks(), 0, "adjacent advances are next()s, not seeks");
    }

    #[test]
    fn long_jumps_gallop_and_count() {
        let vals: Vec<i64> = (0..1000).collect();
        let idx = index(&vals);
        let mut c = idx.cursor();
        assert!(c.seek_exact(&Value::Int(0)).is_some());
        assert!(c.seek_exact(&Value::Int(900)).is_some());
        assert_eq!(c.seeks(), 1, "one gallop for the long jump");
        // Backward seek restarts with a counted binary search.
        assert!(c.seek_exact(&Value::Int(17)).is_some());
        assert_eq!(c.seeks(), 2);
        assert_eq!(c.key(), Some(&Value::Int(17)));
    }

    #[test]
    fn seek_to_missing_value_lands_on_successor() {
        let idx = index(&[10, 20, 30, 40, 50, 60, 70]);
        let mut c = idx.cursor();
        assert_eq!(c.seek_exact(&Value::Int(35)), None);
        assert_eq!(c.key(), Some(&Value::Int(40)), "first value >= target");
        assert_eq!(c.seek_exact(&Value::Int(71)), None);
        assert!(c.is_exhausted());
    }

    /// Where a seek from `pos` must land and whether it is counted,
    /// by linear scan — the contract of the module header, restated.
    pub fn seek_reference<K: Ord>(keys: &[K], pos: usize, target: &K) -> (usize, bool) {
        let land = keys.iter().position(|k| k >= target).unwrap_or(keys.len());
        let backward = pos > 0 && *target <= keys[pos - 1];
        (land, backward || land > pos + 1)
    }

    #[test]
    fn seek_positions_match_linear_scan_reference() {
        // Every (start, target) pair — forward, backward and in place —
        // must land exactly where a linear scan would and count exactly
        // the searches the contract names, on the dense keys (`Int`),
        // on the generic ones (`Str`, `Double`) and for a target of a
        // type the column does not hold.
        let ints: Vec<i64> = vec![i64::MIN, 2, 3, 5, 8, 13, 21, 34, 55, 89, i64::MAX];
        let columns: Vec<Vec<Value>> = vec![
            ints.iter().map(|&v| Value::Int(v)).collect(),
            ints.iter()
                .map(|&v| Value::str(format!("{:03}", v.clamp(0, 99))))
                .collect(),
            ints.iter()
                .map(|&v| Value::Double(v as f64 / 2.0))
                .collect(),
        ];
        for column in columns {
            let idx = index_of(column.iter().map(|k| vec![k.clone()]).collect());
            let keys: Vec<Value> = idx.keys.clone();
            assert_eq!(idx.int_keys.is_some(), matches!(keys[0], Value::Int(_)));
            let mut targets = keys.clone();
            targets.extend((0..100).map(Value::Int));
            targets.push(Value::Double(4.25));
            targets.push(Value::str("050"));
            for start in 0..keys.len() {
                for target in &targets {
                    let mut c = idx.cursor();
                    c.seek(&keys[start]);
                    let before = c.seeks();
                    c.seek(target);
                    let (want, counted) = seek_reference(&keys, start, target);
                    assert_eq!(c.key(), keys.get(want), "start={start} target={target:?}");
                    assert_eq!(
                        c.seeks() - before,
                        counted as u64,
                        "start={start} target={target:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_cuts_groups_in_visit_order_and_packs_what_it_can() {
        // Visit order 5,1,5,3,1: groups ascend, members keep visit order.
        let idx = index_of(
            [(5, 0), (1, 1), (5, 2), (3, 3), (1, 4)]
                .iter()
                .map(|&(k, n)| vec![Value::Int(k), Value::Int(n)])
                .collect(),
        );
        assert_eq!(idx.keys, [1, 3, 5].map(Value::Int));
        assert_eq!(idx.starts, [0, 2, 3, 5]);
        assert_eq!(idx.int_keys.as_deref(), Some(&[1, 3, 5][..]));
        assert_eq!(
            idx.cells.as_deref(),
            Some(&[1, 1, 1, 4, 3, 3, 5, 0, 5, 2][..]),
            "row-major fields, group-major rows"
        );
        let payload: Vec<i64> = idx.rows.iter().map(|t| t.int(1)).collect();
        assert_eq!(payload, [1, 4, 3, 0, 2]);
        assert_eq!(idx.cells_of(3), Some(&[5, 0][..]));

        // One string payload anywhere: no cells, dense keys stay.
        let mixed = index_of(vec![
            vec![Value::Int(2), Value::Int(0)],
            vec![Value::Int(1), Value::str("x")],
        ]);
        assert!(mixed.int_keys.is_some() && mixed.cells.is_none());
        // One non-integer key: no dense keys (and so no cells either).
        let generic = index_of(vec![vec![Value::Int(2)], vec![Value::Double(0.5)]]);
        assert!(generic.int_keys.is_none() && generic.cells.is_none());
        assert_eq!(generic.keys, [Value::Int(2), Value::Double(0.5)]);
    }

    #[test]
    fn try_from_sorted_rejects_descending_keys() {
        let t = |k: i64| (Value::Int(k), Tuple::new(TableId(0), vec![Value::Int(k)]));
        assert!(ColumnIndex::try_from_sorted(vec![t(1), t(1), t(2)]).is_ok());
        let err = ColumnIndex::try_from_sorted(vec![t(1), t(3), t(2)]);
        assert!(matches!(err, Err(JStarError::Other(m)) if m.contains("position 2")));
    }

    #[test]
    fn merge_suffix_equals_one_build_over_both_batches() {
        let row = |k: i64, n: i64, s: Option<&str>| {
            let last = s.map_or(Value::Int(n), |s| Value::str(s.to_string()));
            Tuple::new(TableId(0), vec![Value::Int(k), Value::Int(n), last])
        };
        // New keys fall below, between, inside and above the old groups.
        let old = [(4, 0), (2, 1), (4, 2), (8, 3)];
        let new = [(1, 4), (4, 5), (5, 6), (9, 7), (2, 8), (9, 9)];
        for unpacked_in_old in [false, true] {
            for unpacked_in_new in [false, true] {
                let s = |on: bool, i: usize| (on && i == 1).then_some("s");
                let mut all: Vec<Tuple> = (old.iter().enumerate())
                    .map(|(i, &(k, n))| row(k, n, s(unpacked_in_old, i)))
                    .collect();
                let cached = ColumnIndex::build(0, &mut |emit| all.iter().for_each(&mut *emit));
                let suffix: Vec<Tuple> = (new.iter().enumerate())
                    .map(|(i, &(k, n))| row(k, n, s(unpacked_in_new, i)))
                    .collect();
                let mut pairs: Vec<(Value, Tuple)> = suffix
                    .iter()
                    .map(|t| (t.get(0).clone(), t.clone()))
                    .collect();
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                let merged = cached.merge_suffix(pairs);
                all.extend(suffix);
                let cold = ColumnIndex::build(0, &mut |emit| all.iter().for_each(&mut *emit));
                assert_eq!(merged, cold, "old={unpacked_in_old} new={unpacked_in_new}");
                assert_eq!(
                    merged.cells.is_some(),
                    !(unpacked_in_old || unpacked_in_new),
                    "cells survive a merge only when both sides are all-integer"
                );
                assert_eq!(merged.approx_bytes(), cold.approx_bytes());
            }
        }
        // Merging into an empty view is a cold build of the suffix.
        let empty = ColumnIndex::build(0, &mut |_| {});
        let t = row(3, 0, None);
        let merged = empty.merge_suffix(vec![(t.get(0).clone(), t.clone())]);
        assert_eq!(merged, ColumnIndex::build(0, &mut |emit| emit(&t)));
    }

    #[test]
    fn approx_bytes_counts_exactly_the_arrays_the_view_owns() {
        // 3 groups, 5 rows of 2 integer fields: dense keys and cells.
        let packed = index(&[1, 1, 2, 3, 3]);
        let handles = 5 * std::mem::size_of::<Tuple>();
        let keys = 3 * std::mem::size_of::<Value>();
        let starts = 4 * 4;
        assert_eq!(
            packed.approx_bytes(),
            keys + starts + handles + 3 * 8 + 5 * 2 * 8
        );
        // String keys: neither mirror exists, and the text is the tuple's.
        let generic = index_of(
            ["a", "a", "b"]
                .iter()
                .map(|s| vec![Value::str(s.to_string())])
                .collect(),
        );
        assert_eq!(
            generic.approx_bytes(),
            2 * std::mem::size_of::<Value>() + 3 * 4 + 3 * std::mem::size_of::<Tuple>()
        );
        assert_eq!(index(&[]).approx_bytes(), 4, "one start, nothing else");
    }
}
