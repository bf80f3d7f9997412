//! Sorted per-column cursors — the seek/next walk surface of the
//! worst-case-optimal join lowering.
//!
//! A [`ColumnIndex`] is an immutable sorted view of one column of a
//! Gamma store, held as a handful of flat arrays (one allocation each,
//! whatever the number of distinct values):
//!
//! * `keys` — every distinct value of the column, ascending;
//! * `starts` — group `g` is `rows[starts[g]..starts[g + 1]]`;
//! * `rows` — the tuple handles, group-major. Each group is ordered by
//!   the row's **next column** — the first field other than the key, in
//!   schema order — with ties in store iteration (journal) order, so
//!   each group is a sorted list of its rows' next-column values: the
//!   neighbour list of Leapfrog Triejoin's trie;
//! * `int_keys` — a dense `i64` copy of `keys`, present when every key
//!   is a `Value::Int`: seeks on an integer target search 8-byte keys
//!   instead of comparing enums;
//! * `int_next` — a dense `i64` copy of every row's next-column value,
//!   present when all of them are `Value::Int`: a join stage whose
//!   equality or lower bound names that column seeks inside the
//!   matched group instead of scanning it (see [`super::leapfrog`]).
//!
//! The two mirrors are all a walk reads of a row besides its tuple: a
//! join pair on the key or the next column compares their integers, and
//! any other field is read from the tuple. They are decided by what the
//! column holds, once, when the view is built; a view never changes
//! after that — a table that has grown gets a new view, built the same
//! way. Every view — a join rule's root, cut from its delta, and every
//! column a cursor open builds, off a claim journal or a custom store's
//! `for_each` (see [`super::Gamma::open_cursor`]) — comes out of one
//! builder, [`build_view`], which builds one view per call, in five
//! rounds on the pool:
//!
//! * **pass** — the input is cut into pieces by position
//!   ([`super::pieces`]: 4 per worker, none under [`super::MIN_PIECE`]),
//!   and each piece packs its rows as it reads them — key, next-column
//!   value, handle — on a worker, noting the span of its integer keys
//!   and next values as it goes;
//! * **split** — when every key and next value of the view is an
//!   integer and their spans pack into one word a row, every piece
//!   counts its rows per bucket, then scatters its words into the
//!   buckets by the high bits of the key, numbering each word by its
//!   place in the bucket (pieces in order, each in pass order, so
//!   positions stay global and ties keep journal or run order). A build
//!   of one piece — without a pool, or of a small input — is one bucket;
//! * **sort** — each bucket is sorted on a worker, and its groups are
//!   counted. A group never straddles two buckets, since buckets split
//!   on key bits only;
//! * **cut** — the view's arrays are allocated at their final lengths,
//!   and each bucket, on a worker, cuts its groups straight into its
//!   share of them: the rows and groups of the buckets before it are
//!   known once every bucket is sorted, so nothing is appended after.
//!
//! A write-once table's seal ([`build_set`]) is the same build of one
//! view over runs packed as they were appended, one piece each, and its
//! sort keeps each bucket a set (see [`Dedup`]).
//!
//! Any other build — of other values, or of integer spans too wide to
//! pack — gathers its pieces into one bucket of `(key, next, position)`
//! values. The view is the same, array for array, however the build was
//! cut (property-tested at 1, 2 and 4 threads). Each view is shared —
//! handed out in an `Arc` — by every worker participating in a walk;
//! each worker positions its own lightweight [`ColumnCursor`] over it.
//! The join walks themselves live in [`super::leapfrog`]. A build takes
//! no lock; it races only the appends to the journal it walks (see
//! CONCURRENCY.md protocol 6).
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
//!   dense and on the generic key representation, and inside a group's
//!   slice of `int_next` (one search routine, instantiated for each).

use super::TableStore;
use crate::error::{JStarError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use jstar_check::sync::Mutex;
use jstar_pool::ThreadPool;
use std::cmp::Ordering;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Arc;

/// An immutable sorted view of one column of a table store: distinct
/// values ascending, each with its group of tuples (ordered by their
/// next column, then store iteration order), plus the dense mirrors
/// described in the module docs. Shared across the workers of one join
/// walk.
#[derive(Debug, PartialEq)]
pub struct ColumnIndex {
    pub(super) keys: Vec<Value>,
    pub(super) starts: Vec<u32>,
    pub(super) rows: Vec<Tuple>,
    pub(super) int_keys: Option<Box<[i64]>>,
    /// The field each group is ordered by: the first one other than the
    /// key (`None` for one-field rows, and while the view is empty).
    pub(super) next: Option<usize>,
    /// `int_next[r]` is row `r`'s `next` field, when all are integers.
    pub(super) int_next: Option<Box<[i64]>>,
}

/// A seek target, or a field a walk compares: an integer (searched on
/// the dense keys when the view has them) or any other value. `Val`
/// never holds a `Value::Int`, and keys order as their values do.
#[derive(Clone, Copy, PartialEq, Eq)]
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

impl Ord for Key<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (*self, *other) {
            (Key::Int(a), Key::Int(b)) => a.cmp(&b),
            (Key::Int(a), Key::Val(b)) => Value::Int(a).cmp(b),
            (Key::Val(a), Key::Int(b)) => a.cmp(&Value::Int(b)),
            (Key::Val(a), Key::Val(b)) => a.cmp(b),
        }
    }
}

impl PartialOrd for Key<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The field a view keyed on `field` orders its groups by, for rows of
/// `width` fields.
fn next_column(field: usize, width: usize) -> Option<usize> {
    let next = usize::from(field == 0);
    (next < width).then_some(next)
}

/// The rows of one piece of a store pass, packed as they are read —
/// each row's key and next-column value and its handle. What every
/// build sorts and cuts; a write-once table's runs are batches too,
/// packed as they are appended.
pub(crate) struct Batch {
    field: usize,
    next: Option<usize>,
    /// Handles by pass position; the cut moves each one out once.
    rows: Vec<Option<Tuple>>,
    records: Records,
}

/// `(key, next)` per row, in pass order: as integers, with their span,
/// while every key and next-column value is an `Int` (a one-field row's
/// next is 0); as values with their pass positions otherwise (its next
/// is `Int(0)`).
enum Records {
    Ints(Vec<(i64, i64)>, Option<Span>),
    Values(Vec<(Value, Value, u32)>),
}

/// The least and the greatest `(key, next)` of some integer records,
/// each taken on its own.
type Span = ((i64, i64), (i64, i64));

/// The span of the records of `a` and of `b`.
fn cover(a: Option<Span>, b: Option<Span>) -> Option<Span> {
    match (a, b) {
        (Some(((k0, n0), (k1, n1))), Some(((l0, m0), (l1, m1)))) => {
            Some(((k0.min(l0), n0.min(m0)), (k1.max(l1), n1.max(m1))))
        }
        (a, b) => a.or(b),
    }
}

/// Bits of the offsets from `lo` of the values up to `hi`.
fn bits_between(lo: i64, hi: i64) -> u32 {
    u64::BITS - (hi.wrapping_sub(lo) as u64).leading_zeros()
}

/// How integer records pack into one `u64` each — the key's and the
/// next value's offsets from their minima and the position, most
/// significant first — so that sorting the words sorts the records.
struct Layout {
    min: (i64, i64),
    /// Bits of the next value's offset, and of the position.
    bits: (u32, u32),
}

impl Layout {
    /// The layout of records whose keys and next values lie in `span`,
    /// at positions below `rows`, when their offsets fit in 64 bits
    /// together.
    fn of(((key_lo, next_lo), (key_hi, next_hi)): Span, rows: usize) -> Option<Layout> {
        let bits = (bits_between(next_lo, next_hi), bits_between(0, rows as i64));
        if bits_between(key_lo, key_hi) + bits.0 + bits.1 > u64::BITS {
            return None;
        }
        Some(Layout {
            min: (key_lo, next_lo),
            bits,
        })
    }

    /// The word of record `(key, next, at)`.
    fn word(&self, key: i64, next: i64, at: u32) -> u64 {
        let offset = |v: i64, min: i64, shift: u32| (v.wrapping_sub(min) as u64).checked_shl(shift);
        let (next_bits, pos_bits) = self.bits;
        let key = offset(key, self.min.0, next_bits + pos_bits).unwrap_or(0);
        key | offset(next, self.min.1, pos_bits).unwrap_or(0) | u64::from(at)
    }

    /// The record packed in `word`.
    fn unpack(&self, word: u64) -> (i64, i64, usize) {
        let low = |word: u64, bits: u32| word & u64::MAX.checked_shr(u64::BITS - bits).unwrap_or(0);
        let (next_bits, pos_bits) = self.bits;
        let key = word.checked_shr(next_bits + pos_bits).unwrap_or(0);
        let next = low(word >> pos_bits, next_bits);
        (
            self.min.0.wrapping_add(key as i64),
            self.min.1.wrapping_add(next as i64),
            low(word, pos_bits) as usize,
        )
    }
}

impl Batch {
    /// An empty batch of rows to be keyed on `field`, with room for
    /// `rows` rows.
    pub(crate) fn new(field: usize, rows: usize) -> Batch {
        Batch {
            field,
            next: None,
            rows: Vec::with_capacity(rows),
            records: Records::Ints(Vec::with_capacity(rows), None),
        }
    }

    /// Rows in the batch.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Packs `t` as the next row.
    pub(crate) fn push(&mut self, t: Tuple) {
        if self.rows.is_empty() {
            self.next = next_column(self.field, t.arity());
        }
        let fields = t.fields();
        let (key, next) = (&fields[self.field], self.next.map(|n| &fields[n]));
        if let Records::Ints(ints, span) = &mut self.records {
            let int = match (key, next) {
                (Value::Int(k), None) => Some((*k, 0)),
                (Value::Int(k), Some(Value::Int(n))) => Some((*k, *n)),
                _ => None,
            };
            match int {
                Some(record) => {
                    ints.push(record);
                    *span = cover(*span, Some((record, record)));
                }
                None => self.records = Records::Values(widened(ints, 0).collect()),
            }
        }
        if let Records::Values(values) = &mut self.records {
            let next = next.cloned().unwrap_or(Value::Int(0));
            values.push((key.clone(), next, self.rows.len() as u32));
        }
        self.rows.push(Some(t));
    }
}

/// Integer records from pass position `base` on, as values with their
/// positions.
fn widened(ints: &[(i64, i64)], base: u32) -> impl Iterator<Item = (Value, Value, u32)> + '_ {
    (ints.iter().zip(base..)).map(|(&(k, n), at)| (Value::Int(k), Value::Int(n), at))
}

/// Where the rows of one view come from.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// A join rule's delta, in run order.
    Rows(&'a [&'a Tuple]),
    /// The live rows at a store's claim-journal positions `[0, hi)`.
    Journal(&'a dyn TableStore, usize),
    /// One [`TableStore::for_each`] pass: a custom store's, which keeps
    /// no journal to cut, so always one piece.
    Pass(&'a dyn TableStore),
    /// Rows the build takes over, packed already, one batch per piece
    /// (a write-once table's runs, at its seal): the pass takes each
    /// batch as it stands, and reads no row.
    Runs(&'a [Mutex<Batch>]),
}

impl Source<'_> {
    /// Input positions the pass walks: what it is cut by.
    fn len(&self) -> usize {
        match *self {
            Source::Rows(rows) => rows.len(),
            Source::Journal(_, hi) => hi,
            Source::Pass(_) => 0,
            Source::Runs(_) => 0,
        }
    }

    /// How many pieces the pass over this source is cut into.
    fn pieces(&self, pool: Option<&ThreadPool>) -> usize {
        match *self {
            Source::Pass(_) => 1,
            Source::Runs(runs) => runs.len().max(1),
            source => super::pieces(pool, source.len()),
        }
    }

    /// Input positions `[lo, hi)` of piece `i` of `n` even pieces.
    fn cut(&self, i: usize, n: usize) -> (usize, usize) {
        (self.len() * i / n, self.len() * (i + 1) / n)
    }

    /// Piece `i` of `n` of the pass, packed into `batch`, and whether an
    /// append still in flight cut it short.
    fn pass(&self, mut batch: Batch, i: usize, n: usize) -> (Batch, bool) {
        let (lo, hi) = self.cut(i, n);
        let cut_short = match *self {
            Source::Runs(runs) => return (std::mem::replace(&mut *runs[i].lock(), batch), false),
            Source::Rows(rows) => {
                rows[lo..hi].iter().for_each(|t| batch.push((*t).clone()));
                false
            }
            Source::Journal(store, _) => {
                store.for_each_journal_suffix(lo, hi, &mut |t| batch.push(t.clone())) < hi
            }
            Source::Pass(store) => {
                store.for_each(&mut |t| {
                    batch.push(t.clone());
                    true
                });
                false
            }
        };
        (batch, cut_short)
    }
}

/// Runs `tasks` on `pool`, or in order on the calling thread without
/// one; results in task order.
fn on_pool<R: Send>(pool: Option<&ThreadPool>, tasks: Vec<impl FnOnce() -> R + Send>) -> Vec<R> {
    match pool {
        Some(pool) => jstar_pool::parallel_tasks(pool, tasks),
        None => tasks.into_iter().map(|task| task()).collect(),
    }
}

/// Builds the view of `field` over `source` (see the
/// [module docs](self)). Five rounds on `pool`: the pass; when the build
/// splits, a count of each piece's rows per bucket, then a scatter of
/// each piece into its buckets; the sort of every bucket; and its cut
/// into the view. A journal piece that an append in flight cut short
/// (see [`TableStore::for_each_journal_suffix`]) ends the build: the
/// pieces after it are dropped, as a one-piece walk would have stopped
/// there.
///
/// The arrays a round fills on workers are allocated here, on the
/// calling thread — unwritten, so the workers fault their pages in —
/// and freed as soon as the next round is done with them: the build's
/// memory comes and goes in one allocator arena, not one per worker.
pub(crate) fn build_view(
    source: Source<'_>,
    field: usize,
    pool: Option<&ThreadPool>,
) -> ColumnIndex {
    build(source, field, None, pool).0
}

/// How a build keeps its rows a set: of the rows that share their first
/// `key` fields — all of them, for a keyless table — one is kept, the
/// row `kept` holds or else the least, and each other one is dropped, as
/// a repeat of it or a `->` conflict with it. The view's rows are then
/// in tuple order, ties on key and next column too.
#[derive(Clone, Copy)]
pub(crate) struct Dedup<'a> {
    pub key: usize,
    /// The rows an earlier build kept, which keep their keys.
    pub kept: Option<&'a ColumnIndex>,
}

/// What a build that keeps its rows a set dropped.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SealReport {
    /// Rows that repeat a kept row.
    pub dups: u64,
    /// Rows dropped for breaking the `->` key of a kept row.
    pub conflicts: Vec<Tuple>,
}

impl SealReport {
    /// Rows dropped.
    pub fn rejected(&self) -> usize {
        self.dups as usize + self.conflicts.len()
    }

    /// Adds what another build dropped.
    pub fn add(&mut self, other: SealReport) {
        self.dups += other.dups;
        self.conflicts.extend(other.conflicts);
    }
}

/// The column-0 view of `source`'s rows, kept a set by `dedup` — a
/// write-once table's runs (see [`Source::Runs`]), or the rows a restore
/// imports — built on `pool`, with what it dropped.
pub(crate) fn build_set(
    source: Source<'_>,
    dedup: Dedup<'_>,
    pool: Option<&ThreadPool>,
) -> (ColumnIndex, SealReport) {
    build(source, 0, Some(dedup), pool)
}

/// [`build_view`], kept a set when there is a [`Dedup`].
fn build(
    source: Source<'_>,
    field: usize,
    dedup: Option<Dedup<'_>>,
    pool: Option<&ThreadPool>,
) -> (ColumnIndex, SealReport) {
    // Round 1: the pass.
    let n = source.pieces(pool);
    let tasks = (0..n)
        .map(|i| {
            let (lo, hi) = source.cut(i, n);
            let batch = Batch::new(field, hi - lo);
            move || source.pass(batch, i, n)
        })
        .collect();
    let mut pieces = Vec::with_capacity(n);
    for (batch, cut_short) in on_pool(pool, tasks) {
        pieces.push(batch);
        if cut_short {
            break;
        }
    }
    let rows: usize = pieces.iter().map(Batch::len).sum();
    assert!(
        rows < u32::MAX as usize,
        "ColumnIndex holds at most u32::MAX rows"
    );

    // Rounds 2 and 3, when the build splits: each piece's rows counted
    // per bucket, then scattered into its buckets.
    let split = Split::of(&pieces, pieces.len().max(super::pieces(pool, rows)));
    let mut scattered = split.map(|split| split.gather(std::mem::take(&mut pieces), pool));

    // Round 4: each bucket sorted and its groups counted — a build that
    // was not split is one bucket, its pieces gathered in order.
    let buckets = match &mut scattered {
        Some(scattered) => scattered.buckets(),
        None => vec![Bucket::whole(pieces)],
    };
    let tasks = (buckets.into_iter())
        .map(|mut bucket| {
            move || {
                let (groups, report) = bucket.sort(dedup);
                (bucket, groups, report)
            }
        })
        .collect();
    let mut report = SealReport::default();
    let sorted: Vec<(Bucket<'_>, usize)> = (on_pool(pool, tasks).into_iter())
        .map(|(bucket, groups, dropped)| {
            report.add(dropped);
            (bucket, groups)
        })
        .collect();

    // Round 5: the view's arrays allocated at their final lengths, and
    // every bucket cut straight into its share of them — the rows and
    // groups before a bucket are known once the buckets are sorted.
    let rows = sorted.iter().map(|(b, _)| b.len()).sum();
    let groups = sorted.iter().map(|(_, g)| g).sum();
    let mut arrays = Arrays::new(sorted.iter().find_map(|(b, _)| b.next()), groups, rows);
    let shares = arrays.shares(sorted.iter().map(|(b, g)| (b.len(), *g)));
    let tasks = (sorted.into_iter().zip(shares))
        .map(|((bucket, _), share)| move || bucket.cut(share))
        .collect();
    let dense = on_pool(pool, tasks);
    // Every row has been moved into the view: free the buckets before
    // it is assembled.
    drop(scattered);
    (arrays.finish(dense), report)
}

/// `slice` cut into consecutive parts of `sizes`.
fn carve<T>(mut slice: &mut [T], sizes: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let part = |n| {
        let (part, rest) = std::mem::take(&mut slice).split_at_mut(n);
        slice = rest;
        part
    };
    sizes.map(part).collect()
}

/// The arrays a split build's pieces are scattered into: its buckets end
/// to end, `sizes` rows each.
struct Scattered {
    split: Split,
    words: Vec<u64>,
    rows: Vec<Option<Tuple>>,
    sizes: Vec<usize>,
}

impl Scattered {
    /// The buckets, each to be sorted and cut by a task of its own.
    fn buckets(&mut self) -> Vec<Bucket<'_>> {
        let Scattered {
            split,
            words,
            rows,
            sizes,
        } = self;
        let words = carve(words, sizes.iter().copied());
        let rows = carve(rows, sizes.iter().copied());
        (words.into_iter().zip(rows))
            .map(|(words, rows)| Bucket::Split {
                split,
                len: words.len(),
                words,
                rows,
            })
            .collect()
    }
}

/// What one task of the last round sorts and cuts.
enum Bucket<'a> {
    /// A build that was not split: its pieces' rows in order, and their
    /// records as values, numbered across the pieces.
    Whole {
        next: Option<usize>,
        rows: Vec<Option<Tuple>>,
        values: Vec<(Value, Value, u32)>,
    },
    /// One bucket of a split build: `words[..len]` are its rows' words.
    Split {
        split: &'a Split,
        words: &'a mut [u64],
        rows: &'a mut [Option<Tuple>],
        len: usize,
    },
}

impl Bucket<'_> {
    /// The pieces of a build that is not split, gathered in order into
    /// one bucket.
    fn whole(pieces: Vec<Batch>) -> Self {
        let total = pieces.iter().map(Batch::len).sum();
        let (mut rows, mut values) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let mut next = None;
        for piece in pieces {
            let base = rows.len() as u32;
            next = next.or(piece.next);
            match piece.records {
                Records::Ints(ints, _) => values.extend(widened(&ints, base)),
                Records::Values(v) => {
                    values.extend(v.into_iter().map(|(k, n, at)| (k, n, base + at)))
                }
            }
            rows.extend(piece.rows);
        }
        Bucket::Whole { next, rows, values }
    }

    /// Rows in the bucket: once a sort has kept it a set, the rows it
    /// kept.
    fn len(&self) -> usize {
        match self {
            Bucket::Whole { values, .. } => values.len(),
            Bucket::Split { len, .. } => *len,
        }
    }

    /// The field the bucket's groups are ordered by.
    fn next(&self) -> Option<usize> {
        match self {
            Bucket::Whole { next, .. } => *next,
            Bucket::Split { split, .. } => split.next,
        }
    }

    /// Sorts the bucket into view order — by key, then next column,
    /// then pass position: a total order, so the unstable sort keeps
    /// equal rows in the order they were read — and, with a `dedup`,
    /// keeps it a set (see [`Dedup`]: a group never straddles two
    /// buckets, so neither does a key); returns how many groups it
    /// holds, and what it dropped.
    fn sort(&mut self, dedup: Option<Dedup<'_>>) -> (usize, SealReport) {
        let mut report = SealReport::default();
        let groups = match self {
            Bucket::Whole { values, rows, .. } => {
                values.sort_unstable();
                if let Some(dedup) = dedup {
                    let one_key = |a: &(Value, Value, u32), b: &(Value, Value, u32)| {
                        a.0 == b.0 && (dedup.key <= 1 || a.1 == b.1)
                    };
                    let at = |r: &(Value, Value, u32)| r.2 as usize;
                    let kept = settle(values, one_key, at, rows, dedup, &mut report);
                    values.truncate(kept);
                }
                groups(values.iter().map(|(k, _, _)| k))
            }
            Bucket::Split {
                split,
                words,
                rows,
                len,
            } => {
                words.sort_unstable();
                if let Some(dedup) = dedup {
                    let layout = &split.layout;
                    let one_key = |&a: &u64, &b: &u64| {
                        let ((ka, na, _), (kb, nb, _)) = (layout.unpack(a), layout.unpack(b));
                        ka == kb && (dedup.key <= 1 || na == nb)
                    };
                    let at = |&w: &u64| layout.unpack(w).2;
                    *len = settle(words, one_key, at, rows, dedup, &mut report);
                }
                groups(words[..*len].iter().map(|&w| split.layout.unpack(w).0))
            }
        };
        (groups, report)
    }

    /// Cuts the sorted bucket into `share`; whether its keys and its
    /// next-column values were all integers.
    fn cut(self, share: Share<'_>) -> (bool, bool) {
        let cut = match self {
            Bucket::Whole {
                mut rows, values, ..
            } => {
                let records = values.into_iter().map(|(k, n, at)| (k, n, at as usize));
                share.cut(records, &mut rows)
            }
            Bucket::Split {
                split,
                words,
                rows,
                len,
            } => share.cut(words[..len].iter().map(|&w| split.layout.unpack(w)), rows),
        };
        match cut {
            Ok(dense) => dense,
            Err(e) => unreachable!("the bucket is sorted and counted before it is cut: {e}"),
        }
    }
}

/// How many runs of equal keys `keys` holds.
fn groups<K: PartialEq>(keys: impl Iterator<Item = K>) -> usize {
    let (mut last, mut runs) = (None, 0);
    for k in keys {
        if last.as_ref() != Some(&k) {
            (last, runs) = (Some(k), runs + 1);
        }
    }
    runs
}

/// The fields of the row at pass position `at` of a batch.
fn fields_at(rows: &[Option<Tuple>], at: usize) -> &[Value] {
    rows[at].as_ref().map_or(&[], Tuple::fields)
}

/// Keeps `records` — sorted into view order, each naming its row's pass
/// position in `rows` (`at`) — a set, as `dedup` says. Only the runs of
/// records `one_key` may put under one key (equal keys, and next values
/// too for a key of two or more fields) are looked at: each is put in
/// row order, and of the rows sharing the key fields one is kept and the
/// others' handles are taken out of `rows` and reported. The records of
/// the rows kept are moved to the front, in order; returns how many.
fn settle<R>(
    records: &mut [R],
    one_key: impl Fn(&R, &R) -> bool,
    at: impl Fn(&R) -> usize,
    rows: &mut [Option<Tuple>],
    dedup: Dedup<'_>,
    report: &mut SealReport,
) -> usize {
    let mut dropped = false;
    let mut i = 0;
    while i < records.len() {
        let run = 1 + records[i + 1..]
            .iter()
            .take_while(|r| one_key(&records[i], r))
            .count();
        if run > 1 {
            let part = &mut records[i..i + run];
            part.sort_by(|a, b| fields_at(rows, at(a)).cmp(fields_at(rows, at(b))));
            let mut s = 0;
            while s < run {
                let key =
                    |r: &R| &fields_at(rows, at(r))[..dedup.key.min(fields_at(rows, at(r)).len())];
                let e = s
                    + 1
                    + part[s + 1..]
                        .iter()
                        .take_while(|r| key(r) == key(&part[s]))
                        .count();
                let holds = |r: &R| {
                    let t = fields_at(rows, at(r));
                    (dedup.kept)
                        .is_some_and(|v| v.rows.binary_search_by(|k| k.fields().cmp(t)).is_ok())
                };
                let kept = at(&part[s + (part[s..e].iter().position(holds).unwrap_or(0))]);
                for r in &part[s..e] {
                    if at(r) == kept {
                        continue;
                    }
                    let Some(t) = rows[at(r)].take() else {
                        continue;
                    };
                    if rows[kept].as_ref() == Some(&t) {
                        report.dups += 1;
                    } else {
                        report.conflicts.push(t);
                    }
                    dropped = true;
                }
                s = e;
            }
        }
        i += run;
    }
    if !dropped {
        return records.len();
    }
    let mut kept = 0;
    for r in 0..records.len() {
        if rows[at(&records[r])].is_some() {
            records.swap(kept, r);
            kept += 1;
        }
    }
    kept
}

/// How the pieces of an all-integer build are split: into `buckets`
/// buckets of words packed by one [`Layout`] for the whole build, by
/// the high bits of each key's offset from the build's least key — so a
/// group never straddles two buckets.
struct Split {
    layout: Layout,
    /// A word's bucket is `word >> shift`: its key offset's high bits.
    shift: u32,
    buckets: usize,
    next: Option<usize>,
}

/// One piece's share of one bucket: where its scatter writes, and the
/// bucket position of the share's first row.
struct Region<'a> {
    words: &'a mut [MaybeUninit<u64>],
    rows: &'a mut [MaybeUninit<Option<Tuple>>],
    base: u32,
}

impl Split {
    /// The split of one build's `pieces` into about `buckets` buckets
    /// (rounded up to a power of two), when it has rows, all of them
    /// integer records, and their spans pack into words.
    fn of(pieces: &[Batch], buckets: usize) -> Option<Split> {
        let mut span = None;
        for piece in pieces {
            let Records::Ints(_, piece_span) = &piece.records else {
                return None;
            };
            span = cover(span, *piece_span);
        }
        let span = span?;
        let layout = Layout::of(span, pieces.iter().map(Batch::len).sum())?;
        let buckets = buckets.next_power_of_two();
        let key_bits = bits_between(span.0 .0, span.1 .0);
        Some(Split {
            shift: layout.bits.0
                + layout.bits.1
                + key_bits.saturating_sub(buckets.trailing_zeros()),
            layout,
            buckets,
            next: pieces.iter().find_map(|p| p.next),
        })
    }

    /// The bucket of a record's word.
    fn bucket(&self, word: u64) -> usize {
        word.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// Rounds 2 and 3 of a build that splits: how many rows of each of
    /// `pieces` fall in each bucket, then each piece moved into its
    /// share of every bucket — both on `pool`, one task a piece — into
    /// arrays allocated here that hold the buckets end to end.
    fn gather(self, pieces: Vec<Batch>, pool: Option<&ThreadPool>) -> Scattered {
        let split = &self;
        let tasks = pieces
            .iter()
            .map(|piece| move || split.count(piece))
            .collect();
        let per_piece: Vec<Vec<usize>> = on_pool(pool, tasks);
        let sizes: Vec<usize> = (0..self.buckets)
            .map(|b| per_piece.iter().map(|c| c[b]).sum())
            .collect();
        let total = sizes.iter().sum();
        let (mut words, mut rows) = (Vec::with_capacity(total), Vec::with_capacity(total));
        // Bucket by bucket, each piece's share, in piece order.
        let shares = (0..self.buckets).flat_map(|b| per_piece.iter().map(move |c| c[b]));
        let word_parts = carve(&mut words.spare_capacity_mut()[..total], shares.clone());
        let row_parts = carve(&mut rows.spare_capacity_mut()[..total], shares.clone());
        let mut regions: Vec<Vec<Region<'_>>> = pieces.iter().map(|_| Vec::new()).collect();
        let mut base = 0;
        let parts = word_parts.into_iter().zip(row_parts).zip(shares);
        for (i, ((words, rows), n)) in parts.enumerate() {
            let piece = i % pieces.len();
            if piece == 0 {
                base = 0;
            }
            regions[piece].push(Region { words, rows, base });
            base += n as u32;
        }
        let tasks = (pieces.into_iter().zip(regions))
            .map(|(piece, regions)| move || split.scatter(piece, regions))
            .collect();
        let filled = on_pool(pool, tasks);
        assert!(filled.into_iter().all(|f| f), "a scatter fills its regions");
        // SAFETY: the regions carved out of `[0, total)` of each array's
        // spare capacity tile it, and every scatter reported its regions
        // filled — each slot written exactly once.
        unsafe {
            words.set_len(total);
            rows.set_len(total);
        }
        Scattered {
            split: self,
            words,
            rows,
            sizes,
        }
    }

    /// How many of `piece`'s rows fall in each bucket.
    fn count(&self, piece: &Batch) -> Vec<usize> {
        let mut counts = vec![0; self.buckets];
        match &piece.records {
            Records::Ints(ints, _) if self.buckets > 1 => {
                for &(k, n) in ints {
                    counts[self.bucket(self.layout.word(k, n, 0))] += 1;
                }
            }
            _ => counts[0] = piece.len(),
        }
        counts
    }

    /// Moves `piece`'s rows into its `regions`, one per bucket, in pass
    /// order, each row's word numbered by its bucket position; true when
    /// the rows filled every region exactly.
    fn scatter(&self, piece: Batch, mut regions: Vec<Region<'_>>) -> bool {
        let Records::Ints(ints, _) = piece.records else {
            return false;
        };
        let mut filled = vec![0; regions.len()];
        for ((k, n), row) in ints.into_iter().zip(piece.rows) {
            let word = self.layout.word(k, n, 0);
            let b = self.bucket(word);
            let (region, i) = (&mut regions[b], filled[b]);
            filled[b] += 1;
            region.words[i].write(word | u64::from(region.base + i as u32));
            region.rows[i].write(row);
        }
        (regions.iter().zip(filled)).all(|(region, n)| region.words.len() == n)
    }
}

/// `v` as an integer, when it is one.
fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// The row at pass position `at` of a batch, moved out: each record
/// names its position once.
fn take(rows: &mut [Option<Tuple>], at: usize) -> Tuple {
    // lint: allow(expect): a batch's records name each position once.
    rows[at].take().expect("each batch row is cut once")
}

/// One view's arrays, allocated at their final capacities before any
/// bucket is cut into them. The buckets write them in place, on the
/// workers, so each stays empty until every cut has returned.
struct Arrays {
    keys: Vec<Value>,
    int_keys: Vec<i64>,
    starts: Vec<u32>,
    rows: Vec<Tuple>,
    next: Option<usize>,
    /// Room for one entry a row when there is a next column.
    int_next: Vec<i64>,
    /// The view's groups and rows.
    size: (usize, usize),
}

/// One bucket's share of a view's [`Arrays`]: its groups' slots, and its
/// rows' — the first of which is row `base` of the view.
struct Share<'a> {
    keys: &'a mut [MaybeUninit<Value>],
    int_keys: &'a mut [MaybeUninit<i64>],
    starts: &'a mut [MaybeUninit<u32>],
    rows: &'a mut [MaybeUninit<Tuple>],
    /// Empty when there is no next column.
    int_next: &'a mut [MaybeUninit<i64>],
    base: u32,
}

impl Arrays {
    /// The arrays of a view of `rows` rows in `groups` groups, ordered by
    /// `next`.
    fn new(next: Option<usize>, groups: usize, rows: usize) -> Arrays {
        // `starts` is u32: half the bytes of usize offsets on the array
        // every group lookup reads.
        assert!(
            rows <= u32::MAX as usize,
            "ColumnIndex holds at most u32::MAX rows"
        );
        Arrays {
            keys: Vec::with_capacity(groups),
            int_keys: Vec::with_capacity(groups),
            starts: Vec::with_capacity(groups + 1),
            rows: Vec::with_capacity(rows),
            next,
            int_next: Vec::with_capacity(if next.is_some() { rows } else { 0 }),
            size: (groups, rows),
        }
    }

    /// The arrays cut into one share per `(rows, groups)` part, in order.
    fn shares(&mut self, parts: impl Iterator<Item = (usize, usize)>) -> Vec<Share<'_>> {
        let parts: Vec<(usize, usize)> = parts.collect();
        let total = parts.iter().map(|&(rows, _)| rows).sum();
        let rows_of = || parts.iter().map(|&(rows, _)| rows);
        let groups_of = || parts.iter().map(|&(_, groups)| groups);
        let with_next = usize::from(self.next.is_some());
        let groups = self.size.0;
        let keys = carve(&mut self.keys.spare_capacity_mut()[..groups], groups_of());
        let int_keys = carve(
            &mut self.int_keys.spare_capacity_mut()[..groups],
            groups_of(),
        );
        let starts = carve(&mut self.starts.spare_capacity_mut()[..groups], groups_of());
        let rows = carve(&mut self.rows.spare_capacity_mut()[..total], rows_of());
        let int_next = carve(
            &mut self.int_next.spare_capacity_mut()[..total * with_next],
            rows_of().map(|n| n * with_next),
        );
        let mut base = 0;
        (keys
            .into_iter()
            .zip(int_keys)
            .zip(starts)
            .zip(rows)
            .zip(int_next))
        .map(|((((keys, int_keys), starts), rows), int_next)| {
            let share = Share {
                keys,
                int_keys,
                starts,
                base,
                int_next,
                rows,
            };
            base += share.rows.len() as u32;
            share
        })
        .collect()
    }

    /// The view, once every share has been cut; `dense` holds each
    /// share's cut's answer to whether its keys, and its next-column
    /// values, were all integers.
    fn finish(mut self, dense: impl IntoIterator<Item = (bool, bool)>) -> ColumnIndex {
        let (dense_keys, dense_next) =
            (dense.into_iter()).fold((true, true), |(k, n), (dk, dn)| (k && dk, n && dn));
        let (groups, rows) = self.size;
        self.starts.spare_capacity_mut()[groups].write(rows as u32);
        // SAFETY: the shares tile `[0, groups)` / `[0, rows)` of the
        // spare capacities, and each cut returned Ok only once it wrote
        // every key, start and row slot of its share — and every dense
        // key (next) slot when it reports them all integers; the last
        // start is written above.
        unsafe {
            self.keys.set_len(groups);
            self.starts.set_len(groups + 1);
            self.rows.set_len(rows);
            if dense_keys {
                self.int_keys.set_len(groups);
            }
            if dense_next && self.next.is_some() {
                self.int_next.set_len(rows);
            }
        }
        ColumnIndex {
            keys: self.keys,
            starts: self.starts,
            rows: self.rows,
            int_keys: dense_keys.then(|| self.int_keys.into_boxed_slice()),
            next: self.next,
            int_next: (self.next.is_some() && dense_next).then(|| self.int_next.into_boxed_slice()),
        }
    }
}

impl Share<'_> {
    /// Cuts `records` — `(key, next, position)` in view order (keys
    /// ascending, each key's rows by next-column value, ties in the
    /// order the group should keep), positions into `rows` — into the
    /// share's groups: the one cut every build ends in. `V` is `i64` for
    /// packed words, so the common all-integer cut compares plain
    /// integers, and [`Value`] otherwise. The order, and that the
    /// records fill the share exactly, are verified in release builds
    /// too (two comparisons a row, beside the one the cut makes anyway):
    /// a violation comes back as a typed error, with the share left
    /// unwritten, instead of silently corrupting every later seek.
    /// Returns whether the keys, and the next-column values, were all
    /// integers.
    fn cut<V: Ord + Clone + Into<Value>>(
        self,
        records: impl Iterator<Item = (V, V, usize)>,
        rows: &mut [Option<Tuple>],
    ) -> Result<(bool, bool)> {
        let (mut dense_keys, mut dense_next) = (true, true);
        let (mut groups, mut written) = (0, 0);
        let mut last: Option<(V, V)> = None;
        let mut failure = None;
        for (i, (key, next, at)) in records.enumerate() {
            let fail = |why: String| {
                Some(JStarError::Other(format!(
                    "Share::cut: {why} at position {i}"
                )))
            };
            match &last {
                Some((k, n)) if k.cmp(&key).then(n.cmp(&next)).is_gt() => {
                    failure = fail(format!(
                        "rows not in view order (key {:?} after {:?})",
                        key.into(),
                        k.clone().into()
                    ));
                    break;
                }
                Some((k, _)) if *k == key => {}
                _ if groups == self.keys.len() || written == self.rows.len() => {
                    failure = fail("more groups than the share holds".into());
                    break;
                }
                _ => {
                    let key: Value = key.clone().into();
                    self.starts[groups].write(self.base + written as u32);
                    match key {
                        Value::Int(i) => _ = self.int_keys[groups].write(i),
                        _ => dense_keys = false,
                    }
                    self.keys[groups].write(key);
                    groups += 1;
                }
            }
            if written == self.rows.len() {
                failure = fail("more rows than the share holds".into());
                break;
            }
            if let Some(slot) = self.int_next.get_mut(written) {
                match int_of(&next.clone().into()) {
                    Some(n) => _ = slot.write(n),
                    None => dense_next = false,
                }
            }
            self.rows[written].write(take(rows, at));
            written += 1;
            last = Some((key, next));
        }
        if failure.is_none() && (groups, written) != (self.keys.len(), self.rows.len()) {
            failure = Some(JStarError::Other(format!(
                "Share::cut: {written} rows in {groups} groups for a share of {} in {}",
                self.rows.len(),
                self.keys.len()
            )));
        }
        match failure {
            None => Ok((dense_keys, dense_next)),
            Some(e) => {
                // SAFETY: this call wrote each of the first `written` row
                // slots and `groups` key slots once, above; dropping them
                // leaves the share unwritten, as `Arrays::finish` is
                // never reached.
                unsafe {
                    self.rows[..written]
                        .iter_mut()
                        .for_each(|r| r.assume_init_drop());
                    self.keys[..groups]
                        .iter_mut()
                        .for_each(|k| k.assume_init_drop());
                }
                Err(e)
            }
        }
    }
}

impl ColumnIndex {
    /// The view of no rows, as a build over none returns it: one start,
    /// and dense keys, all zero of them.
    pub(crate) fn empty() -> ColumnIndex {
        ColumnIndex {
            keys: Vec::new(),
            starts: vec![0],
            rows: Vec::new(),
            int_keys: Some(Box::new([])),
            next: None,
            int_next: None,
        }
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

    /// The row positions of `key`'s group; empty when the column does
    /// not hold it.
    pub(super) fn group_of(&self, key: &Value) -> Range<usize> {
        let g = match (&self.int_keys, key) {
            (Some(dense), Value::Int(i)) => first_at_least(dense, *i),
            _ => self.keys.partition_point(|k| k < key),
        };
        if self.key_is(g, Key::of(key)) {
            self.group_range(g)
        } else {
            0..0
        }
    }

    /// True when group position `g` exists and its key equals `target`.
    pub(super) fn key_is(&self, g: usize, target: Key<'_>) -> bool {
        g < self.len() && self.key_at(g) == target
    }
}

/// The first position of ascending `keys` whose key is `>= target`,
/// found by guessing it from where `target` falls between the least and
/// the greatest key — as if the keys were spread evenly, which a
/// table's integer ids mostly are — and widening a window around the
/// guess until it brackets the target: a few probes for evenly spread
/// keys, a binary search's worth for skewed ones.
fn first_at_least(keys: &[i64], target: i64) -> usize {
    let (Some(&least), Some(&most)) = (keys.first(), keys.last()) else {
        return 0;
    };
    if target <= least {
        return 0;
    }
    if target > most {
        return keys.len();
    }
    // `least < target <= most`, so the span is not zero.
    let (last, span) = (keys.len() - 1, u128::from(most.abs_diff(least)));
    let guess = (u128::from(target.abs_diff(least)) * last as u128 / span) as usize;
    let mut width = 1;
    loop {
        let (lo, hi) = (guess.saturating_sub(width), (guess + width).min(last));
        if keys[lo] < target && target <= keys[hi] {
            return lo + 1 + keys[lo + 1..=hi].partition_point(|&k| k < target);
        }
        width *= 2;
    }
}

/// The one search routine behind every seek, on either key
/// representation and inside a group. Already at-or-past the target:
/// free. One step away: one constant-time advance. Anything further —
/// forward *or* backward (later join stages seek in data order, not
/// sorted order) — is a counted search, reported by returning true.
pub(super) fn seek_sorted<K: Ord>(keys: &[K], pos: &mut usize, target: &K) -> bool {
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
    use proptest::prelude::*;

    /// The view of `field` over `rows`, built as one piece: rows with
    /// equal key and next-column values keep their order in `rows`.
    pub fn view_of(field: usize, rows: &[Tuple]) -> ColumnIndex {
        let rows: Vec<&Tuple> = rows.iter().collect();
        build_view(Source::Rows(&rows), field, None)
    }

    /// `(key, payload)` rows in the given order; the key is column 0.
    fn index_of(rows: Vec<Vec<Value>>) -> Arc<ColumnIndex> {
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|f| Tuple::new(TableId(0), f))
            .collect();
        Arc::new(view_of(0, &tuples))
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
    fn group_lookups_land_where_a_binary_search_does() {
        // Evenly spread, clustered, extreme and single keys: every
        // target in and around them finds the first key at or above it.
        let cases: Vec<Vec<i64>> = vec![
            (0..500).map(|i| 3 * i).collect(),
            (0..200)
                .map(|i| if i < 190 { i } else { 1_000_000 + i })
                .collect(),
            vec![i64::MIN, -5, 0, 7, i64::MAX],
            vec![42],
        ];
        for keys in &cases {
            let mut targets: Vec<i64> = keys
                .iter()
                .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
                .collect();
            targets.extend([i64::MIN, i64::MAX, 0, 1_000_195]);
            for &t in &targets {
                assert_eq!(
                    first_at_least(keys, t),
                    keys.partition_point(|&k| k < t),
                    "{t}"
                );
            }
        }
        assert_eq!(first_at_least(&[], 3), 0);
        let idx = index(&[5, 5, 9, 12]);
        assert_eq!(idx.group_of(&Value::Int(5)), 0..2);
        assert_eq!(idx.group_of(&Value::Int(6)), 0..0);
        assert_eq!(idx.group_of(&Value::Int(12)), 3..4);
        assert_eq!(idx.group_of(&Value::str("x")), 0..0);
    }

    #[test]
    fn build_cuts_groups_in_visit_order_and_packs_what_it_can() {
        // `(key, next, id)` rows visited in this order: groups ascend by
        // key, each group ascends by its next column (field 1), and the
        // two `(5, 2)` rows keep visit order (ids 0 then 5).
        let idx = index_of(
            [
                (5, 2, 0),
                (1, 4, 1),
                (5, 0, 2),
                (3, 3, 3),
                (1, 1, 4),
                (5, 2, 5),
            ]
            .iter()
            .map(|&(k, n, id)| vec![Value::Int(k), Value::Int(n), Value::Int(id)])
            .collect(),
        );
        assert_eq!(idx.keys, [1, 3, 5].map(Value::Int));
        assert_eq!(idx.starts, [0, 2, 3, 6]);
        assert_eq!(idx.int_keys.as_deref(), Some(&[1, 3, 5][..]));
        assert_eq!(idx.next, Some(1));
        assert_eq!(idx.int_next.as_deref(), Some(&[1, 4, 3, 0, 2, 2][..]));
        let ids: Vec<i64> = idx.rows.iter().map(|t| t.int(2)).collect();
        assert_eq!(ids, [4, 1, 3, 2, 0, 5]);
        // A view keyed on a later column is ordered by column 0.
        assert_eq!(view_of(2, &idx.rows).next, Some(0));

        // One string payload anywhere: the dense keys and the dense
        // next column stay.
        let mixed = index_of(vec![
            vec![Value::Int(2), Value::Int(0), Value::Int(0)],
            vec![Value::Int(1), Value::Int(0), Value::str("x")],
        ]);
        assert!(mixed.int_keys.is_some() && mixed.int_next.is_some());
        // A string next column: groups still ascend by it, unmirrored.
        let text = index_of(
            ["b", "a", "c"]
                .iter()
                .map(|s| vec![Value::Int(0), Value::str(s.to_string())])
                .collect(),
        );
        assert!(text.int_next.is_none());
        let order: Vec<&Value> = text.rows.iter().map(|t| t.get(1)).collect();
        assert_eq!(
            order,
            ["a", "b", "c"].map(Value::str).iter().collect::<Vec<_>>()
        );
        // One non-integer key: no dense keys; one-field rows have no
        // next column.
        let generic = index_of(vec![vec![Value::Int(2)], vec![Value::Double(0.5)]]);
        assert!(generic.int_keys.is_none());
        assert!(generic.next.is_none() && generic.int_next.is_none());
        assert_eq!(generic.keys, [Value::Int(2), Value::Double(0.5)]);
    }

    /// Cuts two-field rows as they come, keyed on column 0.
    fn cut_as_read(rows: &[Tuple]) -> Result<()> {
        let records =
            (rows.iter().enumerate()).map(|(at, t)| (t.get(0).clone(), t.get(1).clone(), at));
        let mut handles: Vec<Option<Tuple>> = rows.iter().cloned().map(Some).collect();
        let groups = groups(rows.iter().map(|t| t.get(0)));
        let mut arrays = Arrays::new(Some(1), groups, rows.len());
        let share = arrays.shares(std::iter::once((rows.len(), groups))).pop();
        let dense = share.map_or(Ok((true, true)), |share| share.cut(records, &mut handles))?;
        arrays.finish(std::iter::once(dense));
        Ok(())
    }

    #[test]
    fn cut_rejects_rows_out_of_view_order() {
        let t = |k: i64, n: i64| Tuple::new(TableId(0), vec![Value::Int(k), Value::Int(n)]);
        assert!(cut_as_read(&[t(1, 0), t(1, 0), t(2, 0)]).is_ok());
        let err = cut_as_read(&[t(1, 0), t(3, 0), t(2, 0)]);
        assert!(matches!(err, Err(JStarError::Other(m)) if m.contains("position 2")));
        // Inside a group the next column must ascend too.
        let err = cut_as_read(&[t(1, 0), t(2, 5), t(2, 4)]);
        assert!(matches!(err, Err(JStarError::Other(m)) if m.contains("position 2")));
    }

    #[test]
    fn one_piece_builds_order_rows_like_a_stable_sort() {
        // Two builds without a pool, each checked against a stable sort
        // of its rows by (key, next): negative, repeated and spread keys
        // and next values, which pack (one bucket of words), and spans
        // wider than 64 bits together, which do not (built as values).
        let t = |k: i64, n: i64| Tuple::new(TableId(0), vec![Value::Int(k), Value::Int(n)]);
        let spread: Vec<Tuple> = (0..40i64)
            .map(|i| t((i * 7919) % 13 - 6, (i * 104_729) % 1000 - 500))
            .collect();
        let wide = vec![
            t(i64::MAX, 0),
            t(i64::MIN, 1),
            t(0, i64::MIN),
            t(i64::MIN, i64::MAX),
            t(i64::MAX, 0),
        ];
        for (rows, packs) in [(spread, true), (wide, false)] {
            let mut piece = Batch::new(0, rows.len());
            rows.iter().for_each(|t| piece.push(t.clone()));
            let split = Split::of(std::slice::from_ref(&piece), 1);
            assert_eq!(split.map(|s| s.buckets), packs.then_some(1));
            let view = view_of(0, &rows);
            let mut sorted = rows.clone();
            sorted.sort_by_key(|t| (t.int(0), t.int(1)));
            assert_eq!(view.rows, sorted, "packs={packs}");
            let keys: Vec<i64> = view.keys.iter().map(|k| int_of(k).unwrap_or(0)).collect();
            assert_eq!(view.int_keys.as_deref(), Some(&keys[..]));
            let next: Vec<i64> = sorted.iter().map(|t| t.int(1)).collect();
            assert_eq!(view.int_next.as_deref(), Some(&next[..]));
        }
    }

    #[test]
    fn three_runs_sealed_without_a_pool_build_the_one_piece_view() {
        // Three runs of 50 rows, sealed without a pool: for integer rows
        // the three pieces split into four buckets of packed words, so
        // each piece scatters into regions carved out of the buckets and
        // four shares are cut into the view; a `Str` next column is one
        // bucket of values. The last 30 rows repeat the first 30, and
        // the seal keeps each row once, as the one-piece view of the set
        // holds it.
        let (ints, strs): (Vec<Tuple>, Vec<Tuple>) = (0..150i64)
            .map(|i| {
                let (i, key) = (i % 120, (i % 120 * 37) % 101);
                let int = vec![Value::Int(key - 50), Value::Int(i % 7), Value::Int(i)];
                let text = vec![Value::Int(key), Value::str(format!("n{}", i % 7))];
                (Tuple::new(TableId(0), int), Tuple::new(TableId(0), text))
            })
            .unzip();
        for (rows, buckets) in [(ints, Some(4)), (strs, None)] {
            let pieces: Vec<Batch> = (rows.chunks(50))
                .map(|run| {
                    let mut batch = Batch::new(0, run.len());
                    run.iter().for_each(|t| batch.push(t.clone()));
                    batch
                })
                .collect();
            assert_eq!(Split::of(&pieces, pieces.len()).map(|s| s.buckets), buckets);
            let runs: Vec<Mutex<Batch>> = pieces.into_iter().map(Mutex::new).collect();
            let dedup = Dedup {
                key: rows[0].arity(),
                kept: None,
            };
            let (view, report) = build_set(Source::Runs(&runs), dedup, None);
            let mut set = rows.clone();
            set.sort();
            set.dedup();
            assert_eq!(view, view_of(0, &set), "{buckets:?} buckets");
            assert_eq!(
                report,
                SealReport {
                    dups: 30,
                    conflicts: Vec::new()
                }
            );
        }
    }

    #[test]
    fn rebuild_after_new_rows_equals_one_build_over_both_batches() {
        use crate::gamma::testutil::{journaled_gamma, keyless_def};
        let row = |k: i64, n: i64, s: Option<&str>| {
            let last = s.map_or(Value::Int(n), |s| Value::str(s.to_string()));
            Tuple::new(TableId(0), vec![Value::Int(k), Value::Int(n), last])
        };
        // A view is opened over the old batch, the new one is inserted,
        // and the reopen builds again: a miss whose view is one build
        // over both batches in journal order. New keys fall below, between,
        // inside and above the old groups; inside a group, new
        // next-column values fall below, between, on and above the old
        // ones, and one new row repeats an old one.
        let old = [(4, 3), (2, 1), (4, 7), (8, 3), (4, 5)];
        let new = [
            (1, 4),
            (4, 5),
            (5, 6),
            (9, 7),
            (2, 0),
            (9, 9),
            (4, 1),
            (4, 9),
        ];
        for unpacked_in_old in [false, true] {
            for unpacked_in_new in [false, true] {
                let s = |on: bool, i: usize| (on && i == 1).then_some("s");
                let gamma = journaled_gamma(keyless_def());
                let mut all: Vec<Tuple> = Vec::new();
                let mut insert = |t: Tuple| {
                    if !all.contains(&t) {
                        all.push(t.clone());
                    }
                    gamma.insert(t);
                };
                for (i, &(k, n)) in old.iter().enumerate() {
                    insert(row(k, n, s(unpacked_in_old, i)));
                }
                let first = gamma.open_cursor(TableId(0), 0);
                for (i, &(k, n)) in new.iter().enumerate() {
                    insert(row(k, n, s(unpacked_in_new, i)));
                }
                let rebuilt = gamma.open_cursor(TableId(0), 0);
                let both = view_of(0, &all);
                let case = format!("old={unpacked_in_old} new={unpacked_in_new}");
                assert_eq!(*rebuilt, both, "{case}");
                let (hits, misses, build_tuples) = gamma.view_counts();
                assert_eq!((misses, hits), (2, 0), "{case}");
                assert_eq!(build_tuples, (first.rows.len() + all.len()) as u64);
                assert!(rebuilt.int_next.is_some());
            }
        }
        // A view opened over an empty table is rebuilt like any other.
        let gamma = journaled_gamma(keyless_def());
        assert!(gamma.open_cursor(TableId(0), 0).is_empty());
        let t = row(3, 0, None);
        gamma.insert(t.clone());
        let rebuilt = gamma.open_cursor(TableId(0), 0);
        assert_eq!(*rebuilt, view_of(0, std::slice::from_ref(&t)));
        assert_eq!(gamma.view_counts().1, 2);
    }

    /// `n` three-field rows of `kind`, keys drawn from `keys` values and
    /// next values from fewer, so groups are long, pieces cut through
    /// them and equal `(key, next)` pairs tie; the last field numbers
    /// the row, so every tie shows in the view's row order.
    ///
    /// Kinds: all-`Int` and packable (split into buckets); all-`Int`
    /// with spans wider than 64 bits (one bucket of values); a `Str`
    /// next column and a `Double` key (value records, one bucket); and
    /// packable keys with a `Str` payload (split).
    fn pooled_case_rows(kind: usize, n: usize, keys: i64, seed: u64) -> Vec<Tuple> {
        let mut state = seed | 1;
        let mut draw = move |bound: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as i64
        };
        (0..n as i64)
            .map(|id| {
                let (k, next) = (draw(keys), draw(keys / 3 + 1));
                let fields = match kind {
                    0 => vec![Value::Int(k - keys / 2), Value::Int(next), Value::Int(id)],
                    1 => {
                        let wide = |v: i64| {
                            if v % 2 == 0 {
                                i64::MIN + v
                            } else {
                                i64::MAX - v
                            }
                        };
                        vec![Value::Int(wide(k)), Value::Int(wide(next)), Value::Int(id)]
                    }
                    2 => vec![
                        Value::Int(k),
                        Value::str(format!("n{next}")),
                        Value::Int(id),
                    ],
                    3 => vec![
                        Value::Double(k as f64 / 4.0),
                        Value::Int(next),
                        Value::Int(id),
                    ],
                    _ => vec![
                        Value::Int(k),
                        Value::Int(next),
                        Value::str(format!("r{id}")),
                    ],
                };
                Tuple::new(TableId(0), fields)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The pooled build equals the one-piece build, array for array,
        /// over a join's rows and over a store's journal, at 1, 2 and 4
        /// threads: for every record kind, for 0 and 1 rows, just under
        /// and over [`super::super::MIN_PIECE`] (one piece either way)
        /// and for inputs cut into several pieces whose boundaries fall
        /// inside groups.
        #[test]
        fn pooled_build_equals_the_one_piece_build(
            kind in 0usize..5,
            size in 0usize..7,
            keys in 1i64..40,
            field in 0usize..2,
            seed in any::<u64>(),
        ) {
            use crate::gamma::testutil::keyless_def;
            use crate::gamma::{HashStore, TableStore, MIN_PIECE};
            let n = [0, 1, 37, MIN_PIECE - 1, MIN_PIECE + 1, 2 * MIN_PIECE + 1, 3 * MIN_PIECE + 17][size];
            let rows = pooled_case_rows(kind, n, keys, seed);
            let refs: Vec<&Tuple> = rows.iter().collect();
            let store = HashStore::with_first_segment(keyless_def(), vec![0], 256);
            rows.iter().for_each(|t| {
                store.insert(t.clone());
            });
            let entries = store.index_stamp().map_or(0, |s| s.generation);
            let sources = [Source::Rows(&refs), Source::Journal(&store, entries)];
            let serial: Vec<_> = sources.iter().map(|&s| build_view(s, field, None)).collect();
            let next = next_column(field, 3).unwrap_or(0);
            let mut ordered = rows.clone();
            ordered.sort_by(|a, b| (a.get(field), a.get(next)).cmp(&(b.get(field), b.get(next))));
            prop_assert_eq!(
                &serial[0].rows,
                &ordered,
                "the one-piece build over rows orders them by key, next column and run order"
            );
            prop_assert_eq!(serial[1].rows.len(), n, "the journal walk covers every entry");
            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                let pooled: Vec<_> = (sources.iter())
                    .map(|&s| build_view(s, field, Some(&pool)))
                    .collect();
                for (got, want) in pooled.iter().zip(&serial) {
                    prop_assert_eq!(got, want, "kind {} n {} at {} threads", kind, n, threads);
                }
            }
        }
    }
}
