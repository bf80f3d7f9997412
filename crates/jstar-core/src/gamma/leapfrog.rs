//! The one N-ary leapfrog walk — every join in the system, rule-side
//! or read-side, is a front-end that describes its stages and calls
//! [`walk`] (one piece) or [`fan_out`] (the same walk split over a
//! pool).
//!
//! A walk matches **rows**: row 0 comes from the [`Root`], row `k + 1`
//! from stage `k`'s view. The root is a sorted sequence — the delta's
//! trigger tuples on the rule side, relation `A`'s own view on the read
//! side. Stage `k` seeks its private position over a shared
//! [`ColumnIndex`] to a key read from an earlier row
//! ([`ColumnIndex`]'s free / one-step / counted-gallop contract, on
//! dense `i64` keys when both sides have them), filters the matched
//! group on its residual pairs, and recurses. A residual equality reads
//! the view's packed cells when it has them and the tuple otherwise;
//! the tuple handle itself is only borrowed for a surviving row.
//!
//! Per row combination the walk clones no tuple, clones no value and
//! allocates nothing: rows are borrowed into one stack that is pushed
//! and popped per level.

use super::cursor::{ColumnIndex, Key};
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use std::ops::Range;

/// An equi-join pair `((row, field), probe_field)`: field `field` of
/// the already-matched row `row` equals `probe_field` of this stage's
/// candidate (the layout of [`crate::rule::JoinStage::keys`]).
pub(crate) type Pair = ((usize, usize), usize);

/// One probe stage of a walk.
pub(crate) struct Stage<'a> {
    /// The stage's view, opened on the probe column of its first pair.
    index: &'a ColumnIndex,
    /// `(row, field)` whose value the stage seeks.
    seek: (usize, usize),
    /// Every further pair, checked inside the matched group.
    residuals: &'a [Pair],
}

impl<'a> Stage<'a> {
    /// A stage over `index` — which must be a view on `keys[0]`'s probe
    /// column — keyed by `keys[0]`, filtered by the rest.
    pub(crate) fn new(index: &'a ColumnIndex, keys: &'a [Pair]) -> Stage<'a> {
        Stage {
            index,
            seek: keys[0].0,
            residuals: &keys[1..],
        }
    }
}

/// Where row 0 comes from.
pub(crate) enum Root<'a> {
    /// Tuples sorted ascending on the field stage 0 seeks by (the delta
    /// of a join rule). Each is a root row; stage 0's cursor follows
    /// them with seeks that are free while the key repeats.
    Sorted(&'a [&'a Tuple]),
    /// A view whose key column is the field stage 0 seeks by (relation
    /// `A` of a read-side join): its groups leapfrog against stage 0's,
    /// each side galloping past keys the other lacks, and both step on
    /// a match.
    Index(&'a ColumnIndex),
}

impl Root<'_> {
    /// Root positions (tuples, or distinct keys) — what pieces split.
    fn len(&self) -> usize {
        match self {
            Root::Sorted(tuples) => tuples.len(),
            Root::Index(index) => index.len(),
        }
    }
}

/// One piece's private state: a position per stage and the row stack.
struct Walker<'a, 's, F> {
    stages: &'s [Stage<'a>],
    pos: Vec<usize>,
    rows: Vec<&'a Tuple>,
    /// `cells[i]` is the packed copy of `rows[i]`, when its view has one.
    cells: Vec<Option<&'a [i64]>>,
    seeks: u64,
    visit: F,
}

impl<'a, F: FnMut(&[&Tuple])> Walker<'a, '_, F> {
    /// Pushes one matched row, walks stages `k..`, pops it.
    fn with_row(&mut self, tuple: &'a Tuple, cells: Option<&'a [i64]>, k: usize) {
        self.rows.push(tuple);
        self.cells.push(cells);
        self.descend(k);
        self.rows.pop();
        self.cells.pop();
    }

    fn descend(&mut self, k: usize) {
        let Some(stage) = self.stages.get(k) else {
            (self.visit)(&self.rows);
            return;
        };
        let index = stage.index;
        let (row, field) = stage.seek;
        let key = match self.cells[row] {
            Some(cells) => Key::Int(cells[field]),
            None => Key::of(self.rows[row].get(field)),
        };
        if index.seek_from(&mut self.pos[k], key) {
            self.seeks += 1;
        }
        if !index.key_is(self.pos[k], key) {
            return;
        }
        for r in index.group_range(self.pos[k]) {
            let (tuple, cells) = (&index.rows[r], index.cells_of(r));
            if (stage.residuals.iter()).all(|&(source, f)| self.equal(source, tuple, cells, f)) {
                self.with_row(tuple, cells, k + 1);
            }
        }
    }

    /// `rows[row].field == candidate.probe_field`, through whichever
    /// packed cells exist.
    fn equal(
        &self,
        (row, field): (usize, usize),
        candidate: &Tuple,
        cells: Option<&[i64]>,
        probe_field: usize,
    ) -> bool {
        match (self.cells[row], cells) {
            (Some(s), Some(c)) => s[field] == c[probe_field],
            (Some(s), None) => Key::Int(s[field]).equals(candidate.get(probe_field)),
            (None, Some(c)) => Key::Int(c[probe_field]).equals(self.rows[row].get(field)),
            (None, None) => self.rows[row].get(field) == candidate.get(probe_field),
        }
    }
}

/// Walks the whole root as one piece on the calling thread, calling
/// `visit` with each full row combination (`rows[0]` the root row,
/// `rows[k + 1]` stage `k`'s). Returns the counted seeks. `stages` must
/// not be empty.
pub(crate) fn walk<'a>(root: &Root<'a>, stages: &[Stage<'a>], visit: impl FnMut(&[&Tuple])) -> u64 {
    walk_range(root, 0..root.len(), stages, visit)
}

/// [`walk`] over the root positions in `range` only.
fn walk_range<'a>(
    root: &Root<'a>,
    range: Range<usize>,
    stages: &[Stage<'a>],
    visit: impl FnMut(&[&Tuple]),
) -> u64 {
    let mut w = Walker {
        stages,
        pos: vec![0; stages.len()],
        rows: Vec::with_capacity(stages.len() + 1),
        cells: Vec::with_capacity(stages.len() + 1),
        seeks: 0,
        visit,
    };
    match *root {
        Root::Sorted(tuples) => {
            for &t in &tuples[range] {
                w.with_row(t, None, 0);
            }
        }
        Root::Index(a) => {
            let b = stages[0].index;
            let mut g = range.start;
            while g < range.end {
                let key = a.key_at(g);
                if b.seek_from(&mut w.pos[0], key) {
                    w.seeks += 1;
                }
                if w.pos[0] >= b.len() {
                    break;
                }
                if b.key_is(w.pos[0], key) {
                    for r in a.group_range(g) {
                        w.with_row(&a.rows[r], a.cells_of(r), 0);
                    }
                    g += 1;
                    w.pos[0] += 1;
                } else if a.seek_from(&mut g, b.key_at(w.pos[0])) {
                    w.seeks += 1;
                }
            }
        }
    }
    w.seeks
}

/// [`walk`] as a fold, split over `pool` when there is one: the root is
/// cut into [`jstar_pool::adaptive_chunk`] pieces submitted as one
/// batch, each piece folding into its own `init()` accumulator through
/// `visit`. Returns the accumulators in root order (at least one) and
/// the seeks of all pieces.
pub(crate) fn fan_out<'a, Acc: Send>(
    root: &Root<'a>,
    stages: &[Stage<'a>],
    pool: Option<&ThreadPool>,
    init: impl Fn() -> Acc + Sync,
    visit: impl Fn(&mut Acc, &[&Tuple]) + Sync,
) -> (Vec<Acc>, u64) {
    let piece = |range: Range<usize>| {
        let mut acc = init();
        let seeks = walk_range(root, range, stages, |rows| visit(&mut acc, rows));
        (acc, seeks)
    };
    let len = root.len();
    let pieces = match pool {
        Some(pool) if len > 1 => {
            let chunk = jstar_pool::adaptive_chunk(pool, len).max(1);
            let piece = &piece;
            let tasks = (0..len)
                .step_by(chunk)
                .map(|lo| move || piece(lo..(lo + chunk).min(len)))
                .collect();
            jstar_pool::parallel_tasks(pool, tasks)
        }
        _ => vec![piece(0..len)],
    };
    let seeks = pieces.iter().map(|(_, s)| s).sum();
    (pieces.into_iter().map(|(acc, _)| acc).collect(), seeks)
}

#[cfg(test)]
mod tests {
    use super::super::cursor::tests::seek_reference;
    use super::*;
    use crate::schema::TableId;
    use crate::value::Value;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    const ARITY: usize = 3;

    /// Field values by column kind: all `Int` (with both extremes), all
    /// `Str`, all `Double`, or `Int` and `Double` mixed.
    fn value(kind: usize, x: usize) -> Value {
        let int = match x {
            5 => i64::MIN,
            6 => i64::MAX,
            v => v as i64,
        };
        match kind {
            0 => Value::Int(int),
            1 => Value::str(format!("s{x}")),
            2 => Value::Double(x as f64 / 2.0),
            _ if x.is_multiple_of(2) => Value::Int(int),
            _ => Value::Double(x as f64),
        }
    }

    fn view(rel: &[Tuple], field: usize) -> ColumnIndex {
        ColumnIndex::build(field, &mut |emit| rel.iter().for_each(&mut *emit))
    }

    /// A relation in the parent commit's layout: distinct keys ascending
    /// and one `Vec` of tuples per key.
    fn nested(rel: &[Tuple], field: usize) -> (Vec<Value>, Vec<Vec<Tuple>>) {
        let mut map: BTreeMap<Value, Vec<Tuple>> = BTreeMap::new();
        for t in rel {
            map.entry(t.get(field).clone()).or_default().push(t.clone());
        }
        map.into_iter().unzip()
    }

    fn pairs_hold(keys: &[Pair], rows: &[Tuple], candidate: &Tuple) -> bool {
        (keys.iter()).all(|&((r, f), pf)| rows[r].get(f) == candidate.get(pf))
    }

    /// The oracle: nested `for` loops over whole relations, relation
    /// `k + 1` checked against `keys[k]`.
    fn nested_loops(
        rels: &[Vec<Tuple>],
        keys: &[Vec<Pair>],
        rows: &mut Vec<Tuple>,
        out: &mut Vec<Vec<Tuple>>,
    ) {
        let k = rows.len();
        if k == rels.len() {
            out.push(rows.clone());
            return;
        }
        for t in &rels[k] {
            if k == 0 || pairs_hold(&keys[k - 1], rows, t) {
                rows.push(t.clone());
                nested_loops(rels, keys, rows, out);
                rows.pop();
            }
        }
    }

    /// The walk as the parent commit ran it — nested groups, a position
    /// per stage, every reposition by linear scan under the counting
    /// rule of `cursor.rs`.
    struct Reference<'k> {
        stages: Vec<(Vec<Value>, Vec<Vec<Tuple>>)>,
        keys: &'k [Vec<Pair>],
        pos: Vec<usize>,
        seeks: u64,
        out: Vec<Vec<Tuple>>,
    }

    impl Reference<'_> {
        fn seek(&mut self, k: usize, target: &Value) {
            let (land, counted) = seek_reference(&self.stages[k].0, self.pos[k], target);
            self.pos[k] = land;
            self.seeks += counted as u64;
        }

        fn descend(&mut self, k: usize, rows: &mut Vec<Tuple>) {
            if k == self.stages.len() {
                self.out.push(rows.clone());
                return;
            }
            let ((r, f), _) = self.keys[k][0];
            let target = rows[r].get(f).clone();
            self.seek(k, &target);
            let g = self.pos[k];
            if self.stages[k].0.get(g) != Some(&target) {
                return;
            }
            for candidate in self.stages[k].1[g].clone() {
                if pairs_hold(&self.keys[k][1..], rows, &candidate) {
                    rows.push(candidate);
                    self.descend(k + 1, rows);
                    rows.pop();
                }
            }
        }
    }

    /// Emitted rows in order, and the seek total, of the reference walk
    /// — over the sorted `delta` when there is one, else with `rels[0]`
    /// as an indexed root (the parent's `join_rel` loop: both sides
    /// gallop, both step on a match).
    fn reference_walk(
        rels: &[Vec<Tuple>],
        keys: &[Vec<Pair>],
        delta: Option<&[&Tuple]>,
    ) -> (Vec<Vec<Tuple>>, u64) {
        let mut w = Reference {
            stages: (rels[1..].iter().zip(keys))
                .map(|(rel, k)| nested(rel, k[0].1))
                .collect(),
            keys,
            pos: vec![0; keys.len()],
            seeks: 0,
            out: Vec::new(),
        };
        if let Some(delta) = delta {
            for &t in delta {
                w.descend(0, &mut vec![t.clone()]);
            }
            return (w.out, w.seeks);
        }
        let (ka, ga) = nested(&rels[0], keys[0][0].0 .1);
        let mut pa = 0;
        while pa < ka.len() && w.pos[0] < w.stages[0].0.len() {
            let kb = w.stages[0].0[w.pos[0]].clone();
            match ka[pa].cmp(&kb) {
                Ordering::Less => {
                    let (land, counted) = seek_reference(&ka, pa, &kb);
                    pa = land;
                    w.seeks += counted as u64;
                }
                Ordering::Greater => w.seek(0, &ka[pa]),
                Ordering::Equal => {
                    for t in &ga[pa] {
                        w.descend(0, &mut vec![t.clone()]);
                    }
                    pa += 1;
                    w.pos[0] += 1;
                }
            }
        }
        (w.out, w.seeks)
    }

    fn collect(rows: &[&Tuple]) -> Vec<Tuple> {
        rows.iter().map(|&t| t.clone()).collect()
    }

    /// One random join: relations, key pairs, and which root kind.
    struct Case {
        rels: Vec<Vec<Tuple>>,
        keys: Vec<Vec<Pair>>,
        indexed_root: bool,
    }

    fn case(kind: usize, n_stages: usize, indexed_root: bool, seed: u64) -> Case {
        let mut rng = proptest::TestRng::new(seed);
        let rels = (0..=n_stages)
            .map(|_| {
                // Empty and one-row relations come up often.
                let rows = [0, 1, 7, 23, 40][rng.usize_below(5)];
                (0..rows)
                    .map(|_| {
                        let fields: Vec<Value> = (0..ARITY)
                            .map(|_| value(kind, rng.usize_below(7)))
                            .collect();
                        Tuple::new(TableId(0), fields)
                    })
                    .collect()
            })
            .collect();
        let keys = (0..n_stages)
            .map(|k| {
                (0..1 + rng.usize_below(3))
                    .map(|_| {
                        let row = rng.usize_below(k + 1);
                        ((row, rng.usize_below(ARITY)), rng.usize_below(ARITY))
                    })
                    .collect()
            })
            .collect();
        Case {
            rels,
            keys,
            indexed_root,
        }
    }

    impl Case {
        /// Runs `body` with the walk's root and stages built.
        fn with_walk<R>(
            &self,
            body: impl for<'a> FnOnce(&Root<'a>, &[Stage<'a>], Option<&[&Tuple]>) -> R,
        ) -> R {
            let views: Vec<ColumnIndex> = (self.rels[1..].iter().zip(&self.keys))
                .map(|(rel, k)| view(rel, k[0].1))
                .collect();
            let stages: Vec<Stage<'_>> = (views.iter().zip(&self.keys))
                .map(|(v, k)| Stage::new(v, k))
                .collect();
            if self.indexed_root {
                let a = view(&self.rels[0], self.keys[0][0].0 .1);
                return body(&Root::Index(&a), &stages, None);
            }
            let mut delta: Vec<&Tuple> = self.rels[0].iter().collect();
            delta.sort_by(|x, y| {
                (self.keys[0]
                    .iter()
                    .map(|&((_, f), _)| x.get(f).cmp(y.get(f))))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
            });
            body(&Root::Sorted(&delta), &stages, Some(&delta))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// One piece emits exactly the reference walk's rows, in its
        /// order, with its seek total — on dense and generic keys, packed
        /// and unpacked residuals, sorted and indexed roots; the multiset
        /// equals the nested-loop oracle's; and a 2- and a 4-thread
        /// fan-out emit that same multiset.
        #[test]
        fn fan_out_and_one_piece_match_nested_loops(
            kind in 0usize..4,
            n_stages in 1usize..4,
            indexed_root in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut c = case(kind, n_stages, indexed_root, seed);
            if indexed_root {
                // An indexed root's key column is stage 0's seek source.
                c.keys[0][0].0 .0 = 0;
            }
            let mut want = Vec::new();
            nested_loops(&c.rels, &c.keys, &mut Vec::new(), &mut want);
            want.sort();

            c.with_walk(|root, stages, delta| {
                let mut got = Vec::new();
                let seeks = walk(root, stages, |rows| got.push(collect(rows)));
                let (reference, reference_seeks) = reference_walk(&c.rels, &c.keys, delta);
                prop_assert_eq!(&got, &reference, "one piece, emission order");
                prop_assert_eq!(seeks, reference_seeks, "one piece, seek total");
                got.sort();
                prop_assert_eq!(&got, &want, "one piece against nested loops");

                for threads in [2, 4] {
                    let pool = ThreadPool::new(threads);
                    let (pieces, _) = fan_out(root, stages, Some(&pool), Vec::new, |acc, rows| {
                        acc.push(collect(rows))
                    });
                    let mut got: Vec<Vec<Tuple>> = pieces.into_iter().flatten().collect();
                    got.sort();
                    prop_assert_eq!(&got, &want, "{} threads", threads);
                }
                Ok(())
            })?;
        }
    }

    /// Small fixed joins through every residual arm (packed against
    /// packed, packed against a tuple, tuple against tuple) — the
    /// sequential companion of the property test, cheap enough for the
    /// Miri job.
    #[test]
    fn each_residual_path_matches_nested_loops() {
        // The fourth field joins nothing; as a string it only keeps a
        // relation's view from packing its cells.
        let rel = |rows: &[[i64; 3]], packed: bool| -> Vec<Tuple> {
            (rows.iter())
                .map(|r| {
                    let mut fields = r.map(Value::Int).to_vec();
                    fields.push(if packed {
                        Value::Int(0)
                    } else {
                        Value::str("p")
                    });
                    Tuple::new(TableId(0), fields)
                })
                .collect()
        };
        let a = [[1, 2, 0], [1, 3, 1], [4, 2, 0], [i64::MAX, 2, 1]];
        let b = [[2, 1, 0], [2, 4, 1], [3, 1, 1], [2, i64::MAX, 1], [9, 9, 0]];
        let c = [[1, 2, 0], [4, 2, 1], [i64::MAX, 2, 1], [4, 3, 1], [1, 2, 0]];
        // a.1 = b.0, a.2 = b.2; then b.1 = c.0, a.1 = c.1, a.2 = c.2.
        let keys: Vec<Vec<Pair>> = vec![
            vec![((0, 1), 0), ((0, 2), 2)],
            vec![((1, 1), 0), ((0, 1), 1), ((0, 2), 2)],
        ];
        for unpacked in 0..8usize {
            let packed = |bit: usize| unpacked >> bit & 1 == 0;
            for indexed_root in [false, true] {
                let c = Case {
                    rels: vec![rel(&a, packed(0)), rel(&b, packed(1)), rel(&c, packed(2))],
                    keys: keys.clone(),
                    indexed_root,
                };
                let mut want = Vec::new();
                nested_loops(&c.rels, &c.keys, &mut Vec::new(), &mut want);
                want.sort();
                let mut got = c.with_walk(|root, stages, delta| {
                    let mut got = Vec::new();
                    let seeks = walk(root, stages, |rows| got.push(collect(rows)));
                    let (reference, reference_seeks) = reference_walk(&c.rels, &c.keys, delta);
                    assert_eq!(got, reference, "unpacked={unpacked:03b}");
                    assert_eq!(seeks, reference_seeks, "unpacked={unpacked:03b}");
                    got
                });
                got.sort();
                assert_eq!(got, want, "unpacked={unpacked:03b} indexed={indexed_root}");
                assert!(want.len() >= 3, "the fixture must have rows to find");
            }
        }
    }
}
