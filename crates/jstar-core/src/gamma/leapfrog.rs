//! The one N-ary leapfrog walk — every join in the system, rule-side
//! or read-side, is a front-end that describes its stages and calls
//! [`walk`] (one piece) or [`fan_out`] (the same walk split over a
//! pool).
//!
//! A walk matches **rows**: row 0 comes from the root, row `k + 1` from
//! stage `k`'s view. The root is a [`ColumnIndex`] keyed on the field
//! stage 0 seeks by — relation `A`'s own view on the read side, a view
//! cut from the delta's trigger tuples on the rule side — and its
//! groups leapfrog against stage 0's, each side galloping past keys the
//! other lacks. Stage `k` seeks its private position over a shared view
//! to a key read from an earlier row ([`ColumnIndex`]'s free / one-step
//! / counted-gallop contract, on dense `i64` keys when both sides have
//! them), filters the matched group on its residual equalities and its
//! inequalities, and recurses.
//!
//! **How a pair reads a field.** A row carries what its view holds
//! densely for it: its group's key (from `int_keys`, keyed on the field
//! stage 0 seeks by for the root, on the probe field of its first pair
//! for a stage) and its next-column value (from `int_next`). A pair or
//! a root check that names one of those two fields compares the
//! integers; any other field, and any field a view does not mirror (a
//! `Str` or `Double` key or next column), is read from the tuple. Both
//! sides compare under [`crate::value::Value`]'s order.
//!
//! **Seeks inside a group.** A view's groups are ordered by their
//! rows' next column (the first field other than the key). When that
//! column is all-integer and a stage has a residual equality on it, the
//! stage seeks to the run of rows equal to its source and stops where
//! the run ends; failing that, an inequality whose larger side is that
//! column seeks past its bound. Both seek the group's slice of the
//! view's dense next column under the same contract, resuming from the
//! stage's last in-group position while the group is unchanged and the
//! target has not decreased: consecutive rows of a parent group walk a
//! child group as one monotone merge of two sorted lists, as Leapfrog
//! Triejoin does. Every other pair is checked row by row.
//!
//! Each inequality runs at the first row that binds both of its sides:
//! a **root check** (two fields of row 0) before a root row is pushed;
//! a stage's inequality beside that stage's residual equalities. A
//! candidate failing one is never pushed, so no later stage seeks for
//! it; the tuple handle itself is only borrowed for a surviving row.
//!
//! Per row combination the walk clones no tuple, clones no value and
//! allocates nothing: rows are borrowed into one stack that is pushed
//! and popped per level.

use super::cursor::{seek_sorted, ColumnIndex, Key};
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use std::cmp::Ordering;
use std::ops::Range;

/// A join pair `((row, field), probe_field)`: field `field` of the
/// already-matched row `row` against `probe_field` of this stage's
/// candidate (the layout of [`crate::rule::JoinStage::keys`] and
/// [`crate::rule::JoinStage::less`]).
pub(crate) type Pair = ((usize, usize), usize);

/// How a stage narrows a matched group through the view's dense next
/// column: to the run equal to a source field, or past a source field
/// that bounds it from below.
#[derive(Clone, Copy)]
enum Within {
    Equal((usize, usize)),
    Above((usize, usize)),
}

/// One probe stage of a walk.
pub(crate) struct Stage<'a> {
    /// The stage's view, opened on the probe column of its first pair.
    index: &'a ColumnIndex,
    /// That probe column: the field the view's keys hold.
    field: usize,
    /// `(row, field)` whose value the stage seeks.
    seek: (usize, usize),
    /// Every further key pair, checked for equality inside the matched
    /// group.
    residuals: &'a [Pair],
    /// Pairs whose source must be strictly below the candidate's field,
    /// checked beside the residuals.
    less: &'a [Pair],
    /// The pair that seeks inside the matched group, if any.
    within: Option<Within>,
}

impl<'a> Stage<'a> {
    /// A stage over `index` — which must be a view on `keys[0]`'s probe
    /// column — keyed by `keys[0]`, filtered by the rest and by `less`.
    pub(crate) fn new(index: &'a ColumnIndex, keys: &'a [Pair], less: &'a [Pair]) -> Stage<'a> {
        let residuals = &keys[1..];
        let next = index.int_next.as_ref().and(index.next);
        let on_next = |pairs: &[Pair]| {
            let pair = pairs.iter().find(|&&(_, probe)| Some(probe) == next);
            pair.map(|&(source, _)| source)
        };
        let within = on_next(residuals)
            .map(Within::Equal)
            .or_else(|| on_next(less).map(Within::Above));
        Stage {
            index,
            field: keys[0].1,
            seek: keys[0].0,
            residuals,
            less,
            within,
        }
    }
}

/// What a view holds densely for one of its rows: its group's key and
/// its next-column value, each with the field it is.
#[derive(Clone, Copy)]
struct Dense {
    key: Option<(usize, i64)>,
    next: Option<(usize, i64)>,
}

impl Dense {
    /// Row `r`, of group `g`, of `view` keyed on `field`.
    fn of(view: &ColumnIndex, field: usize, g: usize, r: usize) -> Dense {
        Dense {
            key: view.int_keys.as_ref().map(|keys| (field, keys[g])),
            next: view.next.zip(view.int_next.as_ref().map(|next| next[r])),
        }
    }

    /// Field `field` of `tuple`, the row this was taken for.
    fn get<'t>(&self, tuple: &'t Tuple, field: usize) -> Key<'t> {
        match (self.key, self.next) {
            (Some((f, key)), _) if f == field => Key::Int(key),
            (_, Some((f, next))) if f == field => Key::Int(next),
            _ => Key::of(tuple.get(field)),
        }
    }
}

/// A stage's last seek inside a group: the group, the target it
/// sought, the row it landed on (the first at or past the target), and
/// a row every row before which is at or below the target (the end of
/// an equality's run; the landing row for a bound).
#[derive(Clone, Copy)]
struct InGroup {
    group: usize,
    target: i64,
    row: usize,
    past: usize,
}

/// One piece's private state: positions per stage and the row stack.
struct Walker<'a, 's, F> {
    /// Root checks `(field, field)`: a root row is walked only when the
    /// first field is below the second.
    root_less: &'s [(usize, usize)],
    stages: &'s [Stage<'a>],
    /// Each stage's group position in its view.
    pos: Vec<usize>,
    /// Each stage's last in-group seek, for resuming.
    in_group: Vec<Option<InGroup>>,
    rows: Vec<&'a Tuple>,
    /// `dense[i]` is what `rows[i]`'s view holds densely for it.
    dense: Vec<Dense>,
    seeks: u64,
    visit: F,
}

impl<'a, F: FnMut(&[&Tuple])> Walker<'a, '_, F> {
    /// Walks root row `tuple` through every stage, if it passes the
    /// root checks.
    fn root(&mut self, tuple: &'a Tuple, dense: Dense) {
        let below = |&(lo, hi): &(usize, usize)| dense.get(tuple, lo) < dense.get(tuple, hi);
        if self.root_less.iter().all(below) {
            self.with_row(tuple, dense, 0);
        }
    }

    /// Pushes one matched row, walks stages `k..`, pops it.
    fn with_row(&mut self, tuple: &'a Tuple, dense: Dense, k: usize) {
        self.rows.push(tuple);
        self.dense.push(dense);
        self.descend(k);
        self.rows.pop();
        self.dense.pop();
    }

    /// Field `field` of matched row `row`.
    fn field(&self, (row, field): (usize, usize)) -> Key<'a> {
        self.dense[row].get(self.rows[row], field)
    }

    fn descend(&mut self, k: usize) {
        let Some(stage) = self.stages.get(k) else {
            (self.visit)(&self.rows);
            return;
        };
        let index = stage.index;
        let key = self.field(stage.seek);
        if index.seek_from(&mut self.pos[k], key) {
            self.seeks += 1;
        }
        if !index.key_is(self.pos[k], key) {
            return;
        }
        let Some(range) = self.narrow(k) else {
            return;
        };
        let g = self.pos[k];
        for r in range {
            let (tuple, dense) = (&index.rows[r], Dense::of(index, stage.field, g, r));
            let holds = |pairs: &[Pair], want| {
                (pairs.iter())
                    .all(|&(source, f)| self.field(source).cmp(&dense.get(tuple, f)) == want)
            };
            if holds(stage.residuals, Ordering::Equal) && holds(stage.less, Ordering::Less) {
                self.with_row(tuple, dense, k + 1);
            }
        }
    }

    /// The rows of stage `k`'s matched group worth checking: the whole
    /// group, unless the stage seeks inside it (module docs). `None`
    /// when no row can match.
    fn narrow(&mut self, k: usize) -> Option<Range<usize>> {
        let stages = self.stages;
        let (stage, group) = (&stages[k], self.pos[k]);
        let range = stage.index.group_range(group);
        let (Some(within), Some(next)) = (stage.within, stage.index.int_next.as_deref()) else {
            return Some(range);
        };
        let (source, equal) = match within {
            Within::Equal(source) => (source, true),
            Within::Above(source) => (source, false),
        };
        let Key::Int(v) = self.field(source) else {
            return Some(range);
        };
        // Above `v` is at or past `v + 1`; nothing is above `i64::MAX`.
        let target = if equal { v } else { v.checked_add(1)? };
        let from = match self.in_group[k] {
            Some(last) if last.group == group && last.target == target => last.row,
            Some(last) if last.group == group && last.target < target => last.past,
            _ => range.start,
        };
        let group_next = &next[range.clone()];
        let mut at = from - range.start;
        if seek_sorted(group_next, &mut at, &target) {
            self.seeks += 1;
        }
        let row = range.start + at;
        let end = match equal {
            true => {
                row + group_next[at..]
                    .iter()
                    .take_while(|&&n| n == target)
                    .count()
            }
            false => range.end,
        };
        let past = if equal { end } else { row };
        self.in_group[k] = Some(InGroup {
            group,
            target,
            row,
            past,
        });
        Some(row..end)
    }
}

/// Walks the whole root view as one piece on the calling thread,
/// calling `visit` with each full row combination (`rows[0]` the root
/// row, `rows[k + 1]` stage `k`'s) whose root row passes `root_less`
/// (see [`Walker`]). `root` must be keyed on the field stage 0 seeks
/// by. Returns the counted seeks. `stages` must not be empty.
pub(crate) fn walk<'a>(
    root: &'a ColumnIndex,
    root_less: &[(usize, usize)],
    stages: &[Stage<'a>],
    visit: impl FnMut(&[&Tuple]),
) -> u64 {
    walk_range(root, 0..root.rows.len(), root_less, stages, visit)
}

/// [`walk`] over the root rows in `rows` only. A range may start and
/// end inside a group: its rows are walked from the group's key like
/// any other.
fn walk_range<'a>(
    a: &'a ColumnIndex,
    rows: Range<usize>,
    root_less: &[(usize, usize)],
    stages: &[Stage<'a>],
    visit: impl FnMut(&[&Tuple]),
) -> u64 {
    let mut w = Walker {
        root_less,
        stages,
        pos: vec![0; stages.len()],
        in_group: vec![None; stages.len()],
        rows: Vec::with_capacity(stages.len() + 1),
        dense: Vec::with_capacity(stages.len() + 1),
        seeks: 0,
        visit,
    };
    let (b, field) = (stages[0].index, stages[0].seek.1);
    // The group holding the first row.
    let mut g = (a.starts.partition_point(|&s| s as usize <= rows.start)).saturating_sub(1);
    while g < a.len() && a.group_range(g).start < rows.end {
        let key = a.key_at(g);
        if b.seek_from(&mut w.pos[0], key) {
            w.seeks += 1;
        }
        if w.pos[0] >= b.len() {
            break;
        }
        if b.key_is(w.pos[0], key) {
            let group = a.group_range(g);
            for r in group.start.max(rows.start)..group.end.min(rows.end) {
                w.root(&a.rows[r], Dense::of(a, field, g, r));
            }
            g += 1;
            w.pos[0] += 1;
        } else if a.seek_from(&mut g, b.key_at(w.pos[0])) {
            w.seeks += 1;
        }
    }
    w.seeks
}

/// [`walk`] as a fold, split over `pool` when there is one: the root's
/// rows are cut into [`jstar_pool::adaptive_chunk`] pieces submitted as
/// one batch — by rows, not groups, so a root whose rows share one key
/// still spreads over the pool — each piece folding into its own
/// `init()` accumulator through `visit`. Returns the accumulators in
/// root order (at least one) and the seeks of all pieces.
pub(crate) fn fan_out<'a, Acc: Send>(
    root: &'a ColumnIndex,
    root_less: &[(usize, usize)],
    stages: &[Stage<'a>],
    pool: Option<&ThreadPool>,
    init: impl Fn() -> Acc + Sync,
    visit: impl Fn(&mut Acc, &[&Tuple]) + Sync,
) -> (Vec<Acc>, u64) {
    let piece = |range: Range<usize>| {
        let mut acc = init();
        let seeks = walk_range(root, range, root_less, stages, |rows| visit(&mut acc, rows));
        (acc, seeks)
    };
    let len = root.rows.len();
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
    use super::super::cursor::tests::{seek_reference, view_of};
    use super::*;
    use crate::schema::TableId;
    use crate::value::Value;
    use proptest::prelude::*;
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

    /// The field a view keyed on `field` orders its groups by.
    fn next_of(field: usize) -> usize {
        usize::from(field == 0)
    }

    /// A relation as nested groups: distinct keys ascending and one
    /// `Vec` of tuples per key, sorted stably by the next column.
    fn nested(rel: &[Tuple], field: usize) -> (Vec<Value>, Vec<Vec<Tuple>>) {
        let mut map: BTreeMap<Value, Vec<Tuple>> = BTreeMap::new();
        for t in rel {
            map.entry(t.get(field).clone()).or_default().push(t.clone());
        }
        for group in map.values_mut() {
            group.sort_by(|a, b| a.get(next_of(field)).cmp(b.get(next_of(field))));
        }
        map.into_iter().unzip()
    }

    /// `v` as an integer, if it is one.
    fn int(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// True when every pair of `pairs` compares `want` — the source
    /// field of its row against the candidate's probe field.
    fn pairs_hold(pairs: &[Pair], want: Ordering, rows: &[Tuple], candidate: &Tuple) -> bool {
        (pairs.iter()).all(|&((r, f), pf)| rows[r].get(f).cmp(candidate.get(pf)) == want)
    }

    fn root_holds(root_less: &[(usize, usize)], t: &Tuple) -> bool {
        (root_less.iter()).all(|&(lo, hi)| t.get(lo) < t.get(hi))
    }

    /// The oracle: nested `for` loops over whole relations, relation 0
    /// checked against the root checks and relation `k + 1` against
    /// `keys[k]` and `less[k]`.
    fn nested_loops(c: &Case, rows: &mut Vec<Tuple>, out: &mut Vec<Vec<Tuple>>) {
        let k = rows.len();
        if k == c.rels.len() {
            out.push(rows.clone());
            return;
        }
        for t in &c.rels[k] {
            let holds = match k {
                0 => root_holds(&c.root_less, t),
                _ => {
                    pairs_hold(&c.keys[k - 1], Ordering::Equal, rows, t)
                        && pairs_hold(&c.less[k - 1], Ordering::Less, rows, t)
                }
            };
            if holds {
                rows.push(t.clone());
                nested_loops(c, rows, out);
                rows.pop();
            }
        }
    }

    /// The walk restated over nested groups — a position per stage,
    /// every reposition by linear scan under the counting rule of
    /// `cursor.rs`, in-group seeks on the next column as the module docs
    /// describe them — with each inequality checked where the oracle
    /// checks it.
    struct Reference<'c> {
        stages: Vec<(Vec<Value>, Vec<Vec<Tuple>>)>,
        /// Per stage: whether its relation's next column is all-integer.
        dense_next: Vec<bool>,
        case: &'c Case,
        pos: Vec<usize>,
        /// Per stage: the last in-group seek's `(group, target, row,
        /// past)`, as the walk keeps it.
        last: Vec<Option<(usize, i64, usize, usize)>>,
        seeks: u64,
        out: Vec<Vec<Tuple>>,
    }

    impl Reference<'_> {
        fn seek(&mut self, k: usize, target: &Value) {
            let (land, counted) = seek_reference(&self.stages[k].0, self.pos[k], target);
            self.pos[k] = land;
            self.seeks += counted as u64;
        }

        /// Walks root row `t` through every stage, if it passes the
        /// root checks.
        fn root(&mut self, t: &Tuple) {
            if root_holds(&self.case.root_less, t) {
                self.descend(0, &mut vec![t.clone()]);
            }
        }

        fn descend(&mut self, k: usize, rows: &mut Vec<Tuple>) {
            if k == self.stages.len() {
                self.out.push(rows.clone());
                return;
            }
            let (keys, less) = (&self.case.keys[k], &self.case.less[k]);
            let ((r, f), field) = keys[0];
            let target = rows[r].get(f).clone();
            self.seek(k, &target);
            let g = self.pos[k];
            if self.stages[k].0.get(g) != Some(&target) {
                return;
            }
            let group = self.stages[k].1[g].clone();
            let next = next_of(field);
            let (mut start, mut until) = (0, None);
            let on_next = |pairs: &[Pair]| pairs.iter().find(|p| p.1 == next).map(|p| p.0);
            let within = (on_next(&keys[1..]).map(|s| (s, true)))
                .or_else(|| on_next(less).map(|s| (s, false)))
                .filter(|_| self.dense_next[k]);
            if let Some(((r, f), equal)) = within {
                if let Some(v) = int(rows[r].get(f)) {
                    let Some(t) = (if equal { Some(v) } else { v.checked_add(1) }) else {
                        return;
                    };
                    let from = match self.last[k] {
                        Some((lg, lt, row, _)) if lg == g && lt == t => row,
                        Some((lg, lt, _, past)) if lg == g && lt < t => past,
                        _ => 0,
                    };
                    let nexts: Vec<i64> = group.iter().filter_map(|c| int(c.get(next))).collect();
                    let (land, counted) = seek_reference(&nexts, from, &t);
                    self.seeks += counted as u64;
                    let run = nexts[land..].iter().take_while(|&&n| n == t).count();
                    self.last[k] = Some((g, t, land, land + if equal { run } else { 0 }));
                    start = land;
                    until = equal.then_some(t);
                }
            }
            for candidate in group[start..].iter().cloned() {
                if until.is_some_and(|t| int(candidate.get(next)) != Some(t)) {
                    break;
                }
                if pairs_hold(&keys[1..], Ordering::Equal, rows, &candidate)
                    && pairs_hold(less, Ordering::Less, rows, &candidate)
                {
                    rows.push(candidate);
                    self.descend(k + 1, rows);
                    rows.pop();
                }
            }
        }
    }

    /// Emitted rows in order, and the seek total, of the reference walk
    /// with `rels[0]` as the root view (both sides gallop, both step on
    /// a match).
    fn reference_walk(c: &Case) -> (Vec<Vec<Tuple>>, u64) {
        let mut w = Reference {
            stages: (c.rels[1..].iter().zip(&c.keys))
                .map(|(rel, k)| nested(rel, k[0].1))
                .collect(),
            dense_next: (c.rels[1..].iter().zip(&c.keys))
                .map(|(rel, k)| rel.iter().all(|t| int(t.get(next_of(k[0].1))).is_some()))
                .collect(),
            case: c,
            pos: vec![0; c.keys.len()],
            last: vec![None; c.keys.len()],
            seeks: 0,
            out: Vec::new(),
        };
        let (ka, ga) = nested(&c.rels[0], c.keys[0][0].0 .1);
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
                        w.root(t);
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

    /// One random join: relations, key pairs and inequalities (per
    /// stage, and the root checks).
    struct Case {
        rels: Vec<Vec<Tuple>>,
        keys: Vec<Vec<Pair>>,
        less: Vec<Vec<Pair>>,
        root_less: Vec<(usize, usize)>,
    }

    /// A random case; `bounded` adds up to two inequalities per stage
    /// and up to two root checks. Either way a stage may get a residual
    /// equality or a lower bound on its view's next column, which the
    /// walk seeks inside the matched group.
    fn case(kind: usize, n_stages: usize, bounded: bool, seed: u64) -> Case {
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
        let mut pairs = |k: usize, min: usize| -> Vec<Pair> {
            (0..min + rng.usize_below(3))
                .map(|_| {
                    let row = rng.usize_below(k + 1);
                    ((row, rng.usize_below(ARITY)), rng.usize_below(ARITY))
                })
                .collect()
        };
        let mut keys: Vec<Vec<Pair>> = (0..n_stages).map(|k| pairs(k, 1)).collect();
        let mut less: Vec<Vec<Pair>> = vec![Vec::new(); n_stages];
        let mut root_less = Vec::new();
        if bounded {
            less = (0..n_stages).map(|k| pairs(k, 0)).collect();
            root_less = pairs(0, 0)
                .into_iter()
                .map(|((_, lo), hi)| (lo, hi))
                .collect();
        }
        for k in 0..n_stages {
            let next = next_of(keys[k][0].1);
            let source = (rng.usize_below(k + 1), rng.usize_below(ARITY));
            match rng.usize_below(3) {
                0 => keys[k].insert(1, (source, next)),
                1 => less[k].insert(0, (source, next)),
                _ => {}
            }
        }
        Case {
            rels,
            keys,
            less,
            root_less,
        }
    }

    impl Case {
        /// Runs `body` with the walk's root view and stages built.
        fn with_walk<R>(&self, body: impl for<'a> FnOnce(&'a ColumnIndex, &[Stage<'a>]) -> R) -> R {
            let views: Vec<ColumnIndex> = (self.rels[1..].iter().zip(&self.keys))
                .map(|(rel, k)| view_of(k[0].1, rel))
                .collect();
            let stages: Vec<Stage<'_>> = (views.iter().zip(&self.keys).zip(&self.less))
                .map(|((v, k), l)| Stage::new(v, k, l))
                .collect();
            let root = view_of(self.keys[0][0].0 .1, &self.rels[0]);
            body(&root, &stages)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// One piece emits exactly the reference walk's rows, in its
        /// order, with its seek total — on dense and generic keys, packed
        /// and unpacked residuals and inequalities, with and without
        /// inequalities (root checks included), with and without seeks
        /// inside groups; the multiset equals the nested-loop oracle's;
        /// and a 2- and a 4-thread fan-out, whose pieces may start and
        /// end inside a root group, emit those rows in that order.
        #[test]
        fn fan_out_and_one_piece_match_nested_loops(
            kind in 0usize..4,
            n_stages in 1usize..4,
            bounded in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let c = case(kind, n_stages, bounded, seed);
            let mut want = Vec::new();
            nested_loops(&c, &mut Vec::new(), &mut want);
            want.sort();

            c.with_walk(|root, stages| {
                let mut got = Vec::new();
                let seeks = walk(root, &c.root_less, stages, |rows| got.push(collect(rows)));
                let (reference, reference_seeks) = reference_walk(&c);
                prop_assert_eq!(&got, &reference, "one piece, emission order");
                prop_assert_eq!(seeks, reference_seeks, "one piece, seek total");
                got.sort();
                prop_assert_eq!(&got, &want, "one piece against nested loops");

                for threads in [2, 4] {
                    let pool = ThreadPool::new(threads);
                    let (pieces, _) =
                        fan_out(root, &c.root_less, stages, Some(&pool), Vec::new, |acc, rows| {
                            acc.push(collect(rows))
                        });
                    let got: Vec<Vec<Tuple>> = pieces.into_iter().flatten().collect();
                    prop_assert_eq!(&got, &reference, "{} threads, pieces in root order", threads);
                }
                Ok(())
            })?;
        }
    }

    /// Small fixed joins whose residual equality and inequality name
    /// the candidate's key column, then its next column (both read as
    /// dense integers), then a third column (read from the tuple), with
    /// a root check of a third against a next column — each over
    /// all-integer relations and over relations with a `Str` payload:
    /// the sequential companion of the property test, cheap enough for
    /// the Miri job. Sources are read from an earlier row's key, next
    /// and third columns alike; on the next column the residual seeks
    /// inside the matched group.
    #[test]
    fn each_residual_path_matches_nested_loops() {
        // Rows `[key, next, third, payload]` drawn from a few small
        // values and both extremes; the payload joins nothing.
        let rel = |seed: u64, payload: bool| -> Vec<Tuple> {
            let mut state = seed;
            let mut draw = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                [0, 1, 2, 0, 1, 2, i64::MIN, i64::MAX][(state >> 61) as usize]
            };
            (0..12)
                .map(|_| {
                    let mut fields: Vec<Value> = (0..3).map(|_| Value::Int(draw())).collect();
                    fields.push(if payload {
                        Value::str("p")
                    } else {
                        Value::Int(0)
                    });
                    Tuple::new(TableId(0), fields)
                })
                .collect()
        };
        // Per target column, the seed of its first relation: each finds
        // rows, and fewer with the inequalities than without.
        for (field, seed) in [88, 5, 10].into_iter().enumerate() {
            // a.0 = b.0, a.1 = b.field, a.2 < b.field; then c.0 = b.1,
            // b.2 = c.field, b.0 < c.field. Every view is keyed on
            // column 0 and ordered by column 1.
            let keys: Vec<Vec<Pair>> = vec![
                vec![((0, 0), 0), ((0, 1), field)],
                vec![((1, 1), 0), ((1, 2), field)],
            ];
            let less = vec![vec![((0, 2), field)], vec![((1, 0), field)]];
            for payload in 0..8usize {
                let str_in = |bit: usize| payload >> bit & 1 == 1;
                let c = Case {
                    rels: (0..3).map(|i| rel(seed + i as u64, str_in(i))).collect(),
                    keys: keys.clone(),
                    less: less.clone(),
                    root_less: vec![(2, 1)],
                };
                let mut want = Vec::new();
                nested_loops(&c, &mut Vec::new(), &mut want);
                want.sort();
                let case = format!("field {field}, str payload {payload:03b}");
                let mut got = c.with_walk(|root, stages| {
                    let mut got = Vec::new();
                    let seeks = walk(root, &c.root_less, stages, |rows| got.push(collect(rows)));
                    let (reference, reference_seeks) = reference_walk(&c);
                    assert_eq!(got, reference, "{case}");
                    assert_eq!(seeks, reference_seeks, "{case}");
                    got
                });
                got.sort();
                assert_eq!(got, want, "{case}");
                assert!(
                    !want.is_empty(),
                    "{case}: the fixture must have rows to find"
                );
                let mut unbounded = Vec::new();
                let c = Case {
                    less: vec![Vec::new(); 2],
                    root_less: Vec::new(),
                    ..c
                };
                nested_loops(&c, &mut Vec::new(), &mut unbounded);
                assert!(
                    want.len() < unbounded.len(),
                    "{case}: the inequalities prune"
                );
            }
        }
    }

    #[test]
    fn fan_out_spreads_a_single_key_root_over_the_pool() {
        // Every root row shares one key: pieces cut by groups would be
        // one task. Cut by rows, a 2-thread pool gets 4·T pieces, each
        // walking its share of the one group in root order.
        let root: Vec<Tuple> = (0..64)
            .map(|i| Tuple::new(TableId(0), vec![Value::Int(7), Value::Int(i)]))
            .collect();
        let probe = vec![Tuple::new(TableId(0), vec![Value::Int(7), Value::Int(0)])];
        let (root, probe) = (view_of(0, &root), view_of(0, &probe));
        let keys = [((0, 0), 0)];
        let stages = [Stage::new(&probe, &keys, &[])];
        let pool = ThreadPool::new(2);
        let (pieces, _) = fan_out(&root, &[], &stages, Some(&pool), Vec::new, |acc, rows| {
            acc.push(rows[0].int(1))
        });
        assert_eq!(pieces.len(), 8, "4·T pieces over one group");
        assert!(pieces.iter().all(|p| p.len() == 8), "{pieces:?}");
        let order: Vec<i64> = pieces.into_iter().flatten().collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }
}
