//! Reduce and scan operations with user-defined operators (§1.3).
//!
//! "To replace some common uses of sequential loops, JStar supports reduce
//! and scan operations with user-defined operators." A [`Reducer`] is a
//! monoid over tuples: an identity, an `accept` step folding one tuple in,
//! and an associative `combine` so partial results can be merged by a
//! tree-based parallel pass (§5.2).
//!
//! [`Statistics`] is the standard reducer the PvWatts program uses
//! (`stats += record.power; ... stats.mean`).

use crate::tuple::Tuple;
use jstar_pool::ThreadPool;

/// A monoid over tuples.
pub trait Reducer: Send + Sync {
    /// The accumulator type.
    type Acc: Send;

    /// The monoid identity.
    fn identity(&self) -> Self::Acc;

    /// Folds one tuple into the accumulator.
    fn accept(&self, acc: &mut Self::Acc, t: &Tuple);

    /// Merges two accumulators. Must be associative, with
    /// [`Self::identity`] as the unit, for parallel reduction to be
    /// deterministic.
    fn combine(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// The field index this reducer reads per tuple, if any. The engine
    /// validates it against the queried table's arity so an
    /// out-of-bounds aggregate reports
    /// [`crate::error::JStarError::NoSuchField`] instead of panicking
    /// inside a store. Reducers that read no field (counts) keep the
    /// `None` default.
    fn input_field(&self) -> Option<usize> {
        None
    }
}

/// Accumulated summary statistics over a numeric field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    pub fn empty() -> Stats {
        Stats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Folds one sample in.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator in.
    pub fn merge(mut self, other: Stats) -> Stats {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self
    }
}

/// The paper's `Statistics` reducer over one numeric field
/// (Int or Double).
pub struct Statistics {
    pub field: usize,
}

impl Reducer for Statistics {
    type Acc = Stats;
    fn identity(&self) -> Stats {
        Stats::empty()
    }
    fn accept(&self, acc: &mut Stats, t: &Tuple) {
        acc.add(t.get(self.field).as_f64_lossy());
    }
    fn combine(&self, a: Stats, b: Stats) -> Stats {
        a.merge(b)
    }
    fn input_field(&self) -> Option<usize> {
        Some(self.field)
    }
}

/// Sums a numeric field.
pub struct SumReducer {
    pub field: usize,
}

impl Reducer for SumReducer {
    type Acc = f64;
    fn identity(&self) -> f64 {
        0.0
    }
    fn accept(&self, acc: &mut f64, t: &Tuple) {
        *acc += t.get(self.field).as_f64_lossy();
    }
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn input_field(&self) -> Option<usize> {
        Some(self.field)
    }
}

/// Counts tuples.
pub struct CountReducer;

impl Reducer for CountReducer {
    type Acc = u64;
    fn identity(&self) -> u64 {
        0
    }
    fn accept(&self, acc: &mut u64, _t: &Tuple) {
        *acc += 1;
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Minimum of an integer field (`get min Tuple1(...)` in §4's example).
pub struct MinIntReducer {
    pub field: usize,
}

impl Reducer for MinIntReducer {
    type Acc = Option<i64>;
    fn identity(&self) -> Option<i64> {
        None
    }
    fn accept(&self, acc: &mut Option<i64>, t: &Tuple) {
        let v = t.int(self.field);
        *acc = Some(acc.map_or(v, |a| a.min(v)));
    }
    fn combine(&self, a: Option<i64>, b: Option<i64>) -> Option<i64> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }
    fn input_field(&self) -> Option<usize> {
        Some(self.field)
    }
}

/// Maximum of an integer field.
pub struct MaxIntReducer {
    pub field: usize,
}

impl Reducer for MaxIntReducer {
    type Acc = Option<i64>;
    fn identity(&self) -> Option<i64> {
        None
    }
    fn accept(&self, acc: &mut Option<i64>, t: &Tuple) {
        let v = t.int(self.field);
        *acc = Some(acc.map_or(v, |a| a.max(v)));
    }
    fn combine(&self, a: Option<i64>, b: Option<i64>) -> Option<i64> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (x, None) | (None, x) => x,
        }
    }
    fn input_field(&self) -> Option<usize> {
        Some(self.field)
    }
}

/// Sequential reduction over a slice of tuples.
pub fn reduce_seq<R: Reducer>(reducer: &R, tuples: &[Tuple]) -> R::Acc {
    let mut acc = reducer.identity();
    for t in tuples {
        reducer.accept(&mut acc, t);
    }
    acc
}

/// Parallel tree reduction over a slice of tuples: chunks are folded in
/// parallel, partials merged with `combine` — §5.2's "tree-based pass to
/// combine the final reducer results".
pub fn reduce_par<R: Reducer>(pool: &ThreadPool, reducer: &R, tuples: &[Tuple]) -> R::Acc {
    let chunk = jstar_pool::adaptive_chunk(pool, tuples.len());
    let tasks: Vec<_> = tuples
        .chunks(chunk)
        .map(|piece| move || reduce_seq(reducer, piece))
        .collect();
    jstar_pool::parallel_tasks(pool, tasks)
        .into_iter()
        .fold(reducer.identity(), |a, b| reducer.combine(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;
    use crate::value::Value;

    fn tuples(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|v| Tuple::new(TableId(0), vec![Value::Int(*v)]))
            .collect()
    }

    #[test]
    fn statistics_reducer_computes_mean() {
        let r = Statistics { field: 0 };
        let acc = reduce_seq(&r, &tuples(&[10, 20, 30]));
        assert_eq!(acc.count, 3);
        assert_eq!(acc.sum, 60.0);
        assert_eq!(acc.mean(), 20.0);
        assert_eq!(acc.min, 10.0);
        assert_eq!(acc.max, 30.0);
    }

    #[test]
    fn statistics_identity_is_unit() {
        let r = Statistics { field: 0 };
        let a = reduce_seq(&r, &tuples(&[1, 2, 3]));
        let merged = r.combine(a, r.identity());
        assert_eq!(merged, a);
        let merged = r.combine(r.identity(), a);
        assert_eq!(merged, a);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = ThreadPool::new(4);
        let data: Vec<i64> = (0..10_000).map(|i| (i * 37) % 1000).collect();
        let ts = tuples(&data);
        let r = Statistics { field: 0 };
        let seq = reduce_seq(&r, &ts);
        let par = reduce_par(&pool, &r, &ts);
        assert_eq!(seq.count, par.count);
        assert_eq!(seq.sum, par.sum);
        assert_eq!(seq.min, par.min);
        assert_eq!(seq.max, par.max);
    }

    #[test]
    fn sum_count_min_max_reducers() {
        let ts = tuples(&[5, -3, 12]);
        assert_eq!(reduce_seq(&SumReducer { field: 0 }, &ts), 14.0);
        assert_eq!(reduce_seq(&CountReducer, &ts), 3);
        assert_eq!(reduce_seq(&MinIntReducer { field: 0 }, &ts), Some(-3));
        assert_eq!(reduce_seq(&MaxIntReducer { field: 0 }, &ts), Some(12));
        assert_eq!(reduce_seq(&MinIntReducer { field: 0 }, &[]), None);
    }

    #[test]
    fn min_combine_handles_none() {
        let r = MinIntReducer { field: 0 };
        assert_eq!(r.combine(None, Some(3)), Some(3));
        assert_eq!(r.combine(Some(2), None), Some(2));
        assert_eq!(r.combine(Some(2), Some(3)), Some(2));
        assert_eq!(r.combine(None, None), None);
    }
}
