//! The custom "array-of-hashsets" Gamma store for the PvWatts table
//! (§6.2): "we manually implemented a custom data structure for the
//! PvWatts Gamma database that has an array indexed by month (1..12) at
//! the top level, and either a HashSet or ConcurrentHashMap within each
//! entry of the array."
//!
//! Here: a fixed 12-entry array indexed by month, each entry a mutex-held
//! map from year to that month's power samples. The summarise rule
//! downcasts ([`jstar_core::gamma::TableStore::as_any`]) to read the raw
//! samples without materialising tuples — the paper's hand-written
//! override of "one factory method".

use jstar_core::gamma::{InsertOutcome, TableStore};
use jstar_core::query::Probe;
use jstar_core::relation::Relation;
use jstar_core::schema::TableDef;
use jstar_core::tuple::Tuple;
use jstar_core::value::Value;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Compact storage of one PvWatts record (day, hour, power).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    day: i32,
    hour: i32,
    power: i64,
}

/// This store's own decode-side view of a PvWatts row: a hand-written
/// struct wrapping the domain `Sample`, mapped onto the `PvWatts`
/// table schema by the [`jstar_core::relation!`] `as "PvWatts"` form.
/// The store decodes and addresses columns through this type — field
/// offsets live in the declaration below, not sprinkled through the
/// store — without depending on the app-level `PvWatts` relation that
/// owns the table.
#[derive(Debug, Clone, PartialEq)]
pub struct HourSample {
    pub year: i64,
    pub month: i64,
    pub day: i64,
    pub hour: i64,
    pub power: i64,
}

jstar_core::relation! {
    HourSample as "PvWatts" (int year, int month, int day, int hour, int power)
        orderby (PvWatts)
}

impl HourSample {
    /// The compact in-store representation (drops the bucket keys).
    fn sample(&self) -> Sample {
        Sample {
            day: self.day as i32,
            hour: self.hour as i32,
            power: self.power,
        }
    }
}

/// Custom month-indexed store for the PvWatts table.
///
/// Set-semantics note: like the paper's hand-rolled store, inserts do not
/// re-check for duplicates (the input has one record per hour, so
/// duplicates cannot arise); this is exactly the kind of assumption a
/// custom data-structure hint trades for speed.
pub struct MonthArrayStore {
    def: Arc<TableDef>,
    /// `months[m-1]` holds year → samples.
    months: [Mutex<HashMap<i64, Vec<Sample>>>; 12],
    len: AtomicUsize,
}

impl MonthArrayStore {
    pub fn new(def: Arc<TableDef>) -> Self {
        MonthArrayStore {
            def,
            months: Default::default(),
            len: AtomicUsize::new(0),
        }
    }

    /// Factory for [`jstar_core::gamma::StoreKind::Custom`].
    pub fn factory() -> jstar_core::gamma::StoreKind {
        jstar_core::gamma::StoreKind::Custom(Arc::new(|def| {
            Arc::new(MonthArrayStore::new(def)) as Arc<dyn TableStore>
        }))
    }

    /// Fast path used by the summarise rule after downcasting: folds every
    /// power sample of `(year, month)` through `f` without building
    /// tuples.
    pub fn fold_powers<A>(
        &self,
        year: i64,
        month: i64,
        init: A,
        mut f: impl FnMut(A, i64) -> A,
    ) -> A {
        let mut acc = init;
        if !(1..=12).contains(&month) {
            return acc;
        }
        let bucket = self.months[(month - 1) as usize].lock();
        if let Some(samples) = bucket.get(&year) {
            for s in samples {
                acc = f(acc, s.power);
            }
        }
        acc
    }

    fn tuple_of(&self, year: i64, month: i64, s: Sample) -> Tuple {
        Tuple::new(
            self.def.id,
            vec![
                Value::Int(year),
                Value::Int(month),
                Value::Int(s.day as i64),
                Value::Int(s.hour as i64),
                Value::Int(s.power),
            ],
        )
    }
}

impl TableStore for MonthArrayStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        // Decode through the store's typed view: field offsets live in
        // one place (the `relation!` declaration), not in this store.
        let r = HourSample::from_tuple(&t);
        assert!(
            (1..=12).contains(&r.month),
            "month out of range: {}",
            r.month
        );
        let sample = r.sample();
        self.months[(r.month - 1) as usize]
            .lock()
            .entry(r.year)
            .or_default()
            .push(sample);
        self.len.fetch_add(1, Ordering::Relaxed);
        InsertOutcome::Fresh
    }

    fn contains(&self, t: &Tuple) -> bool {
        let r = HourSample::from_tuple(t);
        if !(1..=12).contains(&r.month) {
            return false;
        }
        let probe = r.sample();
        self.months[(r.month - 1) as usize]
            .lock()
            .get(&r.year)
            .is_some_and(|v| v.contains(&probe))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for (mi, bucket) in self.months.iter().enumerate() {
            let bucket = bucket.lock();
            for (&year, samples) in bucket.iter() {
                for &s in samples {
                    if !f(&self.tuple_of(year, mi as i64 + 1, s)) {
                        return;
                    }
                }
            }
        }
    }

    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        // The intended access path: year and month both bound.
        if let (Some(year), Some(month)) = (
            q.eq_value(HourSample::year.index()),
            q.eq_value(HourSample::month.index()),
        ) {
            let (year, month) = (year.as_int(), month.as_int());
            if !(1..=12).contains(&month) {
                return;
            }
            let bucket = self.months[(month - 1) as usize].lock();
            if let Some(samples) = bucket.get(&year) {
                for &s in samples {
                    let t = self.tuple_of(year, month, s);
                    if q.matches(&t) && !f(&t) {
                        return;
                    }
                }
            }
            return;
        }
        self.for_each(&mut |t| if q.matches(t) { f(t) } else { true });
    }

    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        let mut removed = 0usize;
        for (mi, bucket) in self.months.iter().enumerate() {
            let mut bucket = bucket.lock();
            for (&year, samples) in bucket.iter_mut() {
                samples.retain(|&s| {
                    let keep_it = keep(&self.tuple_of(year, mi as i64 + 1, s));
                    if !keep_it {
                        removed += 1;
                    }
                    keep_it
                });
            }
        }
        self.len.fetch_sub(removed, Ordering::Relaxed);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jstar_core::orderby::strat;
    use jstar_core::schema::{TableDefBuilder, TableId};

    fn def() -> Arc<TableDef> {
        Arc::new(
            TableDefBuilder::standalone("PvWatts")
                .col_int("year")
                .col_int("month")
                .col_int("day")
                .col_int("hour")
                .col_int("power")
                .orderby(&[strat("PvWatts")])
                .build_def(TableId(0)),
        )
    }

    fn rec(y: i64, m: i64, d: i64, h: i64, p: i64) -> Tuple {
        Tuple::new(
            TableId(0),
            vec![
                Value::Int(y),
                Value::Int(m),
                Value::Int(d),
                Value::Int(h),
                Value::Int(p),
            ],
        )
    }

    #[test]
    fn insert_and_query_by_year_month() {
        let store = MonthArrayStore::new(def());
        store.insert(rec(2000, 1, 1, 12, 100));
        store.insert(rec(2000, 1, 2, 12, 200));
        store.insert(rec(2000, 2, 1, 12, 999));
        store.insert(rec(2001, 1, 1, 12, 50));
        assert_eq!(store.len(), 4);

        let q = jstar_core::query::Query::on(TableId(0))
            .eq(HourSample::year.index(), 2000i64)
            .eq(HourSample::month.index(), 1i64);
        let mut powers = Vec::new();
        store.query(q.probe(), &mut |t| {
            powers.push(t.int(HourSample::power.index()));
            true
        });
        powers.sort();
        assert_eq!(powers, vec![100, 200]);
    }

    #[test]
    fn fold_powers_fast_path() {
        let store = MonthArrayStore::new(def());
        for p in [10, 20, 30] {
            store.insert(rec(2000, 3, 1, 12, p));
        }
        let sum = store.fold_powers(2000, 3, 0i64, |a, p| a + p);
        assert_eq!(sum, 60);
        let none = store.fold_powers(2000, 4, 0i64, |a, p| a + p);
        assert_eq!(none, 0);
        let bad_month = store.fold_powers(2000, 13, 7i64, |a, _| a);
        assert_eq!(bad_month, 7);
    }

    #[test]
    fn contains_and_for_each() {
        let store = MonthArrayStore::new(def());
        store.insert(rec(2000, 5, 9, 12, 77));
        assert!(store.contains(&rec(2000, 5, 9, 12, 77)));
        assert!(!store.contains(&rec(2000, 5, 9, 12, 78)));
        let mut count = 0;
        store.for_each(&mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn retain_drops_and_recounts() {
        let store = MonthArrayStore::new(def());
        for d in 1..=10 {
            store.insert(rec(2000, 6, d, 12, d * 10));
        }
        store.retain(&|t| t.int(HourSample::power.index()) > 50);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn concurrent_inserts_count_correctly() {
        let store = Arc::new(MonthArrayStore::new(def()));
        let pool = jstar_pool::ThreadPool::new(4);
        pool.scope(|s| {
            for m in 1..=12i64 {
                let store = Arc::clone(&store);
                s.spawn(move |_| {
                    for d in 1..=28 {
                        store.insert(rec(2000, m, d, 12, d));
                    }
                });
            }
        });
        assert_eq!(store.len(), 12 * 28);
        let sum = store.fold_powers(2000, 1, 0i64, |a, p| a + p);
        assert_eq!(sum, (1..=28).sum::<i64>());
    }
}
