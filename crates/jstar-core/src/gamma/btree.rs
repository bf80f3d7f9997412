//! Sequential ordered store — the paper's `TreeSet` default.

use super::{insert_locked, ColumnIndex, InsertOutcome, StagedImport, TableStore};
use crate::query::Probe;
use crate::schema::TableDef;
use crate::tuple::Tuple;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An ordered tuple store backed by one `BTreeSet` behind a mutex.
///
/// This is the default Gamma data structure for sequential code (§5):
/// ordered traversal means "queries of any ordered subset of the tuples can
/// be performed reasonably efficiently". Queries that equality-constrain
/// the *first* column use a range scan over the tree instead of a full
/// scan (the `NavigableSet` subset trick).
pub struct BTreeStore {
    def: Arc<TableDef>,
    set: Mutex<BTreeSet<Tuple>>,
}

impl BTreeStore {
    pub fn new(def: Arc<TableDef>) -> Self {
        BTreeStore {
            def,
            set: Mutex::new(BTreeSet::new()),
        }
    }
}

/// A second tree, built aside with the checks every insert gets.
struct TreeImport<'a> {
    store: &'a BTreeStore,
    fresh: BTreeSet<Tuple>,
}

impl StagedImport for TreeImport<'_> {
    fn push(&mut self, rows: &mut Vec<Tuple>) -> usize {
        let mut rejected = 0;
        for t in rows.drain(..) {
            if insert_locked(&self.store.def, &mut self.fresh, t) != InsertOutcome::Fresh {
                rejected += 1;
            }
        }
        rejected
    }

    fn commit(self: Box<Self>) -> usize {
        *self.store.set.lock() = self.fresh;
        0
    }
}

impl TableStore for BTreeStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        insert_locked(&self.def, &mut self.set.lock(), t)
    }

    fn insert_batch(&self, tuples: &[Tuple], outcomes: &mut Vec<InsertOutcome>) {
        // One lock acquisition for the whole batch.
        let mut set = self.set.lock();
        outcomes.extend(
            tuples
                .iter()
                .map(|t| insert_locked(&self.def, &mut set, t.clone())),
        );
    }

    fn contains(&self, t: &Tuple) -> bool {
        self.set.lock().contains(t)
    }

    fn len(&self) -> usize {
        self.set.lock().len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for t in self.set.lock().iter() {
            if !f(t) {
                return;
            }
        }
    }

    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        let set = self.set.lock();
        // Narrow by the first column when it is equality-constrained:
        // tuples sort by fields, so rows with field0 == v are contiguous.
        if let Some(v) = q.eq_value(0) {
            let probe = Tuple::new(q.table(), vec![v.clone()]);
            for t in set.range(probe..) {
                if t.get(0) != v {
                    break;
                }
                if q.matches(t) && !f(t) {
                    return;
                }
            }
            return;
        }
        for t in set.iter() {
            if q.matches(t) && !f(t) {
                return;
            }
        }
    }

    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        self.set.lock().retain(|t| keep(t));
    }

    fn begin_import(&self, _rows: usize) -> Box<dyn StagedImport + '_> {
        Box::new(TreeImport {
            store: self,
            fresh: BTreeSet::new(),
        })
    }

    fn open_cursor(&self, field: usize) -> Arc<ColumnIndex> {
        if field != 0 {
            // Non-leading columns are unordered here; fall back to the
            // sorting build.
            return Arc::new(ColumnIndex::build(field, &mut |emit| {
                self.for_each(&mut |t| {
                    emit(t);
                    true
                });
            }));
        }
        // Tuples sort by fields, so one linear pass over the tree yields
        // the field-0 pairs already in ascending order: no sort, only
        // the cut (which re-checks the order).
        let pairs: Vec<(crate::value::Value, Tuple)> = (self.set.lock().iter())
            .map(|t| (t.get(0).clone(), t.clone()))
            .collect();
        match ColumnIndex::try_from_sorted(pairs) {
            Ok(idx) => Arc::new(idx),
            // Unreachable while tree iteration is sorted, but a broken
            // producer must degrade to the sorting build rather than
            // silently corrupt every later seek.
            Err(_) => Arc::new(ColumnIndex::build(0, &mut |emit| {
                self.for_each(&mut |t| {
                    emit(t);
                    true
                });
            })),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::{exercise_store_contract, keyed_def, kt};
    use crate::query::Query;
    use crate::schema::TableId;
    use crate::value::Value;

    #[test]
    fn satisfies_store_contract() {
        let store = BTreeStore::new(keyed_def());
        exercise_store_contract(&store, true);
    }

    #[test]
    fn first_field_query_uses_range_and_is_correct() {
        let store = BTreeStore::new(keyed_def());
        for a in 0..100 {
            store.insert(kt(a, a * 10, "v"));
        }
        let q = Query::on(TableId(0)).eq(0, 42i64);
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(t.clone());
            true
        });
        assert_eq!(got, vec![kt(42, 420, "v")]);
    }

    #[test]
    fn iteration_is_sorted() {
        let store = BTreeStore::new(keyed_def());
        store.insert(kt(3, 0, "c"));
        store.insert(kt(1, 0, "a"));
        store.insert(kt(2, 0, "b"));
        let mut keys = Vec::new();
        store.for_each(&mut |t| {
            keys.push(t.int(0));
            true
        });
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn key_conflict_found_among_many() {
        let store = BTreeStore::new(keyed_def());
        for a in 0..50 {
            assert_eq!(store.insert(kt(a, a, "v")), InsertOutcome::Fresh);
        }
        assert_eq!(store.insert(kt(25, 99, "v")), InsertOutcome::KeyConflict);
        assert_eq!(store.insert(kt(25, 25, "v")), InsertOutcome::Duplicate);
    }

    #[test]
    fn field0_cursor_groups_off_the_sorted_tree() {
        let store = BTreeStore::new(crate::gamma::testutil::set_def());
        for (x, y) in [(3, 1), (1, 1), (3, 2), (2, 1), (3, 3)] {
            store.insert(Tuple::new(TableId(0), vec![Value::Int(x), Value::Int(y)]));
        }
        let idx = store.open_cursor(0);
        let mut c = idx.cursor();
        assert_eq!(c.key(), Some(&Value::Int(1)));
        assert_eq!(c.seek_exact(&Value::Int(3)).map(|g| g.len()), Some(3));
        // The fallback path over a non-leading column agrees.
        let idx1 = store.open_cursor(1);
        assert_eq!(idx1.len(), 3);
        let mut c1 = idx1.cursor();
        assert_eq!(c1.seek_exact(&Value::Int(1)).map(|g| g.len()), Some(3));
    }

    #[test]
    fn keyless_store_accepts_same_prefix() {
        let store = BTreeStore::new(crate::gamma::testutil::set_def());
        let a = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(2)]);
        let b = Tuple::new(TableId(0), vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(store.insert(a), InsertOutcome::Fresh);
        assert_eq!(store.insert(b), InsertOutcome::Fresh);
        assert_eq!(store.len(), 2);
    }
}
