//! Property-based tests for the core runtime data structures.

use jstar_core::causality::linear::{satisfiable, Constraint, LinExpr, Rational};
use jstar_core::delta::{DeltaTree, ShardedInbox};
use jstar_core::engine::{Engine, EngineConfig};
use jstar_core::gamma::{HashStore, InsertOutcome, StoreFactory, StoreKind, TableStore};
use jstar_core::orderby::{KeyPart, OrderKey};
use jstar_core::program::ProgramBuilder;
use jstar_core::query::Query;
use jstar_core::relation::{Binder, Field, PreparedQuery, Relation, TableHandle};
use jstar_core::schema::{TableDefBuilder, TableId};
use jstar_core::tuple::Tuple;
use jstar_core::value::Value;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::sync::OnceLock;

/// One shared pool for the partitioned-merge properties: spinning
/// threads per proptest case would dominate the run time.
fn merge_pool() -> &'static jstar_pool::ThreadPool {
    static POOL: OnceLock<jstar_pool::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| jstar_pool::ThreadPool::new(4))
}

/// The reference [`OrderKey`] is held against: the representation it
/// replaced — a `Vec` of these parts, a `seq` part keeping its whole
/// [`Value`] — under the derived order, equality and hash (stratum parts
/// before `seq` parts, `seq` parts as `Value` orders them, a strict prefix
/// first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ModelPart {
    Strat(u32),
    Seq(Value),
}

/// The packed key with the model key's parts.
fn packed(model: &[ModelPart]) -> OrderKey {
    OrderKey::from_parts(model.iter().map(|p| match p {
        ModelPart::Strat(rank) => KeyPart::Strat(*rank),
        ModelPart::Seq(v) => KeyPart::seq(v),
    }))
}

/// Keys of 0–6 parts — in place (up to four, no string) and spilled — over small
/// domains, so equal parts, equal keys and prefixes all come up: strata,
/// and `seq` parts of every field type (doubles with both zeros, NaN and
/// an infinity: the order is `total_cmp`'s).
fn arb_model_key() -> impl Strategy<Value = Vec<ModelPart>> {
    let doubles = [-1.5, -0.0, 0.0, 2.0, f64::NAN, f64::INFINITY];
    prop::collection::vec(
        prop_oneof![
            (0u32..4).prop_map(ModelPart::Strat),
            (-3i64..3).prop_map(|v| ModelPart::Seq(Value::Int(v))),
            "[ab]{0,2}".prop_map(|s| ModelPart::Seq(Value::str(s))),
            (0usize..doubles.len()).prop_map(move |i| ModelPart::Seq(Value::Double(doubles[i]))),
            any::<bool>().prop_map(|b| ModelPart::Seq(Value::Bool(b))),
        ],
        0..7,
    )
}

fn arb_key() -> impl Strategy<Value = OrderKey> {
    arb_model_key().prop_map(|model| packed(&model))
}

fn hash_of(v: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// OrderKey comparison is a total order: antisymmetric & transitive.
    #[test]
    fn order_key_total_order(a in arb_key(), b in arb_key(), c in arb_key()) {
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    /// The packed key — inline or spilled — is the `Vec` model under
    /// another layout: same order, same equality, equal keys hash equal,
    /// and a strict prefix orders first.
    #[test]
    fn order_key_matches_the_vec_model(
        a in arb_model_key(),
        b in arb_model_key(),
        cut in 0usize..7,
    ) {
        let (ka, kb) = (packed(&a), packed(&b));
        prop_assert_eq!(ka.len(), a.len());
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka == kb, a == b);
        // Equal keys hash equal — here because both feed a hasher exactly
        // what their model does, so the inbox partitions keys as before.
        prop_assert_eq!((hash_of(&ka), hash_of(&kb)), (hash_of(&a), hash_of(&b)));
        // A key rebuilt from its own parts is the same key.
        let again = OrderKey::from_parts(ka.parts());
        prop_assert_eq!((again == ka, hash_of(&again)), (true, hash_of(&ka)));
        // The prefix rule, across the inline/spilled boundary too.
        let prefix = &a[..cut.min(a.len())];
        let want = if prefix.len() < a.len() { Ordering::Less } else { Ordering::Equal };
        prop_assert_eq!(packed(prefix).cmp(&ka), want);
        prop_assert!(packed(prefix).causally_le(&ka));
    }

    /// The Delta tree behaves exactly like a reference model: a map from
    /// key to set of tuples, popped in key order.
    #[test]
    fn delta_tree_matches_reference_model(
        inserts in prop::collection::vec((arb_model_key(), -50i64..50), 0..200)
    ) {
        // The model is keyed by the `Vec` keys; the tree gets their packed
        // forms — mixed lengths and shapes, prefixes, spilled keys and all.
        let mut tree = DeltaTree::new();
        let mut model: BTreeMap<Vec<ModelPart>, HashSet<i64>> = BTreeMap::new();
        for (key, v) in &inserts {
            let tuple = Tuple::new(TableId(0), vec![Value::Int(*v)]);
            let fresh_tree = tree.insert(&packed(key), tuple);
            let fresh_model = model.entry(key.clone()).or_default().insert(*v);
            prop_assert_eq!(fresh_tree, fresh_model);
        }
        let model_len: usize = model.values().map(|s| s.len()).sum();
        prop_assert_eq!(tree.len(), model_len);
        for (key, set) in model {
            let (k, class) = tree.pop_min_class().expect("model non-empty");
            prop_assert_eq!(&k, &packed(&key));
            let got: HashSet<i64> = class.iter().map(|t| t.int(0)).collect();
            prop_assert_eq!(got, set);
        }
        prop_assert!(tree.pop_min_class().is_none());
    }

    /// `merge_partitioned` + `pop_min_class` yields the exact sequence of
    /// the sequential insert path for arbitrary key/tuple batches — same
    /// keys in the same order, same class contents, same dedup counts —
    /// whatever the partition count, the merge threshold (parallel or
    /// sequential fallback), or which staging shard each entry arrived
    /// through. This is the order-identity obligation of the partitioned
    /// coordinator drain.
    #[test]
    fn merge_partitioned_pops_identically_to_sequential(
        inserts in prop::collection::vec(
            (0u32..3, -10i64..10, 0u32..2, -30i64..30),
            0..300,
        ),
        partitions_pow in 0u32..5,
        threshold_pick in 0u32..3,
    ) {
        let partitions = 1usize << partitions_pow;
        let threshold = [1usize, 64, usize::MAX][threshold_pick as usize];
        let entries: Vec<(OrderKey, Tuple)> = inserts
            .iter()
            .map(|&(s, q, table, v)| {
                (
                    OrderKey::from_parts([KeyPart::Strat(s), KeyPart::Int(q)]),
                    Tuple::new(TableId(table), vec![Value::Int(v)]),
                )
            })
            .collect();

        // Reference: plain sequential inserts in arrival order, into the
        // tree and into a dumb model (an ordered map of ordered sets).
        let mut seq_tree = DeltaTree::new();
        let mut model: BTreeMap<OrderKey, BTreeSet<Tuple>> = BTreeMap::new();
        let mut seq_inserted = 0u64;
        for (k, t) in &entries {
            let fresh = seq_tree.insert(k, t.clone());
            prop_assert_eq!(fresh, model.entry(k.clone()).or_default().insert(t.clone()));
            seq_inserted += fresh as u64;
        }

        // Partitioned path: stage through the inbox (binning at push
        // time), drain per partition, merge on the pool.
        let inbox = ShardedInbox::with_partitioning(3, partitions, 2);
        for (i, (k, t)) in entries.iter().enumerate() {
            inbox.push(i % 4, k.clone(), t.clone());
        }
        let mut runs: Vec<Vec<(OrderKey, Tuple)>> =
            (0..inbox.partitions()).map(|_| Vec::new()).collect();
        inbox.swap_epoch(&mut runs);

        let mut by_table = vec![0u64; 2];
        let mut par_tree = DeltaTree::new();
        let inserted =
            par_tree.merge_partitioned(&mut runs, Some(merge_pool()), &mut by_table, threshold);
        prop_assert_eq!(inserted as u64, seq_inserted);
        prop_assert_eq!(by_table.iter().sum::<u64>(), seq_inserted);
        prop_assert_eq!(par_tree.len(), seq_tree.len());

        // Identical extraction sequence: the model's, in key order.
        for (key, set) in model {
            let want: Vec<Tuple> = set.into_iter().collect();
            for tree in [&mut seq_tree, &mut par_tree] {
                let (k, mut class) = tree.pop_min_class().expect("model non-empty");
                prop_assert_eq!(&k, &key);
                class.sort();
                prop_assert_eq!(&class, &want);
            }
        }
        prop_assert!(seq_tree.pop_min_class().is_none());
        prop_assert!(par_tree.pop_min_class().is_none());
    }

    /// `HashStore` chained on the key and off it agrees with a reference
    /// set under random insert sequences (set semantics + primary key
    /// enforcement).
    #[test]
    fn stores_agree_with_reference(
        ops in prop::collection::vec((0i64..20, 0i64..5), 1..150)
    ) {
        let def = Arc::new(
            TableDefBuilder::standalone("T")
                .col_int("k")
                .col_int("v")
                .key(1)
                .build_def(TableId(0)),
        );
        let stores: Vec<Box<dyn TableStore>> = vec![
            Box::new(HashStore::new(Arc::clone(&def), vec![0])),
            Box::new(HashStore::new(Arc::clone(&def), vec![1])),
        ];
        // Reference: first write wins per key.
        let mut reference: BTreeMap<i64, i64> = BTreeMap::new();
        let mut expected: Vec<InsertOutcome> = Vec::new();
        for &(k, v) in &ops {
            let outcome = match reference.get(&k) {
                None => {
                    reference.insert(k, v);
                    InsertOutcome::Fresh
                }
                Some(&old) if old == v => InsertOutcome::Duplicate,
                Some(_) => InsertOutcome::KeyConflict,
            };
            expected.push(outcome);
        }
        for store in &stores {
            for (&(k, v), want) in ops.iter().zip(&expected) {
                let t = Tuple::new(TableId(0), vec![Value::Int(k), Value::Int(v)]);
                prop_assert_eq!(store.insert(t), *want);
            }
            prop_assert_eq!(store.len(), reference.len());
        }
    }

    /// The FM solver is sound: whenever it says UNSAT, no integer point in
    /// a sampled grid satisfies the system (3 variables).
    #[test]
    fn fm_unsat_implies_no_integer_point(
        raw in prop::collection::vec(
            (-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6, any::<bool>()),
            1..6,
        )
    ) {
        let constraints: Vec<Constraint> = raw
            .iter()
            .map(|&(a, b, c, k, strict)| {
                let expr = LinExpr::var(0).scale(Rational::int(a))
                    + LinExpr::var(1).scale(Rational::int(b))
                    + LinExpr::var(2).scale(Rational::int(c))
                    + LinExpr::constant(-k);
                Constraint { expr, strict }
            })
            .collect();
        if !satisfiable(&constraints) {
            for x in -8i64..=8 {
                for y in -8i64..=8 {
                    for z in -8i64..=8 {
                        let all_hold = raw.iter().all(|&(a, b, c, k, strict)| {
                            let v = a * x + b * y + c * z - k;
                            if strict { v < 0 } else { v <= 0 }
                        });
                        prop_assert!(
                            !all_hold,
                            "FM said unsat but ({x},{y},{z}) satisfies the system"
                        );
                    }
                }
            }
        }
    }

    /// Value ordering is total and consistent with equality/hashing.
    #[test]
    fn value_order_consistency(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a == b {
            prop_assert_eq!(a.cmp(&b), Ordering::Equal);
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-z]{0,6}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

// ── One bound path ───────────────────────────────────────────────────
//
// A prepared query evaluated with a binder's values must read Gamma
// exactly as the positional query holding the same values as constants,
// and both as a plain filter over `for_each` — on every store's access
// path: `HashStore` chained on the primary key, on a non-key column
// and queried without its chain, and chained on the key's first column
// (the engine default, named and left unnamed); and a custom store on
// the trait's default `query`. Every case also reads the table inside
// its own iteration, in the sequential and the parallel engine.

jstar_core::jstar_table! {
    #[derive(Copy, Eq)]
    pub Row(int a, int b -> int c) orderby (Row)
}

jstar_core::jstar_table! {
    #[derive(Copy, Eq)]
    pub Go(int id) orderby (Go)
}

/// One comparison `column op value`: a constant, or a bind slot given
/// `value` (shifted, for the nested call) by the binder.
#[derive(Debug, Clone, Copy)]
struct Cmp {
    col: usize,
    /// 0 `==`, 1 `<`, 2 `<=`, 3 `>`, 4 `>=`.
    op: u8,
    value: i64,
    bound: bool,
}

const COLS: [Field<Row, i64>; 3] = [Row::a, Row::b, Row::c];

impl Cmp {
    fn value(&self, shift: i64) -> i64 {
        if self.bound {
            self.value + shift
        } else {
            self.value
        }
    }

    fn holds(&self, t: &Tuple, shift: i64) -> bool {
        let (v, x) = (t.int(self.col), self.value(shift));
        [v == x, v < x, v <= x, v > x, v >= x][self.op as usize]
    }
}

/// Up to three comparisons, plus — half the time — one column bound on
/// both sides by two slots (`bind_ge(x).bind_le(x)`).
fn arb_cmps() -> impl Strategy<Value = Vec<Cmp>> {
    let cmp =
        (0usize..3, 0u8..5, -1i64..4, any::<bool>()).prop_map(|(col, op, value, bound)| Cmp {
            col,
            op,
            value,
            bound,
        });
    let pair = (any::<bool>(), 0usize..3, -1i64..2, 0i64..3);
    (prop::collection::vec(cmp, 0..4), pair).prop_map(|(mut cmps, (on, col, lo, width))| {
        if on {
            let side = |op, value| Cmp {
                col,
                op,
                value,
                bound: true,
            };
            cmps.extend([side(4, lo), side(2, lo + width)]);
        }
        cmps
    })
}

fn prepared(cmps: &[Cmp], h: TableHandle<Row>) -> PreparedQuery<Row> {
    let mut q = Row::query();
    for c in cmps {
        let f = COLS[c.col];
        q = match (c.bound, c.op) {
            (true, 0) => q.bind_eq(f),
            (true, 1) => q.bind_lt(f),
            (true, 2) => q.bind_le(f),
            (true, 3) => q.bind_gt(f),
            (true, _) => q.bind_ge(f),
            (false, 0) => q.eq(f, c.value),
            (false, 1) => q.lt(f, c.value),
            (false, 2) => q.le(f, c.value),
            (false, 3) => q.gt(f, c.value),
            (false, _) => q.ge(f, c.value),
        };
    }
    q.prepare(h)
}

fn binder<'q>(pq: &'q PreparedQuery<Row>, cmps: &[Cmp], shift: i64) -> Binder<'q, Row> {
    let bound = cmps.iter().filter(|c| c.bound);
    bound.fold(pq.binder(), |b, c| b.set(COLS[c.col], c.value(shift)))
}

fn positional(cmps: &[Cmp], table: TableId, shift: i64) -> Query {
    cmps.iter().fold(Query::on(table), |q, c| {
        let (f, v) = (c.col, c.value(shift));
        [Query::eq, Query::lt, Query::le, Query::gt, Query::ge][c.op as usize](q, f, v)
    })
}

/// A store with only the required methods: reads take the trait's
/// default `query`.
struct DefaultQueryStore(HashStore);

impl TableStore for DefaultQueryStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        self.0.insert(t)
    }
    fn contains(&self, t: &Tuple) -> bool {
        self.0.contains(t)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        self.0.for_each(f)
    }
    fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        self.0.retain(keep)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Every read of one case: rows by binder, by positional query and by
/// filtered `for_each`, `count_rel` by binder, and the rows of the same
/// query with shifted values, read inside each row of its own iteration.
#[derive(Debug, Default, PartialEq)]
struct Reads {
    by_binder: Vec<Row>,
    by_position: Vec<Row>,
    by_filter: Vec<Row>,
    count: u64,
    nested: Vec<(Vec<Row>, Vec<Row>)>,
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| (r.a, r.b, r.c));
    rows
}

/// Runs the reads on `kind` (`None`: the engine's default store) under
/// `config`.
fn run_reads(rows: &[Row], cmps: &[Cmp], kind: Option<&StoreKind>, config: EngineConfig) -> Reads {
    let mut p = ProgramBuilder::new();
    let row_h = p.relation::<Row>();
    p.relation::<Go>();
    p.order(&["Row", "Go"]);
    let pq = prepared(cmps, row_h);
    let cmps = cmps.to_vec();
    let out = Arc::new(parking_lot::Mutex::new(Reads::default()));
    let sink = Arc::clone(&out);
    p.rule_rel("read", move |ctx, _: Go| {
        let table = row_h.id();
        let filter = |shift| {
            let mut all = Vec::new();
            ctx.store(table).for_each(&mut |t| {
                if cmps.iter().all(|c| c.holds(t, shift)) {
                    all.push(Row::from_tuple(t));
                }
                true
            });
            sorted(all)
        };
        let mut r = Reads {
            by_binder: sorted(ctx.query_rel(binder(&pq, &cmps, 0))),
            by_position: sorted(
                (ctx.query(&positional(&cmps, table, 0)).iter())
                    .map(Row::from_tuple)
                    .collect(),
            ),
            by_filter: filter(0),
            count: ctx.count_rel(binder(&pq, &cmps, 0)),
            nested: Vec::new(),
        };
        let shifted = filter(1);
        ctx.for_each_rel(binder(&pq, &cmps, 0), |_| {
            let inner = sorted(ctx.query_rel(binder(&pq, &cmps, 1)));
            r.nested.push((inner, shifted.clone()));
            true
        });
        *sink.lock() = r;
    });
    for r in rows {
        p.put_rel(*r);
    }
    p.put_rel(Go { id: 0 });
    let config = match kind {
        Some(kind) => config.store(row_h.id(), kind.clone()),
        None => config,
    };
    let mut engine = Engine::new(Arc::new(p.build().unwrap()), config);
    engine.run().unwrap();
    let reads = std::mem::take(&mut *out.lock());
    reads
}

proptest! {
    #[test]
    fn bound_reads_match_positional_and_filtered_reads(
        rows in prop::collection::vec((0i64..4, 0i64..4, -1i64..4), 0..24),
        cmps in arb_cmps(),
    ) {
        // One row per `->` key (a, b).
        let rows: BTreeMap<(i64, i64), i64> =
            rows.into_iter().map(|(a, b, c)| ((a, b), c)).collect();
        let rows: Vec<Row> = rows.into_iter().map(|((a, b), c)| Row { a, b, c }).collect();
        let hash = |fields: &[&str]| StoreKind::Hash {
            index_fields: fields.iter().map(|f| f.to_string()).collect(),
        };
        let custom: StoreFactory =
            Arc::new(|def| Arc::new(DefaultQueryStore(HashStore::new(def, vec![0]))));
        let stores = [
            Some(hash(&["a", "b"])),
            Some(hash(&["c"])),
            Some(StoreKind::ConcurrentOrdered),
            Some(StoreKind::Custom(custom)),
            None,
        ];
        for kind in &stores {
            for config in [EngineConfig::sequential(), EngineConfig::parallel(2)] {
                let case = format!("{kind:?}, sequential: {}", config.sequential);
                let r = run_reads(&rows, &cmps, kind.as_ref(), config);
                prop_assert_eq!(&r.by_binder, &r.by_filter, "{} binder vs filter", case);
                prop_assert_eq!(&r.by_position, &r.by_filter, "{} positional vs filter", case);
                prop_assert_eq!(r.count, r.by_filter.len() as u64, "{} count", case);
                prop_assert_eq!(r.nested.len(), r.by_filter.len(), "{} nested", case);
                for (inner, want) in &r.nested {
                    prop_assert_eq!(inner, want, "{} nested", case);
                }
            }
        }
    }
}
