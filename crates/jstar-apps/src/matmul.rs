//! Matrix multiplication — §6.4, Fig. 11.
//!
//! "A naive matrix multiplication algorithm that multiplies two N×N
//! matrices together ... The effective parallelism is that each row of the
//! output matrix is a separate task. Each matrix multiplication is
//! requested via a tuple, and that tuple generates one row request tuple
//! for each output row of the matrix. Each row request tuple triggers a
//! rule that loops over all the columns of that row, and uses a nested
//! loop with a summation reducer to calculate the dot product results."
//!
//! The Gamma store for the matrices is the paper's **native-arrays
//! optimisation**: "tables that have integer keys and a single dependent
//! value, such as `table Matrix(int mat, int row, int col -> int value)`
//! can be efficiently implemented using Java arrays if the keys have a
//! limited range and are dense" — here a dense `Vec<AtomicI64>` per
//! matrix, shared safely across row tasks.

use jstar_core::gamma::{InsertOutcome, TableStore};
use jstar_core::jstar_table;
use jstar_core::prelude::*;
use std::any::Any;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Matrix identifiers within the `Matrix` table.
pub const MAT_A: i64 = 0;
pub const MAT_B: i64 = 1;
pub const MAT_C: i64 = 2;

jstar_table! {
    /// The multiplication request: carries the dimension.
    #[derive(Copy, Eq)]
    pub MultRequest(int n) orderby (Req)
}

jstar_table! {
    /// One output-row task; all rows form a single `par` class.
    #[derive(Copy, Eq)]
    pub RowRequest(int row) orderby (Row, par row)
}

jstar_table! {
    /// `table Matrix(int mat, int row, int col -> int value)` — the
    /// native-arrays table of §6.4, held in [`MatrixStore`].
    #[derive(Copy, Eq)]
    pub Matrix(int mat, int row, int col -> int value) orderby (Mat)
}

/// Dense native-array store for `table Matrix(int mat, int row, int col ->
/// int value)`.
///
/// Writes from different row tasks target disjoint rows of C, so plain
/// relaxed atomics suffice; reads of A and B happen strictly after the
/// load rule finished (causality: `order Req < Row`).
pub struct MatrixStore {
    def: Arc<TableDef>,
    n: usize,
    mats: [Box<[AtomicI64]>; 3],
}

impl MatrixStore {
    pub fn new(def: Arc<TableDef>, n: usize) -> Self {
        let make = || (0..n * n).map(|_| AtomicI64::new(0)).collect();
        MatrixStore {
            def,
            n,
            mats: [make(), make(), make()],
        }
    }

    /// Store factory capturing the matrix dimension.
    pub fn factory(n: usize) -> StoreKind {
        StoreKind::Custom(Arc::new(move |def| {
            Arc::new(MatrixStore::new(def, n)) as Arc<dyn TableStore>
        }))
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads one cell.
    pub fn get(&self, mat: i64, row: usize, col: usize) -> i64 {
        self.mats[mat as usize][row * self.n + col].load(Ordering::Relaxed)
    }

    /// Writes one cell (the generated array-write of the paper's
    /// native-array code).
    pub fn set(&self, mat: i64, row: usize, col: usize, v: i64) {
        self.mats[mat as usize][row * self.n + col].store(v, Ordering::Relaxed);
    }

    /// Bulk-loads a row-major matrix.
    pub fn load(&self, mat: i64, data: &[i64]) {
        assert_eq!(data.len(), self.n * self.n);
        for (slot, &v) in self.mats[mat as usize].iter().zip(data) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Extracts a matrix row-major (for result checking).
    pub fn extract(&self, mat: i64) -> Vec<i64> {
        self.mats[mat as usize]
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect()
    }

    fn tuple_of(&self, mat: i64, row: usize, col: usize) -> Tuple {
        Tuple::new(
            self.def.id,
            Matrix {
                mat,
                row: row as i64,
                col: col as i64,
                value: self.get(mat, row, col),
            }
            .into_values(),
        )
    }
}

impl TableStore for MatrixStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        let m = Matrix::from_tuple(&t);
        self.set(m.mat, m.row as usize, m.col as usize, m.value);
        InsertOutcome::Fresh
    }

    fn contains(&self, t: &Tuple) -> bool {
        let m = Matrix::from_tuple(t);
        self.get(m.mat, m.row as usize, m.col as usize) == m.value
    }

    fn len(&self) -> usize {
        3 * self.n * self.n
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for mat in 0..3 {
            for row in 0..self.n {
                for col in 0..self.n {
                    if !f(&self.tuple_of(mat, row, col)) {
                        return;
                    }
                }
            }
        }
    }

    fn query(&self, q: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        // Dense keys: point and row queries resolve by direct indexing.
        match (
            q.eq_value(Matrix::mat.index()),
            q.eq_value(Matrix::row.index()),
            q.eq_value(Matrix::col.index()),
        ) {
            (Some(mat), Some(row), Some(col)) => {
                let t = self.tuple_of(mat.as_int(), row.as_int() as usize, col.as_int() as usize);
                if q.matches(&t) {
                    f(&t);
                }
            }
            (Some(mat), Some(row), None) => {
                let (mat, row) = (mat.as_int(), row.as_int() as usize);
                for col in 0..self.n {
                    let t = self.tuple_of(mat, row, col);
                    if q.matches(&t) && !f(&t) {
                        return;
                    }
                }
            }
            _ => self.for_each(&mut |t| if q.matches(t) { f(t) } else { true }),
        }
    }

    fn retain(&self, _keep: &dyn Fn(&Tuple) -> bool) {
        // Dense arrays have fixed extent; lifetime hints do not apply.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The built program plus handles.
pub struct MatMulApp {
    pub program: Arc<Program>,
    pub request: TableId,
    pub row_req: TableId,
    pub matrix: TableId,
}

/// Builds the JStar program multiplying `a × b` (row-major, `n×n`).
pub fn build_program(n: usize, a: Arc<Vec<i64>>, b: Arc<Vec<i64>>) -> MatMulApp {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut p = ProgramBuilder::new();

    let request = p.relation::<MultRequest>().id();
    let row_req = p.relation::<RowRequest>().id();
    let matrix = p.relation::<Matrix>().id();
    p.order(&["Req", "Row", "Mat"]);

    // Rule 1: the request loads A and B into the native-array Gamma store
    // and emits one RowRequest per output row.
    let load_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "RowRequest".into(),
            guard: vec![],
            bindings: vec![],
            label: "one request per output row".into(),
        }],
        queries: vec![],
    };
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    p.rule_rel_with_model(
        "load-and-fan-out",
        load_model,
        move |ctx, req: MultRequest| {
            let n = req.n as usize;
            let store = ctx.store(ctx.rel::<Matrix>().id());
            let mstore = store
                .as_any()
                .downcast_ref::<MatrixStore>()
                .expect("Matrix table uses MatrixStore");
            mstore.load(MAT_A, &a2);
            mstore.load(MAT_B, &b2);
            for row in 0..n {
                ctx.put_rel(RowRequest { row: row as i64 });
            }
        },
    );

    // Rule 2: each row request computes one output row — "loops over all
    // the columns of that row, and uses a nested loop with a summation
    // reducer".
    let row_model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "Matrix".into(),
            guard: vec![],
            bindings: vec![],
            label: "write C row".into(),
        }],
        queries: vec![],
    };
    p.rule_rel_with_model("compute-row", row_model, move |ctx, t: RowRequest| {
        let row = t.row as usize;
        let store = ctx.store(ctx.rel::<Matrix>().id());
        let m = store
            .as_any()
            .downcast_ref::<MatrixStore>()
            .expect("Matrix table uses MatrixStore");
        let n = m.dim();
        for col in 0..n {
            // The summation reducer over the dot product.
            let mut sum = 0i64;
            for k in 0..n {
                sum += m.get(MAT_A, row, k) * m.get(MAT_B, k, col);
            }
            m.set(MAT_C, row, col, sum);
        }
    });

    p.put_rel(MultRequest { n: n as i64 });

    MatMulApp {
        program: Arc::new(p.build().expect("matmul program builds")),
        request,
        row_req,
        matrix,
    }
}

/// Runs the JStar multiplication and returns C row-major.
pub fn run_jstar(
    n: usize,
    a: Arc<Vec<i64>>,
    b: Arc<Vec<i64>>,
    config: EngineConfig,
) -> Result<Vec<i64>> {
    run_jstar_report(n, a, b, config).map(|(c, _)| c)
}

/// Like [`run_jstar`], but also returns the engine's [`RunReport`] so
/// the benches can read pipeline and scheduling counters.
pub fn run_jstar_report(
    n: usize,
    a: Arc<Vec<i64>>,
    b: Arc<Vec<i64>>,
    mut config: EngineConfig,
) -> Result<(Vec<i64>, RunReport)> {
    let app = build_program(n, a, b);
    config = config.store(app.matrix, MatrixStore::factory(n));
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    let store = engine.gamma().store(app.matrix);
    let m = store
        .as_any()
        .downcast_ref::<MatrixStore>()
        .expect("matrix store");
    Ok((m.extract(MAT_C), report))
}

/// Naive ijk multiply — the paper's 7.5 s Java baseline.
pub fn multiply_naive(a: &[i64], b: &[i64], n: usize) -> Vec<i64> {
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0;
            for k in 0..n {
                sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = sum;
        }
    }
    c
}

/// Cache-friendly multiply with B transposed first — the paper's "obvious
/// improvement ... its time drops to 1.0 seconds".
pub fn multiply_transposed(a: &[i64], b: &[i64], n: usize) -> Vec<i64> {
    let mut bt = vec![0i64; n * n];
    for k in 0..n {
        for j in 0..n {
            bt[j * n + k] = b[k * n + j];
        }
    }
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0;
            let (ra, rb) = (&a[i * n..(i + 1) * n], &bt[j * n..(j + 1) * n]);
            for k in 0..n {
                sum += ra[k] * rb[k];
            }
            c[i * n + j] = sum;
        }
    }
    c
}

/// Deterministic test matrix.
pub fn gen_matrix(n: usize, seed: u64) -> Vec<i64> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * n).map(|_| rng.gen_range(-100..=100)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_passes_strict_validation() {
        let a = Arc::new(gen_matrix(4, 1));
        let b = Arc::new(gen_matrix(4, 2));
        let app = build_program(4, a, b);
        app.program.validate_strict().unwrap();
    }

    #[test]
    fn jstar_matches_baselines_small() {
        let n = 16;
        let a = Arc::new(gen_matrix(n, 11));
        let b = Arc::new(gen_matrix(n, 22));
        let naive = multiply_naive(&a, &b, n);
        let trans = multiply_transposed(&a, &b, n);
        assert_eq!(naive, trans);
        let seq = run_jstar(
            n,
            Arc::clone(&a),
            Arc::clone(&b),
            EngineConfig::sequential(),
        )
        .unwrap();
        assert_eq!(seq, naive);
        let par = run_jstar(n, a, b, EngineConfig::parallel(4)).unwrap();
        assert_eq!(par, naive);
    }

    #[test]
    fn identity_multiplication() {
        let n = 8;
        let mut id = vec![0i64; n * n];
        for i in 0..n {
            id[i * n + i] = 1;
        }
        let a = gen_matrix(n, 3);
        assert_eq!(multiply_naive(&a, &id, n), a);
        assert_eq!(multiply_transposed(&id, &a, n), a);
    }

    #[test]
    fn one_delta_tuple_per_row_plus_request() {
        // §6.4: "only one tuple per row of the output matrix needs to go
        // through the delta set".
        let n = 10;
        let a = Arc::new(gen_matrix(n, 5));
        let b = Arc::new(gen_matrix(n, 6));
        let app = build_program(n, a, b);
        let config = EngineConfig::sequential().store(app.matrix, MatrixStore::factory(n));
        let mut engine = Engine::new(Arc::clone(&app.program), config);
        engine.run().unwrap();
        let rows = engine.stats().tables[app.row_req.index()].snapshot();
        assert_eq!(rows.delta_inserts, n as u64);
        let mats = engine.stats().tables[app.matrix.index()].snapshot();
        assert_eq!(mats.delta_inserts, 0, "matrix cells never enter Delta");
    }

    #[test]
    fn row_requests_form_one_parallel_class() {
        let n = 12;
        let a = Arc::new(gen_matrix(n, 7));
        let b = Arc::new(gen_matrix(n, 8));
        let app = build_program(n, a, b);
        let config = EngineConfig::sequential()
            .store(app.matrix, MatrixStore::factory(n))
            .record_steps();
        let mut engine = Engine::new(Arc::clone(&app.program), config);
        engine.run().unwrap();
        // Steps: the request, then all n rows in ONE equivalence class.
        let hist = engine.stats().class_size_histogram();
        assert!(
            hist.iter().any(|&(bound, _)| bound >= n),
            "expected a class of {n} row tasks, histogram {hist:?}"
        );
    }

    #[test]
    fn matrix_store_dense_queries() {
        let def = Arc::new(
            jstar_core::schema::TableDefBuilder::standalone("Matrix")
                .col_int("mat")
                .col_int("row")
                .col_int("col")
                .col_int("value")
                .key(3)
                .orderby(&[strat("Mat")])
                .build_def(TableId(0)),
        );
        let store = MatrixStore::new(def, 4);
        store.set(MAT_A, 2, 3, 42);
        // Point query, written with the typed tokens and lowered.
        let q = Matrix::query()
            .eq(Matrix::mat, MAT_A)
            .eq(Matrix::row, 2)
            .eq(Matrix::col, 3)
            .lower(TableId(0));
        let mut got = Vec::new();
        store.query(q.probe(), &mut |t| {
            got.push(Matrix::from_tuple(t).value);
            true
        });
        assert_eq!(got, vec![42]);
        // Row query returns n cells.
        let q = Matrix::query()
            .eq(Matrix::mat, MAT_A)
            .eq(Matrix::row, 2)
            .lower(TableId(0));
        let mut count = 0;
        store.query(q.probe(), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 4);
    }

    #[test]
    fn zero_matrix_times_anything_is_zero() {
        let n = 6;
        let z = vec![0i64; n * n];
        let a = gen_matrix(n, 9);
        assert!(multiply_naive(&z, &a, n).iter().all(|&v| v == 0));
    }
}
