//! Snapshot writer: encodes each row once, then keeps it.
//!
//! A [`CheckpointWriter`] is bound to one Gamma and remembers, per
//! table, the section it last wrote: the encoded rows, their
//! [`ContentHash`] and the [`IndexStamp`] they were encoded under. The
//! next image appends what the table's claim journal gained since that
//! stamp ([`TableStore::for_each_journal_suffix`]) and sends the rest
//! out as it is — a checkpoint costs the rows claimed since the last one
//! plus one pass over the cached bytes (the whole-file checksum and the
//! write), not a walk of live Gamma. [`IndexStamp::extends`] is the reuse
//! rule, the column-view cache's own: a table replaced wholesale
//! (compaction, snapshot import), a tombstoned row (`retain`, lifetime
//! hints) or an entry claimed ahead of the journal's end drops the
//! section, and it is encoded again from position 0 by the same walk.
//! Every built-in store keeps a claim journal; custom stores, which keep
//! none, are encoded every time.
//!
//! What is cached is what the file holds — about 9 bytes a row on the
//! paper's workloads — and nothing else: the image is never assembled
//! in memory. Its parts stream to `<name>.tmp` through a running
//! [`WordChecksum`], cached sections straight from the cache, and the
//! finished file is renamed onto the final path. A reader can never
//! observe a half-written file under the final name; a crash leaves at
//! most a stale `.tmp` that restore ignores.
//!
//! The bytes are a function of Gamma and the pending tuples alone: a
//! warm writer, a fresh one, and a writer with or without a pool produce
//! the same file at the same quiescent point.
//!
//! Every part runs through a [`super::fault`] probe, so the
//! `fault-inject` harness can kill the write at byte granularity within
//! any site — the partial prefix is flushed to the `.tmp` file exactly
//! as a real crash would leave it.

use crate::error::{JStarError, Result};
use crate::gamma::{Gamma, IndexStamp, TableStore};
use crate::schema::TableDef;
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use super::fault::{self, CrashSite};
use super::format;
use super::integrity::{schema_fingerprint, ContentHash, WordChecksum};

/// Run counters persisted alongside the data, so a restored engine can
/// report how much work the checkpointed run had already done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Coordinator steps completed when the snapshot was taken.
    pub steps: u64,
    /// Tuples processed when the snapshot was taken.
    pub tuples_processed: u64,
}

/// A visitor over the not-yet-executed Delta tuples: called with an
/// emit callback it must invoke once per pending tuple.
pub type PendingVisitor<'a> = dyn FnMut(&mut dyn FnMut(&Tuple)) + 'a;

/// One table's section as last encoded.
#[derive(Default)]
struct Section {
    /// What `body` covers: journal positions `[0, generation)` of a
    /// store in this state. `None` — nothing reusable (never encoded, or
    /// a store without a journal).
    stamp: Option<IndexStamp>,
    /// The encoded rows, in the store's export order, as the pieces
    /// that encoded them: written one after the other, never joined
    /// (copying megabytes into one buffer cost as much as a piece).
    body: Vec<Vec<u8>>,
    /// Count and order-independent digest of the rows in `body`.
    hash: ContentHash,
}

/// The checkpoint files of one directory, as this writer knows them.
struct Series {
    dir: PathBuf,
    /// Sequence number of the next file: above every one found or
    /// written, so a resumed run's files sort after those it restored
    /// from.
    next_seq: u64,
    /// The files present, oldest first: listed once, then kept by hand.
    files: VecDeque<PathBuf>,
}

impl Series {
    /// Creates `dir` if need be and lists the checkpoints in it.
    fn open(dir: &Path) -> Result<Series> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let files = VecDeque::from(super::list_checkpoints(dir)?);
        let newest = files.back().and_then(|path| super::checkpoint_seq(path));
        Ok(Series {
            dir: dir.to_path_buf(),
            next_seq: newest.map_or(0, |seq| seq + 1),
            files,
        })
    }
}

/// Writes snapshots of one Gamma database, and remembers what it
/// encoded: per table the section it last wrote, to which the next
/// image appends only the rows claimed since (see *What a checkpoint
/// costs* in the [module docs](super)). The file written is the same,
/// byte for byte, whatever the writer remembered.
pub struct CheckpointWriter<'g> {
    defs: &'g [Arc<TableDef>],
    gamma: &'g Gamma,
    pool: Option<&'g ThreadPool>,
    sections: Vec<Section>,
    /// Small parts (headers, the pending section) are built here.
    scratch: Vec<u8>,
    series: Option<Series>,
    rows_encoded: u64,
}

fn io_err(context: &Path, e: std::io::Error) -> JStarError {
    JStarError::Io(format!("{}: {e}", context.display()))
}

/// The `.tmp` staging name next to a final snapshot path.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The cores the OS grants this process — pools are sized by
/// `--threads=N`, which users oversubscribe freely, and with one core
/// fanning an encode out only adds scheduling on top of the same serial
/// work. Asked once: the answer comes out of cgroup files, ~20 µs a
/// call.
fn granted_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The `.tmp` file being written: every part goes through a fault probe
/// and the running whole-file checksum on its way out.
struct Sink<'p> {
    out: std::io::BufWriter<std::fs::File>,
    sum: WordChecksum,
    path: &'p Path,
}

impl Sink<'_> {
    fn emit(&mut self, site: CrashSite, bytes: &[u8]) -> Result<()> {
        let cut = fault::consume(site, bytes.len() as u64);
        let bytes = cut.map_or(bytes, |cut| &bytes[..cut as usize]);
        self.sum.update(bytes);
        self.out
            .write_all(bytes)
            .map_err(|e| io_err(self.path, e))?;
        match cut {
            // The bytes that "made it out" before the simulated crash
            // reach the file when the sink drops, as a power cut would
            // have left them.
            Some(cut) => Err(JStarError::Io(format!(
                "injected crash at {site:?} + {cut} bytes"
            ))),
            None => Ok(()),
        }
    }
}

fn encode_row(body: &mut Vec<u8>, hash: &mut ContentHash, t: &Tuple) {
    let start = body.len();
    format::encode_tuple(body, t.fields());
    hash.add_encoded(&body[start..]);
}

/// Encodes the live rows at journal positions `[lo, hi)` of `store` onto
/// `body` and into `hash`; returns the bound actually covered (see
/// [`TableStore::for_each_journal_suffix`]). The per-row walk, encode and
/// hash cost tens of nanoseconds, so a large range splits over the pool,
/// which is idle at a checkpoint's quiescent point, into 4 pieces per
/// worker: a worker that
/// falls behind leaves its later pieces to be stolen. The pieces
/// partition the walk in order: the bytes are those of the one-piece
/// walk. Rows go onto `body`'s last piece, or as new pieces after it.
fn encode_journal(
    store: &dyn TableStore,
    (lo, hi): (usize, usize),
    pool: Option<&ThreadPool>,
    body: &mut Vec<Vec<u8>>,
    hash: &mut ContentHash,
) -> usize {
    // Below ~4k entries a piece the fork/join costs more than it saves.
    const MIN_PIECE: usize = 4096;
    let pieces = pool.map_or(1, |p| {
        let workers = p.num_threads().min(granted_cores());
        (4 * workers).min((hi - lo) / MIN_PIECE)
    });
    let Some(pool) = pool.filter(|_| pieces > 1) else {
        if body.is_empty() {
            body.push(Vec::new());
        }
        let n = body.len();
        let last = &mut body[n - 1];
        // Pre-sized from the entry count: reallocation copies of a
        // multi-hundred-KB piece are measurable.
        last.reserve((hi - lo) * 24);
        return store.for_each_journal_suffix(lo, hi, &mut |t| encode_row(last, hash, t));
    };
    let bound = |i: usize| lo + (hi - lo) * i / pieces;
    let parts = jstar_pool::parallel_map(pool, pieces, 1, |i| {
        let mut part = Vec::with_capacity((bound(i + 1) - bound(i)) * 24);
        let mut ch = ContentHash::new();
        let covered = store.for_each_journal_suffix(bound(i), bound(i + 1), &mut |t| {
            encode_row(&mut part, &mut ch, t)
        });
        (part, ch, covered)
    });
    let mut covered = lo;
    for (i, (part, ch, reached)) in parts.into_iter().enumerate() {
        body.push(part);
        hash.merge(&ch);
        covered = reached;
        if covered < bound(i + 1) {
            // An append in flight stopped this piece: what lies beyond
            // it waits for the next walk, as in the one-piece case.
            break;
        }
    }
    covered
}

impl Section {
    /// Brings the section up to `store`'s current contents; returns the
    /// number of rows that had to be encoded.
    fn refresh(&mut self, store: &dyn TableStore, pool: Option<&ThreadPool>) -> u64 {
        let now = store.index_stamp();
        let from = match (&self.stamp, &now) {
            (Some(was), Some(now)) if now.extends(was) => was.generation,
            _ => {
                self.body.clear();
                self.hash = ContentHash::new();
                0
            }
        };
        let before = self.hash.count();
        match now {
            Some(now) => {
                let range = (from, now.generation);
                let covered = encode_journal(store, range, pool, &mut self.body, &mut self.hash);
                // The bound the walk covered, not the one it was asked
                // for: what an in-flight append hid is walked next time.
                self.stamp = Some(IndexStamp {
                    generation: covered,
                    ..now
                });
            }
            None => {
                self.stamp = None;
                let mut body = Vec::with_capacity(store.len() * 24 + 64);
                let hash = &mut self.hash;
                store.export_snapshot(&mut |t| encode_row(&mut body, hash, t));
                self.body.push(body);
            }
        }
        self.hash.count() - before
    }
}

impl<'g> CheckpointWriter<'g> {
    /// A writer for `gamma`, the database of a program with table
    /// definitions `defs`. `pool`, when given, shares out large encodes;
    /// the bytes written are the same either way. Every write must come
    /// at a quiescent point — no concurrent inserts — which every
    /// snapshot path guarantees.
    pub fn new(
        defs: &'g [Arc<TableDef>],
        gamma: &'g Gamma,
        pool: Option<&'g ThreadPool>,
    ) -> CheckpointWriter<'g> {
        CheckpointWriter {
            defs,
            gamma,
            pool,
            sections: defs.iter().map(|_| Section::default()).collect(),
            scratch: Vec::new(),
            series: None,
            rows_encoded: 0,
        }
    }

    /// Rows encoded by this writer so far. A run that checkpoints many
    /// times through one writer encodes each row about once; a fresh
    /// writer per checkpoint encodes all of live Gamma every time.
    pub fn rows_encoded(&self) -> u64 {
        self.rows_encoded
    }

    /// Serializes Gamma (plus the `pending` Delta tuples) to `path`,
    /// atomically: the image lands on `<path>.tmp` first and is renamed
    /// into place only when complete. On error the final path is never
    /// touched; a partial `.tmp` may remain (and is ignored by
    /// [`super::reader::read_snapshot`] / checkpoint discovery), and the
    /// writer forgets what it had encoded — its next image starts cold.
    ///
    /// `pending` is a visitor over the not-yet-executed Delta tuples —
    /// pass a no-op closure for a post-run snapshot (the Delta set is
    /// empty at quiescence).
    pub fn write(
        &mut self,
        pending: &mut PendingVisitor,
        meta: SnapshotMeta,
        path: &Path,
    ) -> Result<()> {
        let written = self.write_image(pending, meta, path);
        if written.is_err() {
            self.sections
                .iter_mut()
                .for_each(|s| *s = Section::default());
        }
        written
    }

    fn write_image(
        &mut self,
        pending: &mut PendingVisitor,
        meta: SnapshotMeta,
        path: &Path,
    ) -> Result<()> {
        let tmp = tmp_path(path);
        let file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        let mut w = Sink {
            out: std::io::BufWriter::new(file),
            sum: WordChecksum::new(),
            path: &tmp,
        };
        let head = &mut self.scratch;

        // ── Header ──────────────────────────────────────────────────
        head.clear();
        head.extend_from_slice(format::MAGIC);
        head.extend_from_slice(&format::VERSION.to_le_bytes());
        head.extend_from_slice(&schema_fingerprint(self.defs).to_le_bytes());
        head.extend_from_slice(&meta.steps.to_le_bytes());
        head.extend_from_slice(&meta.tuples_processed.to_le_bytes());
        head.extend_from_slice(&(self.defs.len() as u32).to_le_bytes());
        w.emit(CrashSite::Header, head)?;

        // ── Table sections ──────────────────────────────────────────
        // Rows are written in whatever order the store exports them —
        // journal order for the concurrent stores, no sorting; the
        // section header carries the order-independent content hash so
        // two snapshots of the same logical state are comparable even
        // though their streams are permuted.
        for (def, section) in self.defs.iter().zip(&mut self.sections) {
            self.rows_encoded += section.refresh(&**self.gamma.store(def.id), self.pool);
            head.clear();
            head.extend_from_slice(&(def.name.len() as u32).to_le_bytes());
            head.extend_from_slice(def.name.as_bytes());
            head.extend_from_slice(&section.hash.count().to_le_bytes());
            head.extend_from_slice(&section.hash.finish().to_le_bytes());
            w.emit(CrashSite::TableSection, head)?;
            for piece in &section.body {
                w.emit(CrashSite::TupleBytes, piece)?;
            }
        }

        // ── Pending-Delta section ───────────────────────────────────
        // Only the tuples: their order keys are pure functions of tuple
        // fields (the orderby extractor), so restore recomputes them by
        // re-injecting through the normal put path.
        head.clear();
        head.extend_from_slice(&[0; 8]);
        let mut count: u64 = 0;
        pending(&mut |t| {
            head.extend_from_slice(&t.table().0.to_le_bytes());
            format::encode_tuple(head, t.fields());
            count += 1;
        });
        head[..8].copy_from_slice(&count.to_le_bytes());
        w.emit(CrashSite::PendingSection, head)?;

        // ── Footer ──────────────────────────────────────────────────
        // The checksum covers every byte before it, footer magic
        // included.
        w.emit(CrashSite::Footer, format::FOOTER_MAGIC)?;
        let checksum = w.sum.finish();
        w.emit(CrashSite::Footer, &checksum.to_le_bytes())?;

        // A `BufWriter` dropped unflushed swallows the error.
        w.out.flush().map_err(|e| io_err(&tmp, e))?;
        drop(w);
        if fault::consume(CrashSite::Rename, 0).is_some() {
            return Err(JStarError::Io(
                "injected crash between temp write and rename".to_string(),
            ));
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
    }

    /// Writes the next checkpoint file of `dir` ([`CheckpointWriter::write`]
    /// onto `ckpt-<seq>.jsnap`) and deletes the oldest files there until
    /// at most `keep` remain (`keep == 0` is treated as 1 — the
    /// checkpoint just written is never deleted). Returns the file
    /// written.
    ///
    /// The directory is created and listed once, by the first call:
    /// that is where the sequence picks up — strictly above every file
    /// found, so a resumed run's checkpoints never collide with (or sort
    /// below) the ones it restored from — and which older files there
    /// are to rotate out. After that the writer goes by the names it
    /// wrote.
    pub fn checkpoint(
        &mut self,
        dir: &Path,
        keep: usize,
        pending: &mut PendingVisitor,
        meta: SnapshotMeta,
    ) -> Result<PathBuf> {
        let mut series = match self.series.take() {
            Some(series) if series.dir == dir => series,
            _ => Series::open(dir)?,
        };
        let path = dir.join(super::checkpoint_file_name(series.next_seq));
        // (A failed write forgets the series too: the next call lists
        // the directory again.)
        self.write(pending, meta, &path)?;
        series.next_seq += 1;
        series.files.push_back(path.clone());
        while series.files.len() > keep.max(1) {
            let Some(old) = series.files.pop_front() else {
                break;
            };
            match std::fs::remove_file(&old) {
                // Someone else cleared it away: gone is gone.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io_err(&old, e)),
                _ => {}
            }
        }
        self.series = Some(series);
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::PlainStore;
    use crate::gamma::{HashStore, InsertOutcome, StoreKind};
    use crate::schema::{TableDefBuilder, TableId};
    use crate::value::Value;
    use std::any::Any;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two int columns, the first a `->` key when `keyed`.
    fn def(id: u32, name: &str, keyed: bool) -> Arc<TableDef> {
        let b = TableDefBuilder::standalone(name).col_int("k").col_int("v");
        let b = if keyed { b.key(1) } else { b };
        Arc::new(b.build_def(TableId(id)))
    }

    fn row(table: u32, k: i64, v: i64) -> Tuple {
        Tuple::new(TableId(table), vec![Value::Int(k), Value::Int(v)])
    }

    fn custom(store: Arc<dyn TableStore>) -> StoreKind {
        StoreKind::Custom(Arc::new(move |_| Arc::clone(&store)))
    }

    /// A scratch directory of this test's own, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let name = format!("jstar-writer-{tag}-{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Holds the rows a warm image had to encode to the count that is
    /// new. Exact wherever tables sit in their first segment — always,
    /// except under `model-check`, whose 16-slot segments leave a grown,
    /// compacted or imported table spilled, and a spilled table's
    /// section is encoded again whenever a claim lands in an older
    /// segment (never fewer rows than the new ones, then).
    #[track_caller]
    fn assert_encoded(rows: u64, new: u64) {
        if cfg!(feature = "model-check") {
            assert!(rows >= new, "{rows} rows encoded, {new} new");
        } else {
            assert_eq!(rows, new);
        }
    }

    /// One image through `warm` and one through a throw-away writer (no
    /// pool) at the same point: the files must be the same bytes, and
    /// must read back. Returns the rows `warm` had to encode for its.
    fn write_both(warm: &mut CheckpointWriter, dir: &Scratch, pending: &[Tuple], step: u64) -> u64 {
        let meta = SnapshotMeta {
            steps: step,
            tuples_processed: step * 10,
        };
        let mut visit = |emit: &mut dyn FnMut(&Tuple)| pending.iter().for_each(emit);
        let (kept, once) = (dir.0.join("warm.jsnap"), dir.0.join("fresh.jsnap"));
        let before = warm.rows_encoded();
        warm.write(&mut visit, meta, &kept).unwrap();
        let mut fresh = CheckpointWriter::new(warm.defs, warm.gamma, None);
        fresh.write(&mut visit, meta, &once).unwrap();
        let (kept, once) = (std::fs::read(kept).unwrap(), std::fs::read(once).unwrap());
        assert!(kept == once, "step {step}: a warm writer's file differs");
        let snap = super::super::read_snapshot_bytes(&kept).unwrap();
        let live: usize = warm.defs.iter().map(|d| warm.gamma.store(d.id).len()).sum();
        assert_eq!(
            snap.tables.iter().map(|t| t.tuples.len()).sum::<usize>(),
            live
        );
        assert_eq!(fresh.rows_encoded(), live as u64);
        assert_eq!((snap.pending.len(), snap.meta), (pending.len(), meta));
        warm.rows_encoded() - before
    }

    #[test]
    fn a_warm_writer_writes_what_a_fresh_one_would() {
        let dir = Scratch::new("warm");
        let defs = [
            def(0, "Hashed", true),
            def(1, "Concurrent", false),
            def(2, "Custom", true),
        ];
        let kinds = [
            StoreKind::Hash {
                index_fields: vec!["k".into()],
            },
            StoreKind::ConcurrentOrdered,
            custom(Arc::new(PlainStore(HashStore::new(
                Arc::clone(&defs[2]),
                vec![0],
            )))),
        ];
        let gamma = Gamma::new(&defs, &kinds);
        let mut warm = CheckpointWriter::new(&defs, &gamma, None);
        let mut next = 0i64;
        let mut grow = |n: i64| {
            for k in next..next + n {
                for table in 0..3 {
                    assert_eq!(gamma.insert(row(table, k, k * 3)), InsertOutcome::Fresh);
                }
            }
            next += n;
            next as u64
        };
        let len = |table: u32| gamma.store(TableId(table)).len() as u64;
        let mut step = 0;
        let mut write = |warm: &mut CheckpointWriter, pending: &[Tuple]| {
            step += 1;
            write_both(warm, &dir, pending, step)
        };

        // An empty database, then growth only: the journaled stores
        // encode what is new, the custom one everything, every time.
        assert_encoded(write(&mut warm, &[]), 0);
        for _ in 0..4 {
            let live = grow(50);
            let pending = [row(1, -1, 0), row(0, -2, 0)];
            assert_encoded(write(&mut warm, &pending), 2 * 50 + live);
        }
        // Nothing new: nothing but the unjournaled store.
        assert_encoded(write(&mut warm, &[]), 200);

        // A lifetime hint tombstones rows of one table: that section is
        // dropped and encoded again, then warm again.
        gamma.store(TableId(0)).retain(&|t| t.int(0) % 4 != 0);
        assert_eq!(len(0), 150);
        assert_encoded(write(&mut warm, &[]), 150 + 200);
        grow(10);
        assert_encoded(write(&mut warm, &[]), 2 * 10 + 210);

        // A compaction replaces the table (epoch bump): cold once.
        gamma.store(TableId(1)).retain(&|t| t.int(0) % 2 == 0);
        assert!(gamma.store(TableId(1)).maybe_compact(0.1));
        assert_encoded(write(&mut warm, &[]), len(1) + 210);
        grow(10);
        assert_encoded(write(&mut warm, &[row(2, 0, 0)]), 2 * 10 + 220);

        // So does a restore into it — here with nothing but the epoch
        // to tell: no tombstones before or after, and more rows than the
        // writer had seen there.
        let rows: Vec<Tuple> = (1000..1400).map(|k| row(1, k, k)).collect();
        let mut rows = rows;
        let mut import = gamma.store(TableId(1)).begin_import(rows.len());
        assert_eq!(import.push(&mut rows), 0);
        assert_eq!(import.commit(), 0);
        assert_encoded(write(&mut warm, &[]), 400 + 220);
        grow(10);
        assert_encoded(write(&mut warm, &[]), 2 * 10 + 230);
    }

    #[test]
    fn a_table_that_outgrows_its_first_segment_is_still_written_right() {
        // 256 slots and probe windows of 64: rows spill into a second
        // segment long before the first is full, and the first goes on
        // taking claims — entries that land *ahead* of journal positions
        // the writer has already encoded. Those checkpoints go cold.
        let dir = Scratch::new("spill");
        let defs = [def(0, "Small", false)];
        let store = Arc::new(HashStore::with_first_segment(
            Arc::clone(&defs[0]),
            vec![0],
            256,
        ));
        let gamma = Gamma::new(&defs, &[custom(Arc::clone(&store) as Arc<dyn TableStore>)]);
        let mut warm = CheckpointWriter::new(&defs, &gamma, None);
        let (mut encoded, mut rewrites) = (0, 0);
        for step in 0..40 {
            for k in step * 30..(step + 1) * 30 {
                gamma.insert(row(0, k % 17, k));
            }
            let rows = write_both(&mut warm, &dir, &[], step as u64);
            rewrites += (rows > 30) as u64;
            encoded += rows;
        }
        assert!(store.index_stamp().unwrap().interior != 0, "never spilled");
        // Cold while claims landed in both segments, appending before
        // and after.
        assert!((2..30).contains(&rewrites), "{rewrites} rewrites");
        assert!(encoded < 40 * 41 / 2 * 30 / 2, "{encoded} rows encoded");
    }

    /// A journaled store whose newest entries can be held back, the way
    /// an append still in flight holds back a real journal's stable
    /// prefix: walks stop at `stable`, the stamp counts everything.
    struct HeldBack {
        rows: Vec<Tuple>,
        entries: AtomicUsize,
        stable: AtomicUsize,
    }

    impl TableStore for HeldBack {
        fn insert(&self, _: Tuple) -> InsertOutcome {
            unreachable!("filled up front")
        }
        fn contains(&self, t: &Tuple) -> bool {
            self.rows[..self.len()].contains(t)
        }
        fn len(&self) -> usize {
            self.stable.load(Ordering::Relaxed)
        }
        fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
            let _ = self.rows[..self.len()].iter().all(f);
        }
        fn retain(&self, _: &dyn Fn(&Tuple) -> bool) {}
        fn index_stamp(&self) -> Option<IndexStamp> {
            Some(IndexStamp {
                epoch: 0,
                generation: self.entries.load(Ordering::Relaxed),
                tombstones: 0,
                interior: 0,
            })
        }
        fn for_each_journal_suffix(
            &self,
            lo: usize,
            hi: usize,
            f: &mut dyn FnMut(&Tuple),
        ) -> usize {
            let covered = hi.min(self.len()).max(lo);
            self.rows[lo..covered].iter().for_each(f);
            covered
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn the_writer_records_the_bound_a_walk_covered_not_the_one_it_asked_for() {
        let dir = Scratch::new("bound");
        let defs = [def(0, "Held", false)];
        let store = Arc::new(HeldBack {
            rows: (0..100).map(|k| row(0, k, k)).collect(),
            entries: AtomicUsize::new(0),
            stable: AtomicUsize::new(0),
        });
        let gamma = Gamma::new(&defs, &[custom(Arc::clone(&store) as Arc<dyn TableStore>)]);
        let mut warm = CheckpointWriter::new(&defs, &gamma, None);
        let mut encoded = Vec::new();
        // (journal entries, of which walkable): 40 of the second image's
        // entries show up only in the third.
        for (step, (entries, stable)) in [(30, 30), (80, 40), (80, 80), (100, 100)]
            .into_iter()
            .enumerate()
        {
            store.entries.store(entries, Ordering::Relaxed);
            store.stable.store(stable, Ordering::Relaxed);
            encoded.push(write_both(&mut warm, &dir, &[], step as u64));
        }
        assert_eq!(encoded, [30, 10, 40, 20]);
    }

    #[test]
    fn a_pool_changes_who_encodes_not_what_is_written() {
        let dir = Scratch::new("pool");
        let defs = [def(0, "Big", true)];
        let gamma = Gamma::new(&defs, &[StoreKind::ConcurrentOrdered]);
        let pool = ThreadPool::new(2);
        let mut warm = CheckpointWriter::new(&defs, &gamma, Some(&pool));
        // A cold encode and a catch-up, each large enough to be shared
        // out (where the OS grants more than one core).
        for step in 0..2 {
            for k in step * 20_000..(step + 1) * 20_000 {
                gamma.insert(row(0, k, k % 7));
            }
            assert_encoded(write_both(&mut warm, &dir, &[], step as u64), 20_000);
        }
    }

    #[test]
    fn a_failed_write_leaves_no_file_and_a_cold_writer() {
        let dir = Scratch::new("failed");
        let defs = [def(0, "T", false)];
        let gamma = Gamma::new(&defs, &[StoreKind::ConcurrentOrdered]);
        for k in 0..50 {
            gamma.insert(row(0, k, k));
        }
        let mut warm = CheckpointWriter::new(&defs, &gamma, None);
        assert_eq!(write_both(&mut warm, &dir, &[], 0), 50);
        // A path in a directory that does not exist: the write fails
        // before a byte is out, and the writer forgets its sections.
        let nowhere = dir.0.join("missing").join("x.jsnap");
        let err = warm.write(&mut |_| {}, SnapshotMeta::default(), &nowhere);
        assert!(matches!(err, Err(JStarError::Io(_))), "{err:?}");
        assert!(!nowhere.exists());
        assert_eq!(write_both(&mut warm, &dir, &[], 1), 50);
        assert_eq!(write_both(&mut warm, &dir, &[], 2), 0);
    }
}
