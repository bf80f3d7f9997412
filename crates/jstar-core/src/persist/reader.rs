//! Snapshot reader: fully validating, never panicking.
//!
//! Validation is layered so no parse decision is ever made on
//! unverified bytes:
//!
//! 1. the footer magic and whole-file word-folded FNV-1a checksum are
//!    verified against the raw image **before** any field is interpreted —
//!    truncation and bit flips stop here;
//! 2. parsing itself is bounds-checked at every read
//!    ([`super::format::ByteReader`]), with length fields validated
//!    against the remaining input before sizing any allocation —
//!    defense in depth against crafted or colliding images;
//! 3. each table's tuple stream is re-hashed during decode and checked
//!    against the section header's content hash and count.
//!
//! A record is decoded once: its values land in one scratch vector that
//! the whole image shares and move from there into the row's single
//! allocation ([`Tuple::drain_from`]). The rows are not collected but
//! handed on, a batch at a time, to a [`SnapshotSink`] — the restoring
//! engine's type-checks each batch in place and inserts it into the
//! table being built while the rows are still in cache —
//! [`read_snapshot`] is the sink that simply keeps everything. What the
//! reader cannot know is whether two rows of a section are the same row,
//! or disagree on a `->` key: that is the import's check (see the
//! [module docs](super)).
//!
//! Every failure is a reported
//! [`crate::error::JStarError::CorruptSnapshot`] (or
//! [`crate::error::JStarError::Io`] for filesystem errors).

use crate::error::{JStarError, Result};
use crate::schema::TableId;
use crate::tuple::Tuple;
use std::path::Path;

use super::format::{self, ByteReader};
use super::integrity::{fnv1a_words, ContentHash};
use super::writer::SnapshotMeta;

/// Where [`decode_snapshot`] delivers an image's contents, in file
/// order. Everything delivered is **provisional until `decode_snapshot`
/// returns `Ok`**: the whole-file checksum was verified before the first
/// call, but a section's content hash can only be checked after its
/// last batch, and a later record may still fail to parse. Any `Err` a
/// sink returns stops the decode and is passed through.
pub trait SnapshotSink {
    /// The header: the writing program's schema fingerprint, its run
    /// counters, and how many table sections follow. Called once, first.
    fn header(&mut self, schema_fingerprint: u64, meta: SnapshotMeta, tables: usize) -> Result<()>;

    /// Section `table` opens (sections come in `TableId` order, which is
    /// the only way a section says whose it is): `rows` records follow,
    /// in [`SnapshotSink::rows`] batches, and should hash to
    /// `content_hash`.
    fn section(&mut self, table: TableId, name: &str, rows: usize, content_hash: u64)
        -> Result<()>;

    /// The next rows of the open section, each carrying its section's
    /// `TableId`. The sink takes what it wants out of `rows`; the reader
    /// clears the vector and refills it.
    fn rows(&mut self, rows: &mut Vec<Tuple>) -> Result<()>;

    /// One not-yet-executed Delta tuple, under the table index its
    /// record names (checked against the table count). After every
    /// section.
    fn pending(&mut self, tuple: Tuple) -> Result<()>;
}

/// One decoded table section.
#[derive(Debug)]
pub struct SnapshotTable {
    /// Table name (matched against the program's defs on restore).
    pub name: String,
    /// The order-independent content digest from the section header,
    /// verified against the decoded tuples.
    pub content_hash: u64,
    /// Decoded live rows. Section `i` of the file carries `TableId(i)`:
    /// sections are written in the program's `TableId` order, which the
    /// restoring engine confirms by fingerprint, count and name.
    pub tuples: Vec<Tuple>,
}

/// A fully decoded, checksum-verified snapshot — what a
/// [`SnapshotSink`] that keeps everything ends up with.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Fingerprint of the writing program's schema.
    pub schema_fingerprint: u64,
    /// Run counters at snapshot time.
    pub meta: SnapshotMeta,
    /// One section per table, in the writing program's `TableId` order.
    pub tables: Vec<SnapshotTable>,
    /// Not-yet-executed Delta tuples, each under the table index its
    /// record names (checked against the table count at decode).
    pub pending: Vec<Tuple>,
}

impl Snapshot {
    /// The snapshot's overall Gamma digest: the per-table content
    /// hashes combined in table order. Equal logical states produce
    /// equal digests (see [`super::integrity::ContentHash`]).
    pub fn digest(&self) -> u64 {
        super::combine_digest(
            self.tables
                .iter()
                .map(|t| (t.name.as_str(), t.content_hash)),
        )
    }
}

impl SnapshotSink for Snapshot {
    fn header(&mut self, schema_fingerprint: u64, meta: SnapshotMeta, tables: usize) -> Result<()> {
        self.schema_fingerprint = schema_fingerprint;
        self.meta = meta;
        self.tables.reserve(tables);
        Ok(())
    }

    fn section(&mut self, _: TableId, name: &str, rows: usize, content_hash: u64) -> Result<()> {
        self.tables.push(SnapshotTable {
            name: name.to_string(),
            content_hash,
            tuples: Vec::with_capacity(rows),
        });
        Ok(())
    }

    fn rows(&mut self, rows: &mut Vec<Tuple>) -> Result<()> {
        if let Some(open) = self.tables.last_mut() {
            open.tuples.append(rows);
        }
        Ok(())
    }

    fn pending(&mut self, tuple: Tuple) -> Result<()> {
        self.pending.push(tuple);
        Ok(())
    }
}

/// Reads and validates the snapshot at `path`, keeping all of it.
pub fn read_snapshot(path: &Path) -> Result<Snapshot> {
    let bytes =
        std::fs::read(path).map_err(|e| JStarError::Io(format!("{}: {e}", path.display())))?;
    read_snapshot_bytes(&bytes)
}

/// Validates and decodes a snapshot image, keeping all of it.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Snapshot> {
    let mut snapshot = Snapshot::default();
    decode_snapshot(bytes, &mut snapshot)?;
    Ok(snapshot)
}

/// Rows per [`SnapshotSink::rows`] batch: enough for the import's
/// 32-wide blocks to amortise over, few enough (64 KB of rows) that a
/// batch is still in cache when the sink gets to it.
const ROWS_PER_BATCH: usize = 1024;

/// Validates a snapshot image and decodes it into `sink`.
pub fn decode_snapshot(bytes: &[u8], sink: &mut dyn SnapshotSink) -> Result<()> {
    const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 4;
    const FOOTER_LEN: usize = 8 + 8;
    if bytes.len() < HEADER_LEN + 8 + FOOTER_LEN {
        return Err(JStarError::CorruptSnapshot(format!(
            "file too short ({} bytes)",
            bytes.len()
        )));
    }

    // Layer 1: footer + checksum over the raw image.
    let magic_at = bytes.len() - FOOTER_LEN;
    if &bytes[magic_at..magic_at + 8] != format::FOOTER_MAGIC {
        return Err(JStarError::CorruptSnapshot(
            "missing footer magic (truncated file?)".to_string(),
        ));
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let actual = fnv1a_words(&bytes[..bytes.len() - 8]);
    if stored != actual {
        return Err(JStarError::CorruptSnapshot(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }

    // Layer 2: bounds-checked parse of the verified body.
    let mut r = ByteReader::new(&bytes[..magic_at]);
    if r.take(8)? != format::MAGIC {
        return Err(JStarError::CorruptSnapshot("bad magic".to_string()));
    }
    let version = r.u32()?;
    if version != format::VERSION {
        return Err(JStarError::CorruptSnapshot(format!(
            "unsupported snapshot version {version} (this build reads {})",
            format::VERSION
        )));
    }
    let schema_fingerprint = r.u64()?;
    let meta = SnapshotMeta {
        steps: r.u64()?,
        tuples_processed: r.u64()?,
    };
    let table_count = r.u32()? as usize;
    // Each section is at least 20 bytes (empty name + count + hash).
    if table_count > r.remaining() / 20 + 1 {
        return Err(JStarError::CorruptSnapshot(format!(
            "table count {table_count} exceeds input"
        )));
    }
    sink.header(schema_fingerprint, meta, table_count)?;

    // One scratch vector for every record of the image, one batch
    // vector for every section.
    let mut fields = Vec::new();
    let mut batch = Vec::with_capacity(ROWS_PER_BATCH);
    for id in 0..table_count as u32 {
        let name = r.string()?;
        let count = r.u64()?;
        let content_hash = r.u64()?;
        // Each tuple record is at least 1 byte (its arity varint).
        if count > r.remaining() as u64 + 1 {
            return Err(JStarError::CorruptSnapshot(format!(
                "table {name}: tuple count {count} exceeds input"
            )));
        }
        sink.section(TableId(id), &name, count as usize, content_hash)?;
        let mut ch = ContentHash::new();
        for _ in 0..count {
            ch.add_encoded(r.tuple_record(&mut fields)?);
            batch.push(Tuple::drain_from(TableId(id), &mut fields));
            if batch.len() == ROWS_PER_BATCH {
                sink.rows(&mut batch)?;
                batch.clear();
            }
        }
        sink.rows(&mut batch)?;
        batch.clear();
        // Layer 3: the decoded stream must reproduce the header digest.
        if ch.finish() != content_hash {
            return Err(JStarError::CorruptSnapshot(format!(
                "table {name}: content hash mismatch"
            )));
        }
    }

    let pending_count = r.u64()?;
    // Each pending record is at least 5 bytes (table index + arity).
    if pending_count > (r.remaining() / 5 + 1) as u64 {
        return Err(JStarError::CorruptSnapshot(format!(
            "pending count {pending_count} exceeds input"
        )));
    }
    for _ in 0..pending_count {
        let table = r.u32()?;
        if table as usize >= table_count {
            return Err(JStarError::CorruptSnapshot(format!(
                "pending tuple names table index {table}, snapshot holds {table_count}"
            )));
        }
        r.tuple_record(&mut fields)?;
        sink.pending(Tuple::drain_from(TableId(table), &mut fields))?;
    }

    if r.remaining() != 0 {
        return Err(JStarError::CorruptSnapshot(format!(
            "{} trailing bytes after pending section",
            r.remaining()
        )));
    }
    Ok(())
}
