//! Durable Gamma — snapshot, checkpoint and restore.
//!
//! A snapshot captures everything the engine needs to resume a run:
//! the live contents of every Gamma store, the not-yet-executed Delta
//! tuples, and enough metadata to refuse a mismatched program. Writes
//! are atomic (temp + rename), reads are checksum-verified before a
//! single field is interpreted, and a deterministic fault-injection
//! harness ([`fault`], behind `--features fault-inject`) can kill a
//! write at byte granularity to prove crash recovery end to end.
//!
//! ## On-disk format (version 1, all integers little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `JSTARSNP` |
//! | 8      | 4    | format version (`u32`) |
//! | 12     | 8    | schema fingerprint (`u64`, [`schema_fingerprint`]) |
//! | 20     | 8    | steps at snapshot (`u64`) |
//! | 28     | 8    | tuples processed at snapshot (`u64`) |
//! | 36     | 4    | table count (`u32`) |
//! | —      | —    | table sections, in `TableId` order |
//! | —      | —    | pending-Delta section |
//! | end-16 | 8    | footer magic `JSNAPEND` |
//! | end-8  | 8    | word-folded FNV-1a 64 checksum of every preceding byte |
//!
//! Each **table section** is: `u32` name length + UTF-8 name, `u64`
//! live tuple count, `u64` order-independent content hash
//! ([`ContentHash`]), then the tuples in the store's journal order
//! (a varint field count + tagged values each, zigzag varints for
//! ints — see [`format::encode_value`]). The **pending section** is a `u64`
//! count followed by `u32` table index + tuple per record; order keys
//! are *not* stored — they are pure functions of tuple fields, so
//! restore recomputes them by re-injecting through the normal put
//! path.
//!
//! Tuple streams are written in whatever claim-journal order this run
//! produced (O(live), one pass, no sorting); the content hash is
//! commutative, so identical logical states produce identical digests
//! regardless of insertion order — cross-run determinism checks are a
//! single `u64` comparison ([`crate::engine::Engine::content_hash`]).
//!
//! ## Checkpoint policy
//!
//! Periodic checkpointing hangs off the coordinator's maintain phase:
//! set [`crate::engine::EngineConfig::checkpoint`] with a directory
//! and a step interval. Every `checkpoint_every` steps the coordinator
//! absorbs all staged tuples (reaching a fully quiescent Delta
//! queue) and writes `ckpt-<seq>.jsnap` atomically, keeping the newest
//! [`crate::engine::EngineConfig::checkpoint_keep`] files.
//!
//! ## What a checkpoint costs
//!
//! One [`CheckpointWriter`] serves a run. It keeps every table's
//! section as last written — the encoded rows, ~9 bytes a row on the
//! paper's workloads, which is what a single image buffer used to pin —
//! and a checkpoint **encodes only the rows claimed since the previous
//! one**, found by walking the claim journal from where the last walk
//! stopped. Around that it makes one pass over the cached bytes (the
//! whole-file checksum, the write to the `.tmp`): the file is complete
//! every time, a checkpoint never refers to another, and the bytes are
//! exactly those a writer with no memory would produce at the same
//! point. A cached section is dropped, and encoded again from nothing,
//! when its table was replaced wholesale (compaction, a restore), when
//! a row was tombstoned (`retain`, lifetime hints), or when a row was
//! claimed ahead of the journal's end (possible once a table has
//! outgrown its first segment, ~100k rows) — [`crate::gamma::IndexStamp`]
//! tells; custom stores, which keep no claim journal, are encoded every
//! time;
//! and a write that fails drops everything the writer knew.
//!
//! Guidance:
//!
//! * **Interval.** Size `checkpoint_every` so that the cost above —
//!   O(rows claimed in the interval) to encode, O(live bytes) to
//!   checksum and write — is well under the work of the interval
//!   itself. For the paper's workloads, every few hundred steps keeps
//!   overhead under a few percent (the bench suite gates fig8 at
//!   ≤ 1.10× with checkpointing on). Very small intervals are only worth
//!   it when a step is enormous or re-execution is very expensive.
//! * **Keep count.** Keep at least 2: if the process dies *while*
//!   writing checkpoint N (leaving a torn `.tmp` or, with a corrupted
//!   disk, a bad newest file), restore falls back to N−1. The default
//!   keeps 2. The directory is listed once, by a run's first checkpoint
//!   (older files there count towards `keep` and rotate out first).
//! * **Restore.** [`crate::engine::Engine::restore_latest`] scans the
//!   directory newest-first, skipping corrupt files with a reported
//!   (never panicked) [`crate::error::JStarError::CorruptSnapshot`],
//!   and resumes from the first intact one. Because canonical Delta
//!   sets make pop schedules deterministic, a resumed run's final
//!   Gamma digest is bit-identical to an uninterrupted run's.
//!
//! ## Restore
//!
//! A record is decoded once, straight into the row it becomes, and the
//! rows stream out of the reader a batch at a time
//! ([`decode_snapshot`] into a [`SnapshotSink`]); the engine type-checks
//! each batch in place and pushes it, still in cache, into its table's
//! import, which the built-in stores build aside with the duplicate and
//! `->` checks of any other insert
//! ([`crate::gamma::TableStore::begin_import`]). **A snapshot is a
//! set**: an image in which a row appears twice, or two rows share a
//! `->` key, is corrupt however well its checksums match, and is
//! refused as such — before any store is touched, so the engine is
//! left as it was and `restore_latest` moves on to the previous file.
//!
//! Snapshots restore only into an engine built from the *same*
//! program schema — table names, column names/types, key splits and
//! orderby lists are fingerprinted, and a mismatch is a reported
//! [`crate::error::JStarError::SchemaMismatch`].

pub mod fault;
pub mod format;
mod integrity;
mod reader;
mod writer;

pub use format::SNAPSHOT_EXT;
pub use integrity::{fnv1a, fnv1a_words, schema_fingerprint, Checksum, ContentHash, WordChecksum};
pub use reader::{
    decode_snapshot, read_snapshot, read_snapshot_bytes, Snapshot, SnapshotSink, SnapshotTable,
};
pub use writer::{CheckpointWriter, PendingVisitor, SnapshotMeta};

use crate::error::{JStarError, Result};
use crate::gamma::Gamma;
use crate::schema::TableDef;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Combines per-table content hashes (in table order) into one Gamma
/// digest.
pub(crate) fn combine_digest<'a>(tables: impl Iterator<Item = (&'a str, u64)>) -> u64 {
    let mut c = Checksum::new();
    for (name, hash) in tables {
        c.update(&(name.len() as u32).to_le_bytes());
        c.update(name.as_bytes());
        c.update(&hash.to_le_bytes());
    }
    integrity::mix64(c.finish())
}

/// The order-independent digest of a live Gamma database: per-table
/// [`ContentHash`]es over the canonical tuple encoding, combined in
/// table order. Equal logical states produce equal digests across
/// thread counts and checkpoint/restore cycles.
pub fn gamma_digest(defs: &[Arc<TableDef>], gamma: &Gamma) -> u64 {
    combine_digest(defs.iter().map(|def| {
        let mut ch = ContentHash::new();
        let mut scratch = Vec::new();
        gamma.store(def.id).export_snapshot(&mut |t| {
            scratch.clear();
            format::encode_tuple(&mut scratch, t.fields());
            ch.add_encoded(&scratch);
        });
        (def.name.as_str(), ch.finish())
    }))
}

/// The checkpoint file name for sequence number `seq`
/// (`ckpt-0000000042.jsnap`): zero-padded so lexicographic directory
/// order is sequence order.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:010}.{SNAPSHOT_EXT}")
}

/// Parses the sequence number out of a checkpoint file name.
fn checkpoint_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    digits.parse().ok()
}

/// Lists the checkpoint files in `dir`, oldest first. Files that do
/// not match the `ckpt-<seq>.jsnap` pattern (including stale `.tmp`
/// staging files left by a crash) are ignored. A missing directory is
/// an empty list, not an error.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(JStarError::Io(format!("{}: {e}", dir.display()))),
    };
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| JStarError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        if let Some(seq) = checkpoint_seq(&path) {
            found.push((seq, path));
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_names_sort_by_sequence() {
        assert_eq!(checkpoint_file_name(42), "ckpt-0000000042.jsnap");
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
        assert_eq!(
            checkpoint_seq(Path::new("/x/ckpt-0000000042.jsnap")),
            Some(42)
        );
        assert_eq!(checkpoint_seq(Path::new("/x/ckpt-42.jsnap.tmp")), None);
        assert_eq!(checkpoint_seq(Path::new("/x/other.jsnap")), None);
    }

    #[test]
    fn listing_rotation_and_sequencing() {
        let dir = std::env::temp_dir().join(format!("jstar-persist-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let names = |dir: &Path| -> Vec<String> {
            let name = |p: &PathBuf| p.file_name().unwrap().to_str().unwrap().to_string();
            list_checkpoints(dir).unwrap().iter().map(name).collect()
        };

        // What an earlier run left behind: two checkpoints, a stale
        // staging file and an unrelated file (both ignored).
        for seq in [3u64, 1] {
            std::fs::write(dir.join(checkpoint_file_name(seq)), b"x").unwrap();
        }
        std::fs::write(dir.join("ckpt-0000000009.jsnap.tmp"), b"x").unwrap();
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        assert_eq!(
            names(&dir),
            [checkpoint_file_name(1), checkpoint_file_name(3)]
        );

        // A resumed run numbers its files after the ones it found and
        // keeps the newest `keep` overall, old files included.
        let gamma = Gamma::new(&[], &[]);
        let mut writer = CheckpointWriter::new(&[], &gamma, None);
        let mut checkpoint = |keep| {
            let path = writer.checkpoint(&dir, keep, &mut |_| {}, SnapshotMeta::default());
            path.unwrap()
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(checkpoint(3), checkpoint_file_name(4));
        assert_eq!(names(&dir), [1, 3, 4].map(checkpoint_file_name));
        assert_eq!(checkpoint(3), checkpoint_file_name(5));
        assert_eq!(names(&dir), [3, 4, 5].map(checkpoint_file_name));
        // A file that went away behind the writer's back is no error.
        std::fs::remove_file(dir.join(checkpoint_file_name(3))).unwrap();
        assert_eq!(checkpoint(2), checkpoint_file_name(6));
        assert_eq!(names(&dir), [5, 6].map(checkpoint_file_name));
        // keep = 0 still keeps the newest.
        assert_eq!(checkpoint(0), checkpoint_file_name(7));
        assert_eq!(names(&dir), [checkpoint_file_name(7)]);
        assert!(read_snapshot(&dir.join(checkpoint_file_name(7))).is_ok());
        assert!(dir.join("notes.txt").exists());

        // A missing directory lists as empty, and is created by the
        // first checkpoint into it.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(list_checkpoints(&dir).unwrap().is_empty());
        let mut writer = CheckpointWriter::new(&[], &gamma, None);
        writer
            .checkpoint(&dir, 2, &mut |_| {}, SnapshotMeta::default())
            .unwrap();
        assert_eq!(names(&dir), [checkpoint_file_name(0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
