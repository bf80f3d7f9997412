//! Integrity primitives for the snapshot format: the file checksum
//! (byte-wise streaming for small metadata, word-folded one-shot for
//! bulk data), the order-independent per-table content hash, and the
//! schema fingerprint.
//!
//! All three are hand-rolled (no external hash crates — the build is
//! offline) and deterministic across platforms: every input is reduced
//! to little-endian bytes before hashing.

use crate::schema::TableDef;
use crate::value::ValueType;
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 checksum — guards the whole snapshot file
/// against truncation and bit flips. Not cryptographic; the threat
/// model is storage corruption, not adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    state: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum { state: FNV_OFFSET }
    }
}

impl Checksum {
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// One-shot word-folded FNV-1a 64: folds 8 little-endian bytes per
/// multiply (final partial word zero-padded, length mixed in last so
/// padding cannot alias real zero bytes). ~8x the throughput of the
/// byte-wise [`fnv1a`] — this is the variant on the checkpoint hot
/// path, where the input is hundreds of kilobytes per snapshot: the
/// whole-file checksum and the per-tuple content hash. Not
/// interchangeable with [`fnv1a`]; both sides of the snapshot format
/// use this one for bulk data.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(FNV_PRIME)
}

/// [`fnv1a_words`] over a byte stream that arrives in parts: the
/// snapshot writer sends a file's sections to disk one after another —
/// most of them cached from the previous checkpoint — and never holds the
/// image as one slice. Parts may end anywhere; the bytes of a split word
/// are carried to the next part, so the result is that of
/// [`fnv1a_words`] over the concatenation, however it was cut. (The
/// one-shot stays a function of its own: it hashes every tuple, and
/// routed through this carry it measured 2–3 ns a tuple slower.)
#[derive(Debug, Clone)]
pub struct WordChecksum {
    state: u64,
    /// The bytes since the last whole word (`carried` of them).
    carry: [u8; 8],
    carried: usize,
    len: u64,
}

impl Default for WordChecksum {
    fn default() -> Self {
        WordChecksum {
            state: FNV_OFFSET,
            carry: [0; 8],
            carried: 0,
            len: 0,
        }
    }
}

impl WordChecksum {
    pub fn new() -> WordChecksum {
        WordChecksum::default()
    }

    /// Folds the next part of the stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut h = self.state;
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            h = (h ^ u64::from_le_bytes(self.carry)).wrapping_mul(FNV_PRIME);
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            h ^= u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
        let rem = chunks.remainder();
        self.carry[..rem.len()].copy_from_slice(rem);
        self.carried = rem.len();
    }

    /// The checksum of everything folded in so far (the stream may go
    /// on: this does not disturb the running state).
    pub fn finish(&self) -> u64 {
        let mut h = self.state;
        if self.carried > 0 {
            let mut tail = [0u8; 8];
            tail[..self.carried].copy_from_slice(&self.carry[..self.carried]);
            h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(FNV_PRIME);
        }
        (h ^ self.len).wrapping_mul(FNV_PRIME)
    }
}

/// SplitMix64 finalizer: spreads an FNV state over all 64 bits so the
/// commutative combiner below cannot be defeated by low-entropy tails.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent digest of a tuple multiset.
///
/// Claim order in a [`crate::gamma::HashStore`] is
/// nondeterministic under parallel insertion, so a snapshot's tuple
/// stream is written in whatever journal order this run produced.
/// The content hash must nevertheless be identical for identical
/// *logical* states, so each tuple's canonical encoding is hashed and
/// mixed, and the per-tuple hashes are combined commutatively
/// (wrapping sum + xor + count). Equal tuple sets therefore produce
/// equal digests regardless of insertion or iteration order — the
/// cross-run determinism check is a single `u64` comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentHash {
    sum: u64,
    xor: u64,
    count: u64,
}

impl ContentHash {
    pub fn new() -> ContentHash {
        ContentHash::default()
    }

    /// Folds one tuple's canonical encoding (see
    /// [`super::format::encode_tuple`]) into the digest.
    pub fn add_encoded(&mut self, tuple_bytes: &[u8]) {
        let h = mix64(fnv1a_words(tuple_bytes));
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
        self.count += 1;
    }

    /// Folds another digest's accumulators into this one — the result
    /// equals hashing both tuple sets into a single `ContentHash`.
    /// Sum and count add, xor xors (all commutative and associative),
    /// which is what lets the snapshot writer hash export chunks on
    /// separate threads and combine afterwards.
    pub fn merge(&mut self, other: &ContentHash) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
        self.count += other.count;
    }

    /// Number of tuples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The order-independent digest.
    pub fn finish(&self) -> u64 {
        mix64(self.sum ^ mix64(self.xor.wrapping_add(self.count)))
    }
}

fn fingerprint_str(c: &mut Checksum, s: &str) {
    c.update(&(s.len() as u32).to_le_bytes());
    c.update(s.as_bytes());
}

fn value_type_rank(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Double => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

/// Fingerprints a program's schema: table names, column names and
/// types, the `->` key split, and the orderby lists, in declaration
/// order. A snapshot taken under one fingerprint refuses to restore
/// under another ([`crate::error::JStarError::SchemaMismatch`]) —
/// renaming a column or reordering tables silently reinterpreting old
/// bytes would be far worse than an error.
///
/// The column-type ranks hashed here are the same `int`/`double`/
/// `String`/`boolean` kinds the `dsl` column muncher maps — the single
/// source of column-kind truth the declaration macros and this
/// fingerprint share.
pub fn schema_fingerprint(defs: &[Arc<TableDef>]) -> u64 {
    let mut c = Checksum::new();
    c.update(&(defs.len() as u32).to_le_bytes());
    for def in defs {
        fingerprint_str(&mut c, &def.name);
        // 0 = keyless; otherwise arity + 1 so `key(0)` (impossible today)
        // could never alias keyless.
        c.update(&(def.key_arity.map(|k| k as u64 + 1).unwrap_or(0)).to_le_bytes());
        c.update(&(def.columns.len() as u32).to_le_bytes());
        for col in &def.columns {
            fingerprint_str(&mut c, &col.name);
            c.update(&[value_type_rank(col.ty)]);
        }
        c.update(&(def.orderby.len() as u32).to_le_bytes());
        for comp in &def.orderby {
            use crate::orderby::OrderComponent;
            let (tag, name) = match comp {
                OrderComponent::Strat(n) => (0u8, n),
                OrderComponent::Seq(n) => (1u8, n),
                OrderComponent::Par(n) => (2u8, n),
            };
            c.update(&[tag]);
            fingerprint_str(&mut c, name);
        }
    }
    mix64(c.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::{seq, strat};
    use crate::schema::{TableDefBuilder, TableId};

    fn def(name: &str) -> Arc<TableDef> {
        Arc::new(
            TableDefBuilder::standalone(name)
                .col_int("a")
                .col_str("b")
                .key(1)
                .orderby(&[strat("Int"), seq("a")])
                .build_def(TableId(0)),
        )
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Known FNV-1a 64 vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn word_fnv_distinguishes_padding_from_data() {
        // The zero-padded tail must not alias real trailing zeros.
        assert_ne!(fnv1a_words(b"x"), fnv1a_words(b"x\0"));
        assert_ne!(fnv1a_words(b""), fnv1a_words(b"\0"));
        assert_ne!(
            fnv1a_words(b"\0\0\0\0\0\0\0"),
            fnv1a_words(b"\0\0\0\0\0\0\0\0")
        );
        // Deterministic, and sensitive to every byte position.
        let base: Vec<u8> = (0u8..32).collect();
        let h = fnv1a_words(&base);
        assert_eq!(h, fnv1a_words(&base));
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(h, fnv1a_words(&flipped), "byte {i} did not matter");
        }
    }

    #[test]
    fn streamed_word_fnv_equals_the_one_shot_however_it_is_cut() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 64, 199, 200] {
            let data = &data[..len];
            let want = fnv1a_words(data);
            // Every two-way cut, then a three-way one around each byte
            // (parts of 0, 1 and many bytes, on and off word boundaries).
            for cut in 0..=len {
                let mut c = WordChecksum::new();
                c.update(&data[..cut]);
                c.update(&data[cut..]);
                assert_eq!(c.finish(), want, "{len} bytes cut at {cut}");
                let mut c = WordChecksum::new();
                c.update(&data[..cut]);
                c.update(&data[cut..len.min(cut + 1)]);
                c.update(&[]);
                c.update(&data[len.min(cut + 1)..]);
                assert_eq!(c.finish(), want, "{len} bytes cut around {cut}");
            }
            // Byte by byte, reading the running value on the way.
            let mut c = WordChecksum::new();
            for (i, b) in data.iter().enumerate() {
                assert_eq!(c.finish(), fnv1a_words(&data[..i]));
                c.update(std::slice::from_ref(b));
            }
            assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn content_hash_is_order_independent() {
        let mut a = ContentHash::new();
        a.add_encoded(b"t1");
        a.add_encoded(b"t2");
        a.add_encoded(b"t3");
        let mut b = ContentHash::new();
        b.add_encoded(b"t3");
        b.add_encoded(b"t1");
        b.add_encoded(b"t2");
        assert_eq!(a.finish(), b.finish());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn content_hash_distinguishes_sets_and_counts() {
        let mut a = ContentHash::new();
        a.add_encoded(b"t1");
        let mut b = ContentHash::new();
        b.add_encoded(b"t2");
        assert_ne!(a.finish(), b.finish());

        // Duplicated element vs single element (multiset sensitivity).
        let mut c = ContentHash::new();
        c.add_encoded(b"t1");
        c.add_encoded(b"t1");
        assert_ne!(a.finish(), c.finish());

        assert_ne!(ContentHash::new().finish(), a.finish());
    }

    #[test]
    fn fingerprint_tracks_schema_changes() {
        let base = schema_fingerprint(&[def("T")]);
        assert_eq!(base, schema_fingerprint(&[def("T")]));
        assert_ne!(base, schema_fingerprint(&[def("U")]));

        // A changed column type flips the fingerprint.
        let retyped = Arc::new(
            TableDefBuilder::standalone("T")
                .col_double("a")
                .col_str("b")
                .key(1)
                .orderby(&[strat("Int"), seq("a")])
                .build_def(TableId(0)),
        );
        assert_ne!(base, schema_fingerprint(&[retyped]));

        // A dropped key split flips the fingerprint.
        let keyless = Arc::new(
            TableDefBuilder::standalone("T")
                .col_int("a")
                .col_str("b")
                .orderby(&[strat("Int"), seq("a")])
                .build_def(TableId(0)),
        );
        assert_ne!(base, schema_fingerprint(&[keyless]));

        // A changed orderby flips the fingerprint.
        let reordered = Arc::new(
            TableDefBuilder::standalone("T")
                .col_int("a")
                .col_str("b")
                .key(1)
                .orderby(&[strat("Int")])
                .build_def(TableId(0)),
        );
        assert_ne!(base, schema_fingerprint(&[reordered]));
    }
}
