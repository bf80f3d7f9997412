//! On-disk framing for snapshots: little-endian, hand-rolled (the
//! build is offline — no serde), self-describing enough that a
//! truncated or bit-flipped file decodes to a reported
//! [`crate::error::JStarError::CorruptSnapshot`] instead of a panic.
//!
//! See the [module docs](super) for the full file layout table.

use crate::error::{JStarError, Result};
use crate::value::Value;

/// Leading magic of every snapshot file.
pub const MAGIC: &[u8; 8] = b"JSTARSNP";
/// Trailing magic, immediately before the checksum.
pub const FOOTER_MAGIC: &[u8; 8] = b"JSNAPEND";
/// Current format version.
pub const VERSION: u32 = 1;
/// File-name extension for checkpoint snapshots.
pub const SNAPSHOT_EXT: &str = "jsnap";

/// Appends an LEB128 varint (7 data bits per byte, high bit =
/// continuation, always minimal-form).
pub fn encode_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value so small magnitudes (of either sign)
/// varint-encode in one or two bytes.
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Canonical value encoding: a 1-byte type tag (the
/// [`crate::value::Value`] type rank) followed by the payload — a
/// zigzag varint for `Int` (checkpoint images are dominated by small
/// integers; fixed 8-byte fields tripled the image size, and every
/// downstream cost of a checkpoint is byte-proportional), `to_bits`
/// as 8 fixed little-endian bytes for `Double` (preserving `-0.0` vs
/// `0.0` and NaN payloads, matching `Value`'s total order), a varint
/// length + UTF-8 bytes for `Str`. This encoding doubles as the
/// content-hash input; the encoder's minimal-form varints keep it
/// injective per type.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            encode_varint(out, zigzag(*i));
        }
        Value::Double(d) => {
            let mut rec = [1u8; 9];
            rec[1..].copy_from_slice(&d.to_bits().to_le_bytes());
            out.extend_from_slice(&rec);
        }
        Value::Str(s) => {
            out.push(2);
            encode_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
    }
}

/// Like [`encode_varint`] but into a slice, returning the bytes used.
fn varint_into(buf: &mut [u8], mut v: u64) -> usize {
    let mut i = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[i] = byte;
            return i + 1;
        }
        buf[i] = byte | 0x80;
        i += 1;
    }
}

/// Canonical tuple encoding: varint field count, then each field via
/// [`encode_value`]. The table is identified by the enclosing section
/// (or an explicit index, for pending-Delta records) — tuples do not
/// repeat it.
pub fn encode_tuple(out: &mut Vec<u8>, fields: &[Value]) {
    // Fast path: a string-free tuple of ≤ 11 fields encodes in at most
    // 1 + 11·10 bytes, so it can be built in a stack buffer and
    // appended with one bounded copy instead of a capacity-checked Vec
    // push per byte — tens of nanoseconds per tuple, which is real
    // money when a checkpoint encodes the whole Gamma. The bytes are
    // identical to the general path below.
    if fields.len() <= 11 && !fields.iter().any(|v| matches!(v, Value::Str(_))) {
        let mut buf = [0u8; 128];
        buf[0] = fields.len() as u8; // arity ≤ 11 is a 1-byte varint
        let mut at = 1;
        for v in fields {
            match v {
                Value::Int(i) => {
                    buf[at] = 0;
                    at += 1 + varint_into(&mut buf[at + 1..], zigzag(*i));
                }
                Value::Double(d) => {
                    buf[at] = 1;
                    buf[at + 1..at + 9].copy_from_slice(&d.to_bits().to_le_bytes());
                    at += 9;
                }
                Value::Bool(b) => {
                    buf[at] = 3;
                    buf[at + 1] = *b as u8;
                    at += 2;
                }
                Value::Str(_) => unreachable!("filtered above"),
            }
        }
        out.extend_from_slice(&buf[..at]);
        return;
    }
    encode_varint(out, fields.len() as u64);
    for v in fields {
        encode_value(out, v);
    }
}

/// Bounds-checked little-endian reader over a snapshot's byte image.
///
/// Every accessor returns `CorruptSnapshot` on overrun; length fields
/// are validated against the remaining input before any allocation is
/// sized from them, so a bit-flipped count cannot request gigabytes.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current read offset (for diagnostics).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn corrupt(&self, what: &str) -> JStarError {
        JStarError::CorruptSnapshot(format!(
            "{what} at byte {} of {}",
            self.pos,
            self.bytes.len()
        ))
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt("truncated record"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An LEB128 varint. At most 10 bytes; a continuation bit running
    /// past the end of input or past 64 bits is a corruption error.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt("varint longer than 10 bytes"))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(self.corrupt("string length exceeds input"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            JStarError::CorruptSnapshot(format!("invalid UTF-8 string at byte {}", self.pos))
        })
    }

    /// One canonically encoded value.
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Int(unzigzag(self.varint()?))),
            1 => Ok(Value::Double(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            )))),
            2 => {
                let len64 = self.varint()?;
                if len64 > self.remaining() as u64 {
                    return Err(self.corrupt("string value length exceeds input"));
                }
                let bytes = self.take(len64 as usize)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| self.corrupt("invalid UTF-8 in string value"))?;
                Ok(Value::str(s.to_string()))
            }
            3 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(self.corrupt("boolean value out of range")),
            },
            _ => Err(self.corrupt("unknown value type tag")),
        }
    }

    /// The decode-side twin of [`encode_tuple`]'s fast path: a record of
    /// fewer than 128 fields, none of them a string, read with one bounds
    /// check a byte and no error value built on the way — a restore
    /// decodes all of Gamma, and the general path's `Result` per byte is
    /// most of what a small record costs. Returns the offset just past
    /// the record, or `None` for anything else — a string field, and
    /// every malformed or truncated input — with the reader unmoved:
    /// the general path then decodes the record from its start, so what
    /// is accepted, and the error reported for what is not, are its own.
    fn plain_record(&self, fields: &mut Vec<Value>) -> Option<usize> {
        let rest = &self.bytes[self.pos..];
        let arity = *rest.first()?;
        if arity >= 0x80 {
            return None; // a multi-byte arity varint
        }
        let mut at = 1;
        for _ in 0..arity {
            let tag = *rest.get(at)?;
            at += 1;
            fields.push(match tag {
                0 => {
                    let (mut v, mut shift) = (0u64, 0);
                    loop {
                        let byte = *rest.get(at)?;
                        at += 1;
                        if shift == 63 && byte > 1 {
                            return None; // more than 64 bits, or an 11th byte
                        }
                        v |= ((byte & 0x7f) as u64) << shift;
                        if byte & 0x80 == 0 {
                            break Value::Int(unzigzag(v));
                        }
                        shift += 7;
                    }
                }
                1 => {
                    let bits = rest.get(at..at + 8)?;
                    at += 8;
                    Value::Double(f64::from_bits(u64::from_le_bytes(bits.try_into().ok()?)))
                }
                3 => {
                    let flag = *rest.get(at)?;
                    at += 1;
                    match flag {
                        0 => Value::Bool(false),
                        1 => Value::Bool(true),
                        _ => return None,
                    }
                }
                _ => return None, // a string, or no tag at all
            });
        }
        Some(self.pos + at)
    }

    /// One canonically encoded tuple record, decoded into `fields` — a
    /// caller-owned scratch vector, cleared first, so a table's worth of
    /// records costs one buffer and each value is built exactly once
    /// (the caller moves them on with [`crate::tuple::Tuple::drain_from`]).
    /// Returns the raw record slice (the content-hash input). On error
    /// `fields` holds whatever decoded before the bad byte.
    pub fn tuple_record(&mut self, fields: &mut Vec<Value>) -> Result<&'a [u8]> {
        fields.clear();
        let start = self.pos;
        if let Some(end) = self.plain_record(fields) {
            self.pos = end;
            return Ok(&self.bytes[start..end]);
        }
        fields.clear();
        let arity64 = self.varint()?;
        // Each field is at least 2 bytes (tag + smallest payload), so a
        // plausible arity is bounded by the remaining input.
        if arity64 > self.remaining() as u64 {
            return Err(self.corrupt("tuple arity exceeds input"));
        }
        let arity = arity64 as usize;
        fields.reserve(arity);
        for _ in 0..arity {
            fields.push(self.value()?);
        }
        Ok(&self.bytes[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record decoder this module had before the scratch form: a
    /// fresh vector per record. Kept here as the reference the scratch
    /// decode is held against.
    fn tuple_record_fresh<'a>(r: &mut ByteReader<'a>) -> Result<(Vec<Value>, &'a [u8])> {
        let start = r.pos;
        let arity64 = r.varint()?;
        if arity64 > r.remaining() as u64 {
            return Err(r.corrupt("tuple arity exceeds input"));
        }
        let mut fields = Vec::with_capacity(arity64 as usize);
        for _ in 0..arity64 {
            fields.push(r.value()?);
        }
        Ok((fields, &r.bytes[start..r.pos]))
    }

    /// Decodes the record at the head of `bytes` both ways — the scratch
    /// starts dirty, as it does for every record but a table's first —
    /// and holds them to the same fields, raw slice and read position, or
    /// the same error.
    fn decode(bytes: &[u8]) -> Result<Vec<Value>> {
        let (mut fresh, mut reused) = (ByteReader::new(bytes), ByteReader::new(bytes));
        let mut scratch = vec![Value::str("left over"), Value::Int(9)];
        let want = tuple_record_fresh(&mut fresh);
        let got = reused.tuple_record(&mut scratch);
        match (want, got) {
            (Ok((fields, raw)), Ok(got_raw)) => {
                assert_eq!(scratch, fields);
                assert_eq!(got_raw, raw);
                assert_eq!(reused.position(), fresh.position());
                Ok(fields)
            }
            (Err(want), Err(got)) => {
                assert_eq!(got.to_string(), want.to_string());
                Err(got)
            }
            (want, got) => panic!("decoders disagree: {want:?} vs {got:?}"),
        }
    }

    fn roundtrip(fields: Vec<Value>) {
        let mut buf = Vec::new();
        encode_tuple(&mut buf, &fields);
        assert_eq!(decode(&buf).unwrap(), fields);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.tuple_record(&mut Vec::new()).unwrap(), &buf[..]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tuple_roundtrips_every_value_type() {
        roundtrip(vec![
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("héllo"),
            Value::Bool(true),
        ]);
        roundtrip(vec![]);
        roundtrip(vec![Value::Double(-0.0), Value::Double(f64::NAN)]);
    }

    #[test]
    fn string_free_records_decode_as_the_general_path_does() {
        // The reference decoder above knows no fast path; `decode` holds
        // the two together on values, raw slice, position and error text.
        let ints = |vs: &[i64]| vs.iter().copied().map(Value::Int).collect::<Vec<_>>();
        let mut cases = vec![
            ints(&[0, 1, -1, 63, 64, -64, -65, 8191, 8192, 1 << 20, -(1 << 34)]),
            ints(&[i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1]),
            vec![Value::Bool(true), Value::Double(-0.0), Value::Int(7)],
            vec![Value::Double(f64::NAN), Value::Bool(false)],
            (0..127).map(Value::Int).collect(), // the widest 1-byte arity
            (0..128).map(Value::Int).collect(), // one more: general path
        ];
        cases.push(vec![Value::Int(5), Value::str("s"), Value::Int(6)]);
        for fields in cases {
            let mut buf = Vec::new();
            encode_tuple(&mut buf, &fields);
            buf.extend_from_slice(&[0xff; 3]); // the next record's bytes
            assert_eq!(decode(&buf).unwrap(), fields);
            // Every truncation is the same error either way.
            for cut in 0..buf.len() - 3 {
                assert!(decode(&buf[..cut]).is_err(), "{fields:?} cut at {cut}");
            }
        }
        // Hand-made records: a non-minimal varint (accepted, as the
        // general path accepts it), and the hostile ones.
        assert_eq!(decode(&[1, 0, 0x80, 0x00]).unwrap(), ints(&[0]));
        let ten = |last: u8| [&[1u8, 0][..], &[0xff; 9], &[last]].concat();
        assert_eq!(decode(&ten(0x01)).unwrap(), ints(&[i64::MIN]));
        for hostile in [
            ten(0x02),              // a 65th bit
            ten(0x81),              // an 11th byte
            vec![1, 3, 2],          // a bool that is neither
            vec![1, 4, 0],          // no such tag
            vec![2, 0, 1, 1, 0, 0], // a double cut short
        ] {
            assert!(decode(&hostile).is_err(), "{hostile:?}");
        }
    }

    #[test]
    fn double_bits_survive() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Double(-0.0));
        let mut r = ByteReader::new(&buf);
        match r.value().unwrap() {
            Value::Double(d) => assert_eq!(d.to_bits(), (-0.0f64).to_bits()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_tuple(
            &mut buf,
            &[Value::Int(7), Value::str("abc"), Value::Bool(false)],
        );
        for cut in 0..buf.len() {
            let err = decode(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, JStarError::CorruptSnapshot(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn varint_roundtrips_and_rejects_hostile_bytes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            encode_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        // Continuation bit running off the end of input.
        assert!(ByteReader::new(&[0x80, 0x80]).varint().is_err());
        // More than 64 bits of payload.
        assert!(ByteReader::new(&[0xff; 10]).varint().is_err());
        assert!(ByteReader::new(&[0x80; 11]).varint().is_err());
    }

    #[test]
    fn zigzag_preserves_sign_and_magnitude() {
        for i in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &Value::Int(i));
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.value().unwrap(), Value::Int(i));
        }
        // Small magnitudes of either sign stay tiny on disk.
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Int(-3));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn fast_tuple_path_matches_general_encoding() {
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Int(0)],
            vec![Value::Int(-1), Value::Bool(true), Value::Double(3.5)],
            (0..11).map(Value::Int).collect(),
            (0..12).map(Value::Int).collect(), // just over the arity bound
            vec![Value::Int(i64::MIN), Value::Int(i64::MAX)],
            vec![Value::str("s"), Value::Int(1)], // strings take the general path
        ];
        for fields in cases {
            let mut fast = Vec::new();
            encode_tuple(&mut fast, &fields);
            let mut general = Vec::new();
            encode_varint(&mut general, fields.len() as u64);
            for v in &fields {
                encode_value(&mut general, v);
            }
            assert_eq!(fast, general, "{fields:?}");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // Arity claims ~4 billion fields in a short input.
        let mut buf = Vec::new();
        encode_varint(&mut buf, u32::MAX as u64);
        buf.extend_from_slice(&[0; 6]);
        assert!(decode(&buf).is_err());

        // Garbage values, alone and as the one field of a record.
        let mut oversized = vec![2u8]; // Str tag, length beyond the input
        encode_varint(&mut oversized, u64::MAX);
        let mut bad_utf8 = vec![2u8];
        encode_varint(&mut bad_utf8, 2);
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        let bad_tag = vec![9u8, 0, 0];
        let bad_bool = vec![3u8, 7];
        for value in [oversized, bad_utf8, bad_tag, bad_bool] {
            assert!(ByteReader::new(&value).value().is_err(), "{value:?}");
            let record = [&[1u8][..], &value].concat();
            assert!(decode(&record).is_err(), "{record:?}");
        }
    }
}
