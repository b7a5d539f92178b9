//! The one binary codec of the workspace: fixed-width little-endian
//! writers/readers, one length-prefixed list encoding, and one
//! checksummed envelope.
//!
//! The crash-safe service mode (journal segments, checkpoints, snapshot
//! files) needs an explicit, versioned on-disk format. The vendored serde
//! derives are no-ops by design, so every durable format in the workspace
//! is written by hand against these two types, and each encoded type
//! writes its own layout once (`encode_into`/`decode_from` beside the
//! type). The rules:
//!
//! * every integer is little-endian and fixed-width — no varints, so a
//!   record's length is a pure function of its type and the reader can
//!   detect truncation exactly;
//! * strings, byte blobs and lists are length-prefixed (`u32`);
//! * a durable file opens with [`ByteWriter::magic`] (8-byte magic and a
//!   `u32` version), and a payload that must survive bit rot travels
//!   [`ByteWriter::sealed`]: `len u32 | payload | crc32(payload)`. The
//!   layouts built from them are tabled once, in DESIGN §14;
//! * a [`ByteReader`] never panics on malformed input — every decode
//!   error is the typed [`CodecError`], because journal readers must
//!   survive torn tails and bit flips gracefully.
//!
//! The checksum is CRC-32 with the IEEE 802.3 polynomial (the zlib/PNG
//! one), computed over raw bytes with a lazily built 256-entry table. It
//! is a corruption *detector*, not a cryptographic MAC — the threat model
//! is torn writes and bit rot, not an adversary.

use std::fmt;
use std::ops::RangeInclusive;

/// A decode failure: the input is shorter than the format requires, its
/// envelope is not this format's, or a field holds a value the format
/// forbids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-field: `needed` more bytes were
    /// required at `offset`.
    Truncated {
        /// Byte offset the failed read started at.
        offset: usize,
        /// Bytes the field still required.
        needed: usize,
    },
    /// The input does not open with the format's magic.
    BadMagic,
    /// A format version this build does not read.
    UnknownVersion {
        /// Version found.
        version: u32,
    },
    /// A complete sealed payload whose checksum does not match (bit rot).
    BadChecksum,
    /// A field held a value outside its domain (unknown enum tag,
    /// non-UTF-8 string, length overflowing the input).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, needed } => {
                write!(
                    f,
                    "truncated input: {needed} more bytes needed at offset {offset}"
                )
            }
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnknownVersion { version } => write!(f, "unknown version {version}"),
            CodecError::BadChecksum => write!(f, "bad checksum"),
            CodecError::Invalid { what } => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends fixed-width little-endian values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a `usize` as a `u64` (the formats are 64-bit regardless of
    /// host width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// The `u32` length prefix of `len` bytes or items. A blob or list of
    /// 2³² entries is a bug in the writer, not something a format holds.
    fn prefix(len: usize) -> [u8; 4] {
        u32::try_from(len)
            .expect("length prefix past u32::MAX")
            .to_le_bytes()
    }

    /// Writes a `u32`-length-prefixed byte blob.
    fn bytes(&mut self, v: &[u8]) {
        self.raw(&Self::prefix(v.len()));
        self.raw(v);
    }

    /// Writes a `u32`-count-prefixed list, each item by `item` — pass a
    /// type's `encode_into`.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&T, &mut ByteWriter)) {
        self.raw(&Self::prefix(items.len()));
        for it in items {
            item(it, self);
        }
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes the head of a durable file: `magic | version u32`.
    pub fn magic(&mut self, magic: &[u8; 8], version: u32) {
        self.raw(magic);
        self.u32(version);
    }

    /// Writes `len u32 | payload | crc32(payload)`, the payload written
    /// in place by `body`.
    pub fn sealed(&mut self, body: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = Self::prefix(self.buf.len() - at - 4);
        self.buf[at..at + 4].copy_from_slice(&len);
        let sum = crc32(&self.buf[at + 4..]);
        self.u32(sum);
    }
}

/// Reads fixed-width little-endian values off a byte slice, returning
/// typed errors instead of panicking on malformed input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is invalid.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what: "bool" }),
        }
    }

    /// Reads a `u64` into a `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid { what: "usize" })
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid {
            what: "utf-8 string",
        })
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a list written by [`ByteWriter::list`], each item by `item`
    /// — pass a type's `decode_from`. Every item takes at least one
    /// byte, so the count reserves no more than the bytes that remain.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32()? as usize;
        let mut out = Vec::with_capacity(count.min(self.remaining()));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads what [`ByteWriter::magic`] wrote and returns the version,
    /// which must lie in `versions`.
    pub fn magic(
        &mut self,
        magic: &[u8; 8],
        versions: RangeInclusive<u32>,
    ) -> Result<u32, CodecError> {
        if self.take(magic.len())? != magic {
            return Err(CodecError::BadMagic);
        }
        let version = self.u32()?;
        if !versions.contains(&version) {
            return Err(CodecError::UnknownVersion { version });
        }
        Ok(version)
    }

    /// Reads what [`ByteWriter::sealed`] wrote and returns a reader over
    /// the payload, once its checksum matches. A frame cut short is
    /// [`CodecError::Truncated`], a whole one that fails the sum
    /// [`CodecError::BadChecksum`].
    pub fn sealed(&mut self) -> Result<ByteReader<'a>, CodecError> {
        let payload = self.bytes()?;
        if crc32(payload) != self.u32()? {
            return Err(CodecError::BadChecksum);
        }
        Ok(ByteReader::new(payload))
    }

    /// Errs unless every byte was read: a payload that decodes with bytes
    /// to spare is not the layout it claims to be.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CodecError::Invalid {
                what: "trailing bytes",
            })
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) of `data` —
/// the zlib/PNG checksum. Table-driven, built once per process.
fn crc32(data: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.u128(u128::MAX / 3);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        w.usize(123_456);
        w.str("dynP — self-tuning");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.str().unwrap(), "dynP — self-tuning");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        match r.u64() {
            Err(CodecError::Truncated {
                offset: 0,
                needed: 3,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A length prefix pointing past the end is truncation too.
        let mut w = ByteWriter::new();
        w.u32(1000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn invalid_values_are_typed() {
        let mut r = ByteReader::new(&[7]);
        assert_eq!(r.bool(), Err(CodecError::Invalid { what: "bool" }));
        let mut w = ByteWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.str(),
            Err(CodecError::Invalid {
                what: "utf-8 string"
            })
        );
    }

    #[test]
    fn envelope_and_lists_round_trip_and_fail_typed() {
        let mut w = ByteWriter::new();
        w.magic(b"DYNPTEST", 2);
        w.sealed(|w| w.list(&[7u32, 8, 9], |v, w| w.u32(*v)));
        let bytes = w.into_bytes();
        // magic 8 + version 4 + len 4 + (count 4 + 3 × 4) + crc 4
        assert_eq!(bytes.len(), 36);
        assert_eq!(bytes[12..16], 16u32.to_le_bytes());

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.magic(b"DYNPTEST", 1..=2), Ok(2));
        let mut p = r.sealed().unwrap();
        assert_eq!(p.list(|r| r.u32()), Ok(vec![7, 8, 9]));
        assert_eq!(p.finish(), Ok(()));
        assert!(r.is_exhausted());

        let read = |bytes: &[u8]| {
            let mut r = ByteReader::new(bytes);
            r.magic(b"DYNPTEST", 1..=1)?;
            r.sealed().map(|_| ())
        };
        let mut other = bytes.clone();
        other[0] ^= 1;
        assert_eq!(read(&other), Err(CodecError::BadMagic));
        assert_eq!(read(&bytes), Err(CodecError::UnknownVersion { version: 2 }));
        let mut v1 = bytes.clone();
        v1[8] = 1;
        assert_eq!(read(&v1), Ok(()));
        v1[20] ^= 1;
        assert_eq!(read(&v1), Err(CodecError::BadChecksum));
        assert!(matches!(
            read(&v1[..v1.len() - 1]),
            Err(CodecError::Truncated { .. })
        ));

        // A count far past the input reserves by the bytes left and fails
        // typed; a payload with bytes to spare is refused by `finish`.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2];
        let mut r = ByteReader::new(&huge);
        assert!(matches!(
            r.list(|r| r.u8()),
            Err(CodecError::Truncated { .. })
        ));
        let r = ByteReader::new(&huge[4..]);
        assert_eq!(
            r.finish(),
            Err(CodecError::Invalid {
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"journal record payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
