//! Binary encoding of cwfmem checkpoints (checkpoint format v3).
//!
//! A checkpoint is a flat little-endian byte stream produced by a
//! [`Writer`] and consumed by a [`Reader`], sealed by an 8-byte
//! [`checksum`] trailer ([`Writer::into_sealed`], [`Reader::unseal`]) so
//! a flipped or truncated byte fails before any field is parsed. The
//! stream has no self-description beyond 4-byte *section tags*
//! sprinkled at component boundaries: both sides must agree on the
//! exact field order, which is enforced in the simulator crates by
//! exhaustively destructuring every serialized struct (adding a field
//! without updating its `Ckpt` impl is a compile error) and at runtime
//! by the section tags (a reader that drifts out of alignment fails fast
//! on the next tag instead of silently misinterpreting bytes).
//!
//! Design rules, shared with the impls in the simulator crates:
//!
//! * **State only, never config.** Restore reconstructs the object from
//!   its run configuration and then overwrites mutable state, so device
//!   specs, mappers, closures and other pure-config fields are never
//!   encoded.
//! * **`f64` as raw bits.** Floats round-trip via [`f64::to_bits`] so a
//!   resumed run is bit-identical, not just approximately equal.
//! * **Unordered maps as sorted pairs.** Hash containers are encoded in
//!   key order so the byte stream is deterministic: a `HashMap` writes
//!   exactly the bytes of the `BTreeMap` holding the same pairs.

// cwf-lint: allow(hash-container) -- encoded in sorted key order, never iterated unordered
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Error produced when a checkpoint cannot be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError {
    msg: String,
}

impl CkptError {
    /// A new error with the given description.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        CkptError { msg: msg.into() }
    }
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint error: {}", self.msg)
    }
}

impl std::error::Error for CkptError {}

/// Shorthand result type used throughout the checkpoint layer.
pub type Result<T> = std::result::Result<T, CkptError>;

/// The trailer checksum of `bytes`: FNV-1a's offset basis and prime
/// folded over little-endian 64-bit words, then over the byte tail one
/// byte at a time. Each fold step is a bijection of the running hash, so
/// any single changed word — every single-bit flip included — changes
/// the result.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Append-only encoder for the checkpoint byte stream.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consume the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Consume the writer, returning the encoded bytes followed by the
    /// little-endian [`checksum`] of all of them.
    #[must_use]
    pub fn into_sealed(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.put_u64(sum);
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes verbatim (length is *not* encoded).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a 4-byte section tag marking a component boundary.
    pub fn section(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }
}

/// Cursor that decodes the byte stream produced by [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check the trailer [`Writer::into_sealed`] appended against the
    /// checksum of every byte before it, then stop the stream short of
    /// it, so [`Reader::finish`] expects the payload to end there.
    ///
    /// # Errors
    ///
    /// Fails when the unread stream is shorter than the trailer or the
    /// checksum does not match.
    pub fn unseal(&mut self) -> Result<()> {
        let Some(end) = self.buf.len().checked_sub(8).filter(|&end| end >= self.pos) else {
            return Err(CkptError::new("truncated checkpoint: no checksum trailer"));
        };
        let (body, trailer) = self.buf.split_at(end);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let actual = checksum(body);
        if stored != actual {
            return Err(CkptError::new(format!(
                "checksum mismatch: trailer {stored:#018x}, payload {actual:#018x}"
            )));
        }
        self.buf = body;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CkptError::new(format!(
                "truncated checkpoint: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode one byte.
    ///
    /// # Errors
    ///
    /// Fails when the stream is exhausted.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decode a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails when the stream is exhausted.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Decode a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails when the stream is exhausted.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails when the stream is exhausted.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Decode `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Fails when the stream is exhausted.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Consume and validate a 4-byte section tag.
    ///
    /// # Errors
    ///
    /// Fails when the next 4 bytes do not equal `tag` — the usual
    /// symptom of a writer/reader field-order mismatch.
    pub fn expect_section(&mut self, tag: &[u8; 4]) -> Result<()> {
        let got = self.take(4)?;
        if got != tag {
            return Err(CkptError::new(format!(
                "section tag mismatch at offset {}: expected {:?}, found {:?}",
                self.pos - 4,
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(got)
            )));
        }
        Ok(())
    }

    /// Assert the whole stream has been consumed.
    ///
    /// # Errors
    ///
    /// Fails when trailing bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(CkptError::new(format!(
                "{} trailing bytes after checkpoint payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A value that can be written to and rebuilt from the checkpoint stream.
pub trait Ckpt: Sized {
    /// Encode `self` into `w`.
    fn save(&self, w: &mut Writer);

    /// Decode a value from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn load(r: &mut Reader<'_>) -> Result<Self>;
}

macro_rules! impl_ckpt_uint {
    ($($ty:ty => $put:ident / $get:ident),+ $(,)?) => {
        $(impl Ckpt for $ty {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self> {
                r.$get()
            }
        })+
    };
}

impl_ckpt_uint!(u8 => put_u8/get_u8, u16 => put_u16/get_u16, u32 => put_u32/get_u32, u64 => put_u64/get_u64);

impl Ckpt for usize {
    fn save(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        usize::try_from(r.get_u64()?).map_err(|_| CkptError::new("usize overflow"))
    }
}

impl Ckpt for i64 {
    fn save(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_u64()? as i64)
    }
}

impl Ckpt for bool {
    fn save(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::new(format!("invalid bool byte {v}"))),
        }
    }
}

impl Ckpt for f64 {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Ckpt for String {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::try_from(r.get_u64()?).map_err(|_| CkptError::new("string too long"))?;
        let bytes = r.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::new("invalid utf-8 string"))
    }
}

impl<T: Ckpt> Ckpt for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            v => Err(CkptError::new(format!("invalid Option discriminant {v}"))),
        }
    }
}

impl<T: Ckpt> Ckpt for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::try_from(r.get_u64()?).map_err(|_| CkptError::new("vec too long"))?;
        // Guard the pre-allocation against garbage lengths: each element
        // occupies at least one byte of payload.
        if n > r.remaining() {
            return Err(CkptError::new(format!("vec length {n} exceeds remaining payload")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Ckpt> Ckpt for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

impl<T: Ckpt, const N: usize> Ckpt for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| CkptError::new("array length mismatch"))
    }
}

impl<A: Ckpt, B: Ckpt> Ckpt for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Ckpt, B: Ckpt, C: Ckpt> Ckpt for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<A: Ckpt, B: Ckpt, C: Ckpt, D: Ckpt> Ckpt for (A, B, C, D) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
        self.3.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?, D::load(r)?))
    }
}

impl<K: Ckpt + Ord, V: Ckpt> Ckpt for BTreeMap<K, V> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::try_from(r.get_u64()?).map_err(|_| CkptError::new("map too long"))?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// cwf-lint: allow(hash-container) -- saved in sorted key order, loaded by keyed insert
impl<K: Ckpt + Ord + Hash, V: Ckpt, S: BuildHasher + Default> Ckpt for HashMap<K, V, S> {
    fn save(&self, w: &mut Writer) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_u64(pairs.len() as u64);
        for (k, v) in pairs {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let pairs: Vec<(K, V)> = Ckpt::load(r)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<K: Ckpt + Ord> Ckpt for BTreeSet<K> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for k in self {
            k.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::try_from(r.get_u64()?).map_err(|_| CkptError::new("set too long"))?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

/// Implement [`Ckpt`] for a struct by exhaustively destructuring its
/// fields in declaration order. Because the destructure pattern must
/// name *every* field, adding a field to the struct without updating
/// the macro invocation is a compile error — the drift guard the whole
/// checkpoint format relies on.
///
/// ```
/// use cwf_ckpt::{ckpt_struct, Ckpt, Reader, Writer};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// ckpt_struct!(Point { x, y });
///
/// let mut w = Writer::new();
/// Point { x: 1, y: 2 }.save(&mut w);
/// let bytes = w.into_vec();
/// let mut r = Reader::new(&bytes);
/// assert_eq!(Point::load(&mut r).unwrap(), Point { x: 1, y: 2 });
/// ```
#[macro_export]
macro_rules! ckpt_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Ckpt for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                let $ty { $($field),+ } = self;
                $($crate::Ckpt::save($field, w);)+
            }
            fn load(r: &mut $crate::Reader<'_>) -> $crate::Result<Self> {
                $(let $field = $crate::Ckpt::load(r)?;)+
                Ok($ty { $($field),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Ckpt + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&0xA5u8);
        roundtrip(&0xBEEFu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&(-42i64));
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&1.5f64);
        roundtrip(&f64::NAN.to_bits());
        roundtrip(&String::from("hello κόσμε"));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Some(7u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&VecDeque::from(vec![9u32, 8, 7]));
        roundtrip(&[1u64, 2, 3]);
        roundtrip(&(1u8, 2u64));
        roundtrip(&(1u8, 2u64, 3u32));
        roundtrip(&(1u8, 2u64, 3u32, true));
        let mut m = BTreeMap::new();
        m.insert(3u64, 4u8);
        m.insert(1, 2);
        roundtrip(&m);
        let mut s = BTreeSet::new();
        s.insert(17u64);
        roundtrip(&s);
    }

    #[test]
    fn nan_bits_preserved() {
        let odd_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Writer::new();
        odd_nan.save(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(f64::load(&mut r).unwrap().to_bits(), odd_nan.to_bits());
    }

    #[test]
    fn section_tag_mismatch_detected() {
        let mut w = Writer::new();
        w.section(b"AAAA");
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(r.expect_section(b"BBBB").is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_u32(7);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [0u8; 3];
        let r = Reader::new(&bytes);
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_length_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u8>::load(&mut r).is_err());
    }

    #[test]
    fn hash_map_encodes_as_the_sorted_btree_map() {
        let pairs = [(9u64, 1u8), (2, 7), (40, 3), (0, 0)];
        let bytes = |m: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            m(&mut w);
            w.into_vec()
        };
        let hashed: HashMap<u64, u8> = pairs.into_iter().collect();
        let sorted: BTreeMap<u64, u8> = pairs.into_iter().collect();
        assert_eq!(bytes(&|w| hashed.save(w)), bytes(&|w| sorted.save(w)));
        roundtrip(&hashed);
    }

    #[test]
    fn sealed_stream_checks_its_trailer() {
        let mut w = Writer::new();
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_u8(5);
        let sealed = w.into_sealed();
        assert_eq!(sealed.len(), 9 + 8);
        let mut r = Reader::new(&sealed);
        r.unseal().unwrap();
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_u8().unwrap(), 5);
        r.finish().unwrap();
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Reader::new(&bad).unseal().is_err(), "flip of bit {bit} went unnoticed");
        }
        for len in 0..sealed.len() {
            assert!(Reader::new(&sealed[..len]).unseal().is_err(), "truncation to {len}");
        }
    }

    #[test]
    fn macro_struct_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u64,
            b: Vec<u8>,
            c: Option<String>,
        }
        ckpt_struct!(Demo { a, b, c });
        roundtrip(&Demo { a: 1, b: vec![2, 3], c: Some("x".into()) });
    }
}
