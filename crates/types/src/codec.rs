//! Deterministic binary wire format.
//!
//! Blocks travel over TCP and into the write-ahead log; both need a
//! canonical, self-delimiting byte encoding. The format is little-endian
//! with `u32` length prefixes for sequences — deliberately simple so that
//! the WAL recovery scan and the fuzz tests can reason about it.

use std::error::Error as StdError;
use std::fmt;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded the configured sanity limit.
    LengthOverflow(u64),
    /// An enum discriminant or constrained field had an invalid value.
    InvalidValue(&'static str),
    /// Trailing bytes remained after the top-level value was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::LengthOverflow(len) => write!(f, "length prefix too large: {len}"),
            CodecError::InvalidValue(what) => write!(f, "invalid encoded value: {what}"),
            CodecError::TrailingBytes(count) => {
                write!(f, "{count} trailing bytes after decoded value")
            }
        }
    }
}

impl StdError for CodecError {}

/// Maximum length accepted for any single length-prefixed sequence (64 MiB).
///
/// Prevents a corrupt or malicious length prefix from provoking huge
/// allocations before content validation runs.
pub const MAX_SEQUENCE_BYTES: u64 = 64 * 1024 * 1024;

/// Serializer: appends canonical bytes to a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buffer: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder that can take `capacity` bytes without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buffer: Vec::with_capacity(capacity),
        }
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buffer
    }

    /// Consumes the encoder and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buffer
    }

    /// Current number of encoded bytes.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buffer.push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buffer.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buffer.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_var_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("sequence fits in u32"));
        self.put_bytes(bytes);
    }
}

/// Deserializer: reads canonical bytes from a slice with bounds checking.
///
/// Cloning a decoder is free and lets a caller look ahead: walk the clone
/// over a value, then adopt it (or drop it) to move on.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    input: &'a [u8],
    position: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps an input slice.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input, position: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.position
    }

    /// Number of bytes consumed so far.
    ///
    /// Pair with [`Decoder::consumed_since`] to recover the exact byte span
    /// a nested value was decoded from — e.g. to hash content in place
    /// instead of re-encoding it.
    pub fn position(&self) -> usize {
        self.position
    }

    /// The input bytes consumed between `start` (a prior [`Decoder::position`])
    /// and the current position.
    ///
    /// # Panics
    ///
    /// Panics if `start` is beyond the current position.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.input[start..self.position]
    }

    /// Fails unless every input byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < count {
            return Err(CodecError::UnexpectedEnd);
        }
        let slice = &self.input[self.position..self.position + count];
        self.position += count;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a fixed-size array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_var_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as u64;
        if len > MAX_SEQUENCE_BYTES {
            return Err(CodecError::LengthOverflow(len));
        }
        self.take(len as usize)
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `encoder`.
    fn encode(&self, encoder: &mut Encoder);

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes_vec(&self) -> Vec<u8> {
        let mut encoder = Encoder::new();
        self.encode(&mut encoder);
        encoder.into_bytes()
    }

    /// The exact number of bytes [`Encode::encode`] will append.
    ///
    /// Used by the simulator's bandwidth model without materializing bytes.
    fn encoded_len(&self) -> usize {
        // Default: measure by encoding. Implementations on hot paths
        // override this with arithmetic.
        self.to_bytes_vec().len()
    }
}

/// Types that can be reconstructed from their canonical encoding.
pub trait Decode: Sized {
    /// Reads a value from `decoder`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the input is truncated or malformed.
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Convenience: decodes a value that must span the whole input.
    fn from_bytes_exact(input: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = Decoder::new(input);
        let value = Self::decode(&mut decoder)?;
        decoder.finish()?;
        Ok(value)
    }
}

impl Encode for u64 {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_u64(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for u64 {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        decoder.get_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_u32(*self);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for u32 {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        decoder.get_u32()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_u32(u32::try_from(self.len()).expect("sequence fits in u32"));
        for item in self {
            item.encode(encoder);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let count = decoder.get_u32()? as u64;
        if count > MAX_SEQUENCE_BYTES {
            return Err(CodecError::LengthOverflow(count));
        }
        // Avoid pre-allocating attacker-controlled capacities: cap the
        // initial reservation and let the vector grow organically.
        let mut items = Vec::with_capacity((count as usize).min(4096));
        for _ in 0..count {
            items.push(T::decode(decoder)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, encoder: &mut Encoder) {
        match self {
            None => encoder.put_u8(0),
            Some(value) => {
                encoder.put_u8(1);
                value.encode(encoder);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match decoder.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(decoder)?)),
            _ => Err(CodecError::InvalidValue("option discriminant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut encoder = Encoder::new();
        encoder.put_u8(7);
        encoder.put_u32(0xdead_beef);
        encoder.put_u64(u64::MAX);
        encoder.put_var_bytes(b"hello");
        let bytes = encoder.into_bytes();

        let mut decoder = Decoder::new(&bytes);
        assert_eq!(decoder.get_u8().unwrap(), 7);
        assert_eq!(decoder.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(decoder.get_u64().unwrap(), u64::MAX);
        assert_eq!(decoder.get_var_bytes().unwrap(), b"hello");
        assert!(decoder.finish().is_ok());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut encoder = Encoder::new();
        encoder.put_u64(42);
        let bytes = encoder.into_bytes();
        for cut in 0..bytes.len() {
            let mut decoder = Decoder::new(&bytes[..cut]);
            assert_eq!(decoder.get_u64(), Err(CodecError::UnexpectedEnd));
        }
    }

    #[test]
    fn position_and_consumed_span_track_reads() {
        let mut encoder = Encoder::new();
        encoder.put_u32(7);
        encoder.put_u64(11);
        encoder.put_u8(13);
        let bytes = encoder.into_bytes();

        let mut decoder = Decoder::new(&bytes);
        assert_eq!(decoder.position(), 0);
        let _ = decoder.get_u32().unwrap();
        let start = decoder.position();
        assert_eq!(start, 4);
        let _ = decoder.get_u64().unwrap();
        assert_eq!(decoder.consumed_since(start), &bytes[4..12]);
        assert_eq!(decoder.consumed_since(decoder.position()), &[] as &[u8]);
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [0u8; 9];
        let mut decoder = Decoder::new(&bytes);
        let _ = decoder.get_u64().unwrap();
        assert_eq!(decoder.finish(), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut encoder = Encoder::new();
        encoder.put_u32(u32::MAX);
        let bytes = encoder.into_bytes();
        let mut decoder = Decoder::new(&bytes);
        assert_eq!(
            decoder.get_var_bytes(),
            Err(CodecError::LengthOverflow(u32::MAX as u64))
        );
    }

    #[test]
    fn vec_round_trip() {
        let values: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let bytes = values.to_bytes_vec();
        assert_eq!(bytes.len(), values.encoded_len());
        assert_eq!(Vec::<u64>::from_bytes_exact(&bytes).unwrap(), values);
    }

    #[test]
    fn option_round_trip() {
        for value in [None, Some(17u64)] {
            let bytes = value.to_bytes_vec();
            assert_eq!(bytes.len(), value.encoded_len());
            assert_eq!(Option::<u64>::from_bytes_exact(&bytes).unwrap(), value);
        }
    }

    #[test]
    fn bad_option_discriminant_rejected() {
        assert_eq!(
            Option::<u64>::from_bytes_exact(&[2]),
            Err(CodecError::InvalidValue("option discriminant"))
        );
    }

    #[test]
    fn errors_display() {
        for error in [
            CodecError::UnexpectedEnd,
            CodecError::LengthOverflow(1),
            CodecError::InvalidValue("x"),
            CodecError::TrailingBytes(2),
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_vec_u64_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
            let bytes = values.to_bytes_vec();
            prop_assert_eq!(bytes.len(), values.encoded_len());
            prop_assert_eq!(Vec::<u64>::from_bytes_exact(&bytes).unwrap(), values);
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Whatever the input, decoding must return (not panic).
            let _ = Vec::<u64>::from_bytes_exact(&bytes);
            let _ = Option::<u64>::from_bytes_exact(&bytes);
        }
    }
}
