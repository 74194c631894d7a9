//! Bit-granular packing primitives.
//!
//! The wire stream is a flat sequence of bit fields with no byte
//! alignment: bit `k` of the stream lives in byte `k / 8` at bit position
//! `k % 8` (LSB-first within little-endian bytes). A field of width `w`
//! written at stream position `p` occupies stream bits `p .. p + w`,
//! least-significant field bit first. The final byte of a serialized
//! stream is zero-padded.

/// A mask of the low `width` bits; `width` 0 gives 0, 64 gives all ones.
#[inline]
fn low_bits(width: u32) -> u64 {
    1u64.checked_shl(width).unwrap_or(0).wrapping_sub(1)
}

/// Appends bit fields to a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Total bits written so far.
    bit_len: u64,
}

impl BitWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Writes the low `width` bits of `value` (LSB first).
    ///
    /// The field, shifted to the stream's bit offset, spans at most
    /// 71 bits: its low byte is ORed into the partial last byte (when
    /// there is one) and the bytes above it are appended.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits above `width` set —
    /// encoders must validate ranges before serializing.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} > 64");
        assert!(
            value & !low_bits(width) == 0,
            "value {value:#x} exceeds {width} bits"
        );
        let shift = (self.bit_len % 8) as u32;
        let spanned = (shift + width).div_ceil(8) as usize;
        let field = (u128::from(value) << shift).to_le_bytes();
        if shift > 0 {
            *self.bytes.last_mut().expect("a partial byte") |= field[0];
        }
        self.bytes
            .extend_from_slice(&field[usize::from(shift > 0)..spanned]);
        self.bit_len += u64::from(width);
    }

    /// Total bits written.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Consumes the writer, returning the zero-padded byte buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The bytes written so far (final byte zero-padded).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reads bit fields from a byte slice at an arbitrary bit offset.
///
/// A read loads the 64-bit little-endian word starting at the byte that
/// holds the read position — one `u64::from_le_bytes` over an 8-byte
/// slice — and shifts the position's bit offset out of it: the word then
/// holds the next `64 - offset` (at least 57) stream bits. A field that
/// fits is one shift and one mask; only a field wider than 56 bits at an
/// unaligned position takes its top bits from the ninth byte. Within 8
/// bytes of the buffer end the word is assembled from the bytes left. The
/// word may reach past `bit_len` into the final byte's padding; the
/// `remaining` check keeps those bits out of every field.
///
/// The reader keeps no window across reads: each read reloads the word
/// at its own position. Reloading costs one load; a cached window would
/// cost a refill branch that data-dependent field widths mispredict.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Current position in bits from the start of `bytes`.
    pos: u64,
    /// Total readable bits (may end mid-byte).
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// A reader over the first `bit_len` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the bits available in `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8], bit_len: u64) -> Self {
        assert!(
            bit_len <= bytes.len() as u64 * 8,
            "bit_len {bit_len} exceeds buffer ({} bits)",
            bytes.len() * 8
        );
        BitReader {
            bytes,
            pos: 0,
            bit_len,
        }
    }

    /// Repositions the reader to an absolute bit offset.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the readable length.
    pub fn seek(&mut self, pos: u64) {
        assert!(pos <= self.bit_len, "seek past end");
        self.pos = pos;
    }

    /// Bits left to read.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// Reads the next `width` bits (LSB first); `None` once fewer than
    /// `width` bits remain, leaving the position unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "field width {width} > 64");
        if self.remaining() < u64::from(width) {
            return None;
        }
        let at = (self.pos / 8) as usize;
        let skip = (self.pos % 8) as u32;
        let bits = match self.bytes.get(at..at + 8) {
            Some(eight) => {
                let word = u64::from_le_bytes(eight.try_into().expect("8 bytes")) >> skip;
                if width + skip > 64 {
                    // `remaining` guarantees the ninth byte exists.
                    word | u64::from(self.bytes[at + 8]) << (64 - skip)
                } else {
                    word
                }
            }
            None => {
                self.bytes[at..]
                    .iter()
                    .rev()
                    .fold(0u64, |word, &b| (word << 8) | u64::from(b))
                    >> skip
            }
        };
        self.pos += u64::from(width);
        Some(bits & low_bits(width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_field_round_trips() {
        let mut w = BitWriter::new();
        w.write(0b1011, 4);
        assert_eq!(w.bit_len(), 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 4);
        assert_eq!(r.read(4), Some(0b1011));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn unaligned_fields_round_trip() {
        let fields: &[(u64, u32)] = &[
            (0b101, 3),
            (0xdead_beef, 32),
            (0, 1),
            (u64::MAX, 64),
            (0x3f, 7),
            (1, 1),
        ];
        let mut w = BitWriter::new();
        for &(v, width) in fields {
            w.write(v, width);
        }
        let bit_len = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, bit_len);
        for &(v, width) in fields {
            assert_eq!(r.read(width), Some(v), "{width}-bit field");
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bit_order_is_lsb_first_in_le_bytes() {
        // Writing 0x1 as 1 bit then 0xff as 8 bits: stream bit 0 is the 1,
        // bits 1..9 are the 0xff. Byte 0 = 0b1111_1111, byte 1 = 0b1.
        let mut w = BitWriter::new();
        w.write(1, 1);
        w.write(0xff, 8);
        assert_eq!(w.as_bytes(), &[0xff, 0x01]);
    }

    #[test]
    fn seek_supports_chunked_reads() {
        let mut w = BitWriter::new();
        for i in 0..10u64 {
            w.write(i, 5);
        }
        let bit_len = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, bit_len);
        r.seek(5 * 7); // jump straight to the 8th field
        assert_eq!(r.read(5), Some(7));
        assert_eq!(r.read(5), Some(8));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_is_rejected() {
        BitWriter::new().write(4, 2);
    }

    #[test]
    fn final_byte_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        assert_eq!(w.as_bytes(), &[0b11]);
    }
}
