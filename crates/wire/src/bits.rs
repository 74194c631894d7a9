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

/// The bytes of `bytes` from `at` on as a little-endian word, zeros
/// past the slice end: a refill within 8 bytes of the end.
#[cold]
#[inline(never)]
fn tail_word(bytes: &[u8], at: usize) -> u64 {
    bytes
        .get(at..)
        .unwrap_or_default()
        .iter()
        .rev()
        .fold(0u64, |word, &b| (word << 8) | u64::from(b))
}

/// Reads bit fields from a byte slice at an arbitrary bit offset.
///
/// Two ways to read. [`read`](Self::read) checks its own bounds: it
/// returns `None` once fewer than `width` bits remain. The refill API
/// moves the checks to the caller's fixed points instead:
///
/// * [`refill`](Self::refill) tops the 64-bit window up to at least
///   [`REFILL_BITS`](Self::REFILL_BITS) (56) bits: it ORs in the 8
///   little-endian bytes after those already held, shifted above them,
///   and advances past the bytes that fit whole. It branches on nothing
///   the data decides (only within 8 bytes of the slice end is the word
///   assembled from the bytes left, zeros past the end), and the byte it
///   loads is known one refill ahead, so the load is off the chain of
///   field widths.
/// * [`take`](Self::take) consumes a field of at most 56 bits from the
///   window: a mask, a shift and a subtraction. The fields taken since
///   the last refill must total at most 56 bits.
/// * [`overrun`](Self::overrun) says whether the takes went past
///   `bit_len`. Takes never stop there (bits past `bit_len` are the
///   slice's bytes, then zeros), so a decoder checks once per record
///   that everything it took was in the stream.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Total readable bits (may end mid-byte).
    bit_len: u64,
    /// The next stream bits, LSB first; those above `held` are either
    /// zero or the stream's own (a byte the last refill loaded in part).
    window: u64,
    /// Stream bits in `window`.
    held: u32,
    /// The first byte not yet loaded whole: the position is
    /// `8 * next - held`.
    next: usize,
}

impl<'a> BitReader<'a> {
    /// Bits a [`refill`](Self::refill) guarantees [`take`](Self::take)
    /// can consume before the next one.
    pub const REFILL_BITS: u32 = 56;

    /// A reader over the first `bit_len` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the bits available in `bytes`.
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8], bit_len: u64) -> Self {
        assert!(
            bit_len <= bytes.len() as u64 * 8,
            "bit_len {bit_len} exceeds buffer ({} bits)",
            bytes.len() * 8
        );
        BitReader {
            bytes,
            bit_len,
            window: 0,
            held: 0,
            next: 0,
        }
    }

    /// The current position in bits from the start of the slice; past
    /// `bit_len` once takes overran it.
    #[must_use]
    #[inline]
    fn pos(&self) -> u64 {
        self.next as u64 * 8 - u64::from(self.held)
    }

    /// Repositions the reader to an absolute bit offset.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the readable length.
    pub fn seek(&mut self, pos: u64) {
        assert!(pos <= self.bit_len, "seek past end");
        self.next = (pos / 8) as usize;
        self.window = 0;
        self.held = 0;
        self.refill();
        self.take((pos % 8) as u32);
    }

    /// Bits left to read (0 once takes overran `bit_len`).
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.bit_len.saturating_sub(self.pos())
    }

    /// Whether the position went past `bit_len`: some bit taken since
    /// the last check lies outside the stream.
    #[must_use]
    #[inline]
    pub fn overrun(&self) -> bool {
        self.pos() > self.bit_len
    }

    /// Tops the window up: afterwards at least
    /// [`REFILL_BITS`](Self::REFILL_BITS) bits can be taken.
    #[inline]
    pub fn refill(&mut self) {
        let at = self.next;
        let word = match self.bytes.get(at..at + 8) {
            Some(eight) => u64::from_le_bytes(eight.try_into().expect("8 bytes")),
            None => tail_word(self.bytes, at),
        };
        self.window |= word << self.held;
        self.next += ((63 - self.held) >> 3) as usize;
        self.held |= 56;
    }

    /// Consumes the next `width` bits (LSB first) from the window.
    ///
    /// The caller guarantees the takes since the last
    /// [`refill`](Self::refill) total at most
    /// [`REFILL_BITS`](Self::REFILL_BITS); bits past `bit_len` are taken
    /// like any other, see [`overrun`](Self::overrun).
    #[inline]
    pub fn take(&mut self, width: u32) -> u64 {
        debug_assert!(width <= self.held, "take of {width} bits past the refill");
        let bits = self.window & ((1u64 << width) - 1);
        self.window >>= width;
        self.held -= width;
        bits
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
        Some(self.take_wide(width))
    }

    /// Takes a field of up to 64 bits: the low 56 bits after a refill,
    /// the rest (if any) after another. No bounds check, as
    /// [`take`](Self::take).
    #[inline]
    pub(crate) fn take_wide(&mut self, width: u32) -> u64 {
        let low = width.min(Self::REFILL_BITS);
        self.refill();
        let bits = self.take(low);
        if width == low {
            return bits;
        }
        self.refill();
        bits | self.take(width - low) << low
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
    fn takes_run_past_the_end_and_overrun_says_so() {
        let mut w = BitWriter::new();
        for i in 0..6u64 {
            w.write(i, 7);
        }
        let bit_len = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, bit_len);
        r.refill();
        assert_eq!(r.take(7), 0);
        assert_eq!(r.take(0), 0);
        assert_eq!(r.take(7), 1);
        r.refill();
        for i in 2..6 {
            assert_eq!(r.take(7), i);
        }
        assert!(!r.overrun());
        assert_eq!(r.remaining(), 0);
        // Past `bit_len`: the final byte's padding, then zeros.
        r.refill();
        assert_eq!(r.take(56), 0);
        assert!(r.overrun());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read(1), None);
        assert_eq!(r.read(0), Some(0));
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
