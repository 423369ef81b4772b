//! Panic-free little-endian readers for the codec wire formats.
//!
//! Parsers bounds-check with `take()` before reading, so the slice
//! length is already guaranteed; plain indexing (instead of
//! `try_into().unwrap()`) keeps the decode paths free of panic tokens
//! under the repo's `no_panics` lint and its call-graph big brother
//! `no_panics_transitive`.

use crate::CodecError;

/// A bounds-checked cursor over a wire blob. Lengths come from hostile
/// headers, so [`Reader::take`] compares against the bytes left instead
/// of computing `pos + n` (which a length near `usize::MAX` overflows).
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { rest: data }
    }

    /// The next `n` bytes, or [`CodecError::Truncated`] when fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// A little-endian u32.
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        self.take(4).map(le_u32)
    }

    /// A little-endian u64 section length followed by that many bytes.
    /// A length that cannot fit in memory is truncation by definition.
    pub(crate) fn section(&mut self) -> Result<&'a [u8], CodecError> {
        let len = usize::try_from(le_u64(self.take(8)?)).map_err(|_| CodecError::Truncated)?;
        self.take(len)
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

/// Little-endian u16 from the first 2 bytes.
#[inline]
pub(crate) fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

/// Little-endian u32 from the first 4 bytes.
#[inline]
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first 8 bytes.
#[inline]
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Little-endian f32 from the first 4 bytes.
#[inline]
pub(crate) fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_match_from_le_bytes() {
        let b = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08];
        assert_eq!(le_u16(&b), u16::from_le_bytes([1, 2]));
        assert_eq!(le_u32(&b), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(le_u64(&b), u64::from_le_bytes(b));
        assert_eq!(le_f32(&b).to_le_bytes(), [1, 2, 3, 4]);
    }

    #[test]
    fn reader_refuses_lengths_past_the_end_without_overflow() {
        let b = [1u8, 2, 3];
        let mut r = Reader::new(&b);
        assert_eq!(r.take(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert_eq!(r.take(2), Err(CodecError::Truncated));
        assert_eq!(r.take(1).unwrap(), &[3]);
        assert!(r.is_empty());
        let mut huge = u64::MAX.to_le_bytes().to_vec();
        huge.push(0);
        assert_eq!(Reader::new(&huge).section(), Err(CodecError::Truncated));
    }

    #[test]
    fn readers_ignore_trailing_bytes() {
        let b = [0xFFu8, 0x00, 0xAA, 0xBB, 0xCC];
        assert_eq!(le_u16(&b), 0x00FF);
        assert_eq!(le_u32(&b), 0xBBAA_00FF);
    }
}
