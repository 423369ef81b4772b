//! Shared LSB-first bit writer.
//!
//! Both compression stacks in the workspace pack bits starting from the
//! least-significant bit of each byte: DEFLATE (`sciml-compress`)
//! mandates it, and the chunked numeric compressor (`sciml-pack`)
//! adopts the same convention so the two share one writer. Reading is
//! format-specific: the inflater has its own 64-bit refill buffer
//! (`sciml_compress::inflate`) and pack decodes with a range coder.
//!
//! Huffman codes are written most-significant-code-bit first, which in
//! this representation means the code must be bit-reversed before
//! writing; [`BitWriter::write_bits`] writes raw little-endian fields
//! and [`BitWriter::write_code`] handles the reversal.

#![deny(missing_docs)]

/// Accumulating LSB-first bit writer backed by a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `bits`, LSB first.
    ///
    /// # Panics
    /// Panics if `count > 32` or if `bits` has bits set above `count`.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count), "{bits} !< 2^{count}");
        self.bit_buf |= (bits as u64) << self.bit_count;
        self.bit_count += count;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code of `len` bits: DEFLATE stores codes with the
    /// first (most significant) code bit first, so the canonical code is
    /// bit-reversed into the LSB-first stream.
    #[inline]
    pub fn write_code(&mut self, code: u16, len: u32) {
        debug_assert!(len <= 16 && len > 0);
        let rev = (code as u32).reverse_bits() >> (32 - len);
        self.write_bits(rev, len);
    }

    /// Pads to the next byte boundary with zero bits.
    pub fn align_to_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    /// Appends raw bytes; the stream must be byte-aligned.
    ///
    /// # Panics
    /// Panics if not at a byte boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bit_count, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.out.len()
    }

    /// Total bits written (complete bytes plus pending).
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.bit_count as usize
    }

    /// Flushes any partial byte and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_pack_lsb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0x12345, 20);
        assert_eq!(w.bit_len(), 31);
        let bytes = w.finish();
        let mut v = 0u64;
        for (k, &b) in bytes.iter().enumerate() {
            v |= (b as u64) << (8 * k);
        }
        assert_eq!(v & 0b111, 0b101);
        assert_eq!((v >> 3) & 0xFF, 0b11110000);
        assert_eq!((v >> 11) & 0xF_FFFF, 0x12345);
    }

    #[test]
    fn code_is_bit_reversed() {
        let mut w = BitWriter::new();
        // Code 0b110 (len 3) must appear as first-bit-first: 1,1,0
        // => LSB-first byte 0b...011.
        w.write_code(0b110, 3);
        let bytes = w.finish();
        assert_eq!(bytes[0] & 0b111, 0b011);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        assert_eq!(w.byte_len(), 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAB, 0xCD]);
    }
}
