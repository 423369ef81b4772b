//! DEFLATE decompressor (full RFC 1951: stored, fixed, dynamic blocks).
//!
//! One core, `run`, decodes a stream into a `Sink`:
//!
//! * `Exact` — a caller-sized slice. Writing past its end, or ending
//!   the stream short of it, is a typed error. The packed store uses it
//!   with the raw length from its CRC-checked index, so a sample inflates
//!   straight into the pipeline's pooled buffer.
//! * `Growable` — appends to a `Vec`, growing it as output arrives,
//!   for [`inflate()`], gzip, zlib and the stream adapter.
//!
//! Input bits come through `Bits`, a 64-bit buffer refilled 8 bytes at
//! a time. Past the end of input a refill pads with zero bytes and
//! counts them; consuming any of those phantom bits is truncation, which
//! is checked at every refill, block end and stream end, and reported as
//! [`Error::UnexpectedEof`].

use crate::deflate::CLC_ORDER;
use crate::huffman::{build_table, entry, Alphabet};
use crate::Error;
use std::sync::OnceLock;

/// Primary index width of the literal/length table.
const LITLEN_BITS: u32 = 10;
/// Primary index width of the distance table.
const DIST_BITS: u32 = 8;
/// Literal/length table size: a 1024-entry primary table plus
/// subtables. A subtable of `2^d` entries belongs to a code prefix whose
/// codes (all but the last prefix's) form a complete subtree, which
/// needs at least `d + 1` symbols; over 288 symbols that bounds the
/// subtables at `288 · 32/6 + 32` entries.
const LITLEN_TABLE: usize = 1024 + 1600;
/// Distance table size, by the same bound: `32 · 128/8 + 128` entries
/// past the 256-entry primary table.
const DIST_TABLE: usize = 256 + 640;

/// Largest output one DEFLATE input byte can produce: a 258-byte match
/// coded in one literal/length bit and one distance bit. Bounds any
/// output size read from untrusted input before allocating for it.
pub const MAX_EXPANSION: usize = 1032;

/// Zeroed bytes a [`Growable`] sink keeps past the output so match
/// copies can overshoot with whole 8-byte words.
const SLACK: usize = 16;

/// Decode tables for one block.
struct Tables {
    litlen: [u32; LITLEN_TABLE],
    dist: [u32; DIST_TABLE],
}

impl Tables {
    fn empty() -> Self {
        Tables {
            litlen: [0; LITLEN_TABLE],
            dist: [0; DIST_TABLE],
        }
    }
}

/// The fixed-Huffman tables (RFC 1951 §3.2.6), built once. Symbols
/// 286/287 and distance codes 30/31 have codes but decode as invalid.
fn fixed_tables() -> Result<&'static Tables, Error> {
    static FIXED: OnceLock<Result<Tables, Error>> = OnceLock::new();
    FIXED
        .get_or_init(|| {
            let mut lens = [8u8; 288];
            lens[144..256].fill(9);
            lens[256..280].fill(7);
            let mut t = Tables::empty();
            build_table(&lens, Alphabet::LitLen, LITLEN_BITS, &mut t.litlen)?;
            build_table(&[5; 32], Alphabet::Dist, DIST_BITS, &mut t.dist)?;
            Ok(t)
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// LSB-first bit buffer over the compressed input.
struct Bits<'a> {
    data: &'a [u8],
    /// Next input byte to load.
    pos: usize,
    buf: u64,
    /// Valid bits in `buf` (bits above may hold copies of later input).
    count: u32,
    /// Zero bytes loaded past the end of `data`.
    phantom: usize,
}

impl<'a> Bits<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bits {
            data,
            pos: 0,
            buf: 0,
            count: 0,
            phantom: 0,
        }
    }

    /// Tops the buffer up to at least 56 valid bits.
    #[inline(always)]
    fn refill(&mut self) -> Result<(), Error> {
        match self.data.get(self.pos..self.pos + 8) {
            Some(w) => {
                let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
                self.buf |= w << self.count;
                self.pos += ((63 - self.count) >> 3) as usize;
                self.count |= 56;
                Ok(())
            }
            None => self.refill_tail(),
        }
    }

    /// Byte-at-a-time refill near the end of input, padding with zero
    /// bytes once it runs out.
    #[cold]
    fn refill_tail(&mut self) -> Result<(), Error> {
        self.check_eof()?;
        while self.count <= 56 {
            match self.data.get(self.pos) {
                Some(&b) => {
                    self.buf |= (b as u64) << self.count;
                    self.pos += 1;
                }
                None => self.phantom += 1,
            }
            self.count += 8;
        }
        Ok(())
    }

    /// Fails if any padding bit has been consumed.
    #[inline]
    fn check_eof(&self) -> Result<(), Error> {
        if self.phantom * 8 > self.count as usize {
            Err(Error::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    #[inline(always)]
    fn consume(&mut self, n: u32) {
        self.buf >>= n;
        self.count -= n;
    }

    /// The low `n` (< 32) buffered bits.
    #[inline(always)]
    fn peek(&self, n: u32) -> u32 {
        (self.buf & ((1u64 << n) - 1)) as u32
    }

    /// Reads `n` (≤ 16) bits outside the hot loop.
    fn take(&mut self, n: u32) -> Result<u32, Error> {
        if self.count < n {
            self.refill()?;
        }
        let v = self.peek(n);
        self.consume(n);
        Ok(v)
    }

    /// Drops bits up to the next byte boundary and returns the offset of
    /// the first input byte not yet consumed.
    fn align(&mut self) -> Result<usize, Error> {
        self.consume(self.count % 8);
        self.check_eof()?;
        Ok(self.pos + self.phantom - (self.count / 8) as usize)
    }

    /// Restarts the buffer at input offset `pos` (after a stored block).
    fn reset(&mut self, pos: usize) {
        *self = Bits::new(self.data);
        self.pos = pos;
    }
}

/// Where decoded bytes go. `buf` is the whole writable region; the core
/// tracks the write position itself.
pub(crate) trait Sink {
    /// The writable region.
    fn buf(&mut self) -> &mut [u8];
    /// Makes room for `need` more bytes at `pos` and returns the new
    /// region, or fails when the sink cannot grow.
    fn grow(&mut self, pos: usize, need: usize) -> Result<&mut [u8], Error>;
}

/// A caller-sized output slice that must be filled exactly.
pub(crate) struct Exact<'o>(pub(crate) &'o mut [u8]);

impl Sink for Exact<'_> {
    fn buf(&mut self) -> &mut [u8] {
        self.0
    }

    fn grow(&mut self, _pos: usize, _need: usize) -> Result<&mut [u8], Error> {
        Err(Error::Corrupt("output longer than the expected length"))
    }
}

/// Appends to a `Vec`; the vector holds `SLACK` zeroed bytes (or more)
/// past the output until [`Growable::finish`] trims it.
pub(crate) struct Growable<'o> {
    out: &'o mut Vec<u8>,
    /// Length of the vector's prior contents; growth doubles only the
    /// region after it.
    base: usize,
}

impl<'o> Growable<'o> {
    /// Prepares `out` to receive about `hint` more bytes after its
    /// current contents (the write offset to start from is
    /// `out.len()` before the call).
    pub(crate) fn new(out: &'o mut Vec<u8>, hint: usize) -> Self {
        let base = out.len();
        out.resize(base + hint + SLACK, 0);
        Growable { out, base }
    }

    /// Trims the vector to the `end` bytes actually written.
    pub(crate) fn finish(self, end: usize) {
        self.out.truncate(end);
    }
}

impl Sink for Growable<'_> {
    fn buf(&mut self) -> &mut [u8] {
        self.out
    }

    fn grow(&mut self, pos: usize, need: usize) -> Result<&mut [u8], Error> {
        let doubled = self.out.len() + (self.out.len() - self.base);
        self.out.resize((pos + need + SLACK).max(doubled), 0);
        Ok(self.out)
    }
}

/// Decompresses a raw DEFLATE stream into bytes.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    let hint = data.len().saturating_mul(3);
    let mut sink = Growable::new(&mut out, hint);
    let (end, _) = run(data, &mut sink, 0)?;
    sink.finish(end);
    Ok(out)
}

/// Decodes one DEFLATE stream from `data` into `sink`, writing from
/// output offset `start`. Returns the output end offset and how many
/// input bytes the stream occupied (it ends at the byte boundary after
/// the final block).
pub(crate) fn run<S: Sink>(
    data: &[u8],
    sink: &mut S,
    start: usize,
) -> Result<(usize, usize), Error> {
    let mut bits = Bits::new(data);
    let mut tables = Tables::empty();
    let mut pos = start;
    match blocks(&mut bits, &mut tables, sink, start, &mut pos) {
        Ok(consumed) => Ok((pos, consumed)),
        // Any failure after reading padding is the input's truncation,
        // whatever the padding happened to decode to.
        Err(e) => Err(bits.check_eof().err().unwrap_or(e)),
    }
}

/// The block loop: header, then stored copy or Huffman decode, until the
/// final block. The stream's output starts at `start`; matches may not
/// reach before it.
fn blocks<S: Sink>(
    bits: &mut Bits<'_>,
    tables: &mut Tables,
    sink: &mut S,
    start: usize,
    pos: &mut usize,
) -> Result<usize, Error> {
    loop {
        let header = bits.take(3)?;
        match header >> 1 {
            0b00 => stored(bits, sink, pos)?,
            0b01 => huffman(bits, fixed_tables()?, sink, start, pos)?,
            0b10 => {
                read_dynamic_tables(bits, tables)?;
                huffman(bits, tables, sink, start, pos)?;
            }
            _ => return Err(Error::Corrupt("reserved block type 11")),
        }
        bits.check_eof()?;
        if header & 1 == 1 {
            return bits.align();
        }
    }
}

fn stored<S: Sink>(bits: &mut Bits<'_>, sink: &mut S, pos: &mut usize) -> Result<(), Error> {
    bits.consume(bits.count % 8);
    let len = bits.take(16)?;
    let nlen = bits.take(16)?;
    if len != !nlen & 0xFFFF {
        return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let len = len as usize;
    let at = bits.align()?;
    let src = bits.data.get(at..at + len).ok_or(Error::UnexpectedEof)?;
    let mut out = sink.buf();
    if len > out.len() - *pos {
        out = sink.grow(*pos, len)?;
    }
    out[*pos..*pos + len].copy_from_slice(src);
    *pos += len;
    bits.reset(at + len);
    Ok(())
}

fn read_dynamic_tables(bits: &mut Bits<'_>, tables: &mut Tables) -> Result<(), Error> {
    let hlit = bits.take(5)? as usize + 257;
    let hdist = bits.take(5)? as usize + 1;
    let hclen = bits.take(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(Error::Corrupt("HLIT/HDIST out of range"));
    }

    let mut clc_lens = [0u8; 19];
    for &i in CLC_ORDER.iter().take(hclen) {
        clc_lens[i] = bits.take(3)? as u8;
    }
    let mut clc = [0u32; 128];
    build_table(&clc_lens, Alphabet::CodeLen, 7, &mut clc)?;

    // The concatenated literal/length and distance code lengths.
    let total = hlit + hdist;
    let mut lens = [0u8; 286 + 30];
    let mut i = 0;
    while i < total {
        if bits.count < 14 {
            bits.refill()?;
        }
        let e = clc[bits.peek(7) as usize];
        if entry::kind(e) == entry::INVALID {
            return Err(entry::invalid_reason(e));
        }
        bits.consume(entry::bits(e));
        let (fill, n) = match entry::value(e) {
            sym @ 0..=15 => (sym as u8, 1),
            16 => {
                let &prev = i
                    .checked_sub(1)
                    .and_then(|p| lens.get(p))
                    .ok_or(Error::Corrupt("repeat with no prior length"))?;
                (prev, 3 + bits.take(2)? as usize)
            }
            17 => (0, 3 + bits.take(3)? as usize),
            _ => (0, 11 + bits.take(7)? as usize),
        };
        let run = lens
            .get_mut(i..i + n)
            .filter(|_| i + n <= total)
            .ok_or(Error::Corrupt("code length overflow"))?;
        run.fill(fill);
        i += n;
    }
    if lens[256] == 0 {
        return Err(Error::Corrupt("missing end-of-block code"));
    }
    build_table(
        &lens[..hlit],
        Alphabet::LitLen,
        LITLEN_BITS,
        &mut tables.litlen,
    )?;
    build_table(
        &lens[hlit..total],
        Alphabet::Dist,
        DIST_BITS,
        &mut tables.dist,
    )?;
    Ok(())
}

/// Looks up the entry for the buffered bits in a two-level table.
#[inline(always)]
fn lookup(table: &[u32], primary_bits: u32, buf: u64) -> u32 {
    let e = table[(buf & ((1 << primary_bits) - 1)) as usize];
    if entry::kind(e) != entry::SUBTABLE {
        return e;
    }
    let sub = (buf >> primary_bits) & ((1 << entry::extra(e)) - 1);
    table
        .get(entry::value(e) as usize + sub as usize)
        .copied()
        .unwrap_or(entry::pack(entry::UNASSIGNED, 0, entry::INVALID, 0))
}

/// Decodes one Huffman-coded block, up to and including its end code.
///
/// Each iteration refills once: a literal/length code (≤ 15 bits), its
/// extra bits (≤ 5), a distance code (≤ 15) and its extra bits (≤ 13)
/// fit in the 56 bits a refill guarantees.
fn huffman<S: Sink>(
    bits: &mut Bits<'_>,
    tables: &Tables,
    sink: &mut S,
    start: usize,
    pos: &mut usize,
) -> Result<(), Error> {
    let mut out = sink.buf();
    let mut p = *pos;
    let result = loop {
        if let Err(e) = bits.refill() {
            break Err(e);
        }
        let e = lookup(&tables.litlen, LITLEN_BITS, bits.buf);
        bits.consume(entry::bits(e));
        match entry::kind(e) {
            entry::LITERAL => {
                if p >= out.len() {
                    match sink.grow(p, 1) {
                        Ok(grown) => out = grown,
                        Err(e) => break Err(e),
                    }
                }
                out[p] = entry::value(e) as u8;
                p += 1;
                // Up to two more literals on the same refill: three
                // codes of at most 15 bits fit in the 56 bits it gave.
                for _ in 0..2 {
                    let e = tables.litlen[bits.peek(LITLEN_BITS) as usize];
                    if entry::kind(e) != entry::LITERAL || p >= out.len() {
                        break;
                    }
                    bits.consume(entry::bits(e));
                    out[p] = entry::value(e) as u8;
                    p += 1;
                }
            }
            entry::LENGTH => {
                let len = entry::value(e) as usize + bits.peek(entry::extra(e)) as usize;
                bits.consume(entry::extra(e));
                let d = lookup(&tables.dist, DIST_BITS, bits.buf);
                if entry::kind(d) != entry::DISTANCE {
                    break Err(entry::invalid_reason(d));
                }
                bits.consume(entry::bits(d));
                let dist = entry::value(d) as usize + bits.peek(entry::extra(d)) as usize;
                bits.consume(entry::extra(d));
                if dist > p - start {
                    break Err(Error::Corrupt("distance beyond output start"));
                }
                if len > out.len() - p {
                    match sink.grow(p, len) {
                        Ok(grown) => out = grown,
                        Err(e) => break Err(e),
                    }
                }
                copy_match(out, p, dist, len);
                p += len;
            }
            entry::END => break Ok(()),
            _ => break Err(entry::invalid_reason(e)),
        }
    };
    *pos = p;
    result
}

/// Copies the `len`-byte match at distance `dist` to `out[pos..]`; the
/// caller has checked `dist <= pos` and `pos + len <= out.len()`.
#[inline(always)]
fn copy_match(out: &mut [u8], pos: usize, dist: usize, len: usize) {
    let src = pos - dist;
    if dist >= 8 && out.len() - pos >= len + SLACK {
        // Whole 8-byte words, overshooting into slack. With `dist >= 8`
        // no word reads bytes it writes, and each word reads only bytes
        // written before it, so overlap still repeats the pattern.
        copy8(out, src, pos);
        copy8(out, src + 8, pos + 8);
        let mut k = 16;
        while k < len {
            copy8(out, src + k, pos + k);
            k += 8;
        }
    } else if dist == 1 {
        let b = out[src];
        out[pos..pos + len].fill(b);
    } else {
        for k in 0..len {
            out[pos + k] = out[src + k];
        }
    }
}

#[inline(always)]
fn copy8(out: &mut [u8], src: usize, dst: usize) {
    let mut w = [0u8; 8];
    w.copy_from_slice(&out[src..src + 8]);
    out[dst..dst + 8].copy_from_slice(&w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;
    use crate::{deflate_compress, Level};

    /// Inflates into an exact-size buffer of `len` bytes.
    fn inflate_exact(data: &[u8], len: usize) -> Result<Vec<u8>, Error> {
        let mut out = vec![0u8; len];
        let (end, _) = run(data, &mut Exact(&mut out), 0)?;
        if end != len {
            return Err(Error::Corrupt("output shorter than the expected length"));
        }
        Ok(out)
    }

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111u8];
        assert!(matches!(inflate(&data), Err(Error::Corrupt(_))));
    }

    #[test]
    fn rejects_len_nlen_mismatch() {
        // BFINAL=1, BTYPE=00, then bogus LEN/NLEN.
        let data = [0b0000_0001u8, 0x05, 0x00, 0x05, 0x00];
        assert!(matches!(inflate(&data), Err(Error::Corrupt(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = deflate_compress(b"hello world hello world hello", Level::Default);
        assert!(inflate(&full).is_ok());
        for cut in 0..full.len() {
            let r = inflate(&full[..cut]);
            assert_eq!(r, Err(Error::UnexpectedEof), "truncation at {cut}");
        }
    }

    #[test]
    fn rejects_distance_before_start() {
        // BFINAL=1 BTYPE=01, then code 257 (7-bit 0000001 -> len 3),
        // distance code 0 (5 bits 00000) => dist 1 with empty output.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        w.write_code(0b0000001, 7); // symbol 257
        w.write_code(0b00000, 5); // distance 1
        w.write_code(0b0000000, 7); // EOB
        let bytes = w.finish();
        assert!(matches!(
            inflate(&bytes),
            Err(Error::Corrupt("distance beyond output start"))
        ));
    }

    #[test]
    fn decodes_multiblock_streams() {
        let mut data = Vec::new();
        for i in 0..400_000u64 {
            data.push(
                (i.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407)
                    >> 33) as u8,
            );
        }
        let c = deflate_compress(&data, Level::Fast);
        assert_eq!(inflate(&c).unwrap(), data);
        assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn repeat_with_no_prior_length_is_corrupt() {
        // Dynamic header whose first CLC symbol is 16 (repeat previous).
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b10, 2); // dynamic
        w.write_bits(0, 5); // HLIT
        w.write_bits(0, 5); // HDIST
        w.write_bits(0, 4); // HCLEN = 4 -> order 16,17,18,0
        w.write_bits(1, 3); // len(16) = 1
        w.write_bits(0, 3); // len(17) = 0
        w.write_bits(0, 3); // len(18) = 0
        w.write_bits(1, 3); // len(0) = 1
                            // Canonical: sym 0 gets code 0, sym 16 gets code 1.
        w.write_code(1, 1); // symbol 16 first: invalid repeat
        w.write_bits(0, 16);
        let bytes = w.finish();
        assert_eq!(
            inflate(&bytes),
            Err(Error::Corrupt("repeat with no prior length"))
        );
    }

    /// Writes a fixed-Huffman literal/length symbol.
    fn fixed_sym(w: &mut BitWriter, sym: u16) {
        match sym {
            0..=143 => w.write_code(0x30 + sym, 8),
            144..=255 => w.write_code(0x190 + sym - 144, 9),
            256..=279 => w.write_code(sym - 256, 7),
            _ => w.write_code(0xC0 + sym - 280, 8),
        }
    }

    /// A fixed block: `lits` literal bytes, then matches of
    /// (length symbol, length extra, extra width, distance code, distance
    /// extra, extra width), then end of block.
    fn fixed_block(lits: &[u8], matches: &[(u16, u32, u32, u16, u32, u32)]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        for &b in lits {
            fixed_sym(&mut w, b as u16);
        }
        for &(lsym, lx, lxw, dcode, dx, dxw) in matches {
            fixed_sym(&mut w, lsym);
            w.write_bits(lx, lxw);
            w.write_code(dcode, 5);
            w.write_bits(dx, dxw);
        }
        fixed_sym(&mut w, 256);
        w.finish()
    }

    #[test]
    fn short_distance_overlaps_repeat_the_pattern() {
        // "abcdefg" then, for every distance 1..=7, a 20-byte match.
        for dist in 1..=7u16 {
            let lits = b"abcdefg";
            // Length 20 = symbol 269 (base 19, 2 extra bits) + 1.
            // Distance codes 0..=3 are distances 1..=4; 4 covers 5..=6
            // (1 extra bit), 5 covers 7..=8.
            let (dcode, dx, dxw) = match dist {
                1..=4 => (dist - 1, 0, 0),
                5 | 6 => (4, (dist - 5) as u32, 1),
                _ => (5, 0, 1),
            };
            let stream = fixed_block(lits, &[(269, 1, 2, dcode, dx, dxw)]);
            let mut want = lits.to_vec();
            for _ in 0..20 {
                want.push(want[want.len() - dist as usize]);
            }
            assert_eq!(inflate(&stream).unwrap(), want, "distance {dist}");
            assert_eq!(inflate_exact(&stream, want.len()).unwrap(), want);
        }
    }

    #[test]
    fn longest_match_at_the_farthest_distance() {
        // A stored block of 32768 bytes, then a fixed block copying
        // length 258 from distance 32768.
        let head: Vec<u8> = (0..32768u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        w.write_bytes(&(32768u16).to_le_bytes());
        w.write_bytes(&(!32768u16).to_le_bytes());
        w.write_bytes(&head);
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        fixed_sym(&mut w, 285); // length 258
        w.write_code(29, 5); // distance base 24577, 13 extra bits
        w.write_bits(32768 - 24577, 13);
        fixed_sym(&mut w, 256);
        let stream = w.finish();
        let mut want = head.clone();
        want.extend_from_slice(&head[..258]);
        assert_eq!(inflate(&stream).unwrap(), want);
        assert_eq!(inflate_exact(&stream, want.len()).unwrap(), want);
    }

    /// A dynamic block with literal 'a' (1 bit), end of block and
    /// length 258 (2 bits each), and a one-symbol distance code (code 0,
    /// 1 bit — an incomplete code, which DEFLATE allows): 'a', then a
    /// 258-byte match whose distance code is the single bit `dist_bit`.
    fn one_symbol_distance_stream(dist_bit: u32) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(286 - 257, 5); // HLIT = 286
        w.write_bits(0, 5); // HDIST = 1
        w.write_bits(18 - 4, 4); // HCLEN = 18, through symbol 1
                                 // Code-length code: symbols 0, 1, 2 and 18 get 2-bit codes,
                                 // canonically 00, 01, 10, 11.
        let mut clc = [0u32; 19];
        for sym in [0, 1, 2, 18] {
            clc[sym] = 2;
        }
        for &i in CLC_ORDER.iter().take(18) {
            w.write_bits(clc[i], 3);
        }
        let zeros = |w: &mut BitWriter, n: u32| {
            w.write_code(0b11, 2);
            w.write_bits(n - 11, 7);
        };
        zeros(&mut w, 97);
        w.write_code(0b01, 2); // 'a' (97): length 1
        zeros(&mut w, 138);
        zeros(&mut w, 20);
        w.write_code(0b10, 2); // end of block (256): length 2
        zeros(&mut w, 28);
        w.write_code(0b10, 2); // 285 (length 258): length 2
        w.write_code(0b01, 2); // distance code 0: length 1
                               // Literal/length codes: 'a' -> 0, 256 -> 10, 285 -> 11.
        w.write_code(0, 1);
        w.write_code(0b11, 2);
        w.write_bits(dist_bit, 1);
        w.write_code(0b10, 2);
        w.finish()
    }

    #[test]
    fn one_symbol_distance_code() {
        let want = vec![b'a'; 259];
        let stream = one_symbol_distance_stream(0);
        assert_eq!(inflate(&stream).unwrap(), want);
        assert_eq!(inflate_exact(&stream, 259).unwrap(), want);
        // The distance code's other pattern is unassigned.
        assert_eq!(
            inflate(&one_symbol_distance_stream(1)),
            Err(Error::Corrupt("unassigned huffman pattern"))
        );
    }

    #[test]
    fn exact_mode_rejects_a_buffer_one_byte_short_or_long() {
        let data = b"exact output sizing ".repeat(50);
        let c = deflate_compress(&data, Level::Default);
        assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
        assert_eq!(
            inflate_exact(&c, data.len() - 1),
            Err(Error::Corrupt("output longer than the expected length"))
        );
        assert_eq!(
            inflate_exact(&c, data.len() + 1),
            Err(Error::Corrupt("output shorter than the expected length"))
        );
    }

    #[test]
    fn fixed_block_forbidden_symbols_are_typed() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        fixed_sym(&mut w, 286);
        w.write_bits(0, 16);
        assert_eq!(
            inflate(&w.finish()),
            Err(Error::Corrupt("literal/length symbol out of range"))
        );
        let stream = fixed_block(b"x", &[(257, 0, 0, 30, 0, 0)]);
        assert_eq!(
            inflate(&stream),
            Err(Error::Corrupt("distance code out of range"))
        );
    }
}
