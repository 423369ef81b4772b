//! Canonical, length-limited Huffman coding.
//!
//! * [`code_lengths`] computes optimal length-limited code lengths with
//!   the package-merge algorithm (exact, no post-hoc fixups);
//! * [`canonical_codes`] assigns the RFC 1951 canonical code values;
//! * `build_table` builds the inflater's two-level decode tables: a
//!   primary table indexed by the next `primary_bits` stream bits plus
//!   subtables for longer codes, every entry pre-decoded (see
//!   `entry`).

use crate::deflate::{DIST_CODES, LENGTH_CODES};
use crate::Error;

/// Computes optimal code lengths bounded by `max_len` for the given
/// symbol frequencies (zero frequency ⇒ zero length ⇒ symbol unused).
///
/// Uses package-merge, which is exact for length-limited prefix codes.
///
/// # Panics
/// Panics if the number of used symbols exceeds `2^max_len` (no valid
/// code exists) or `max_len == 0` with any used symbol.
pub fn code_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let mut active: Vec<(u64, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| (f as u64, i))
        .collect();
    let n = active.len();
    let mut lens = vec![0u8; freqs.len()];
    if n == 0 {
        return lens;
    }
    if n == 1 {
        // DEFLATE requires at least a 1-bit code for a lone symbol.
        lens[active[0].1] = 1;
        return lens;
    }
    assert!(
        max_len >= 1 && n <= (1usize << max_len.min(31)),
        "code over-full"
    );

    active.sort_unstable();

    // A package is (weight, constituent leaf symbols).
    #[derive(Clone)]
    struct Pkg {
        w: u64,
        syms: Vec<usize>,
    }
    let leaves: Vec<Pkg> = active
        .iter()
        .map(|&(w, s)| Pkg { w, syms: vec![s] })
        .collect();

    let mut row = leaves.clone();
    for _ in 1..max_len {
        // Pair adjacent packages of the previous row.
        let mut paired: Vec<Pkg> = Vec::with_capacity(row.len() / 2);
        for pair in row.chunks_exact(2) {
            let mut syms = pair[0].syms.clone();
            syms.extend_from_slice(&pair[1].syms);
            paired.push(Pkg {
                w: pair[0].w + pair[1].w,
                syms,
            });
        }
        // Merge the paired packages with the original leaves (both sorted).
        let mut merged = Vec::with_capacity(leaves.len() + paired.len());
        let (mut i, mut j) = (0, 0);
        while i < leaves.len() || j < paired.len() {
            let take_leaf = j >= paired.len() || (i < leaves.len() && leaves[i].w <= paired[j].w);
            if take_leaf {
                merged.push(leaves[i].clone());
                i += 1;
            } else {
                merged.push(paired[j].clone());
                j += 1;
            }
        }
        row = merged;
    }

    // The code length of each leaf = number of the 2n-2 cheapest packages
    // it appears in.
    for pkg in row.iter().take(2 * n - 2) {
        for &s in &pkg.syms {
            lens[s] += 1;
        }
    }
    lens
}

/// Assigns canonical code values for the given lengths (RFC 1951 §3.2.2).
///
/// Returns a vector parallel to `lengths`; entries with length 0 get
/// code 0 (unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let max = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u16; max + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u16; max + 2];
    let mut code = 0u16;
    for bits in 1..=max {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c
            }
        })
        .collect()
}

/// Decode-table entries, one `u32` each:
///
/// ```text
///  31            16 15       8 7    4 3     0
/// ┌────────────────┬──────────┬──────┬───────┐
/// │     value      │  extra   │ kind │ bits  │
/// └────────────────┴──────────┴──────┴───────┘
/// ```
///
/// * `bits` — stream bits the codeword occupies (its full length, also
///   in subtable entries); 0 for invalid entries.
/// * `kind` — [`LITERAL`](entry::LITERAL), [`LENGTH`](entry::LENGTH),
///   [`DISTANCE`](entry::DISTANCE), [`END`](entry::END),
///   [`SUBTABLE`](entry::SUBTABLE) or [`INVALID`](entry::INVALID).
/// * `extra` — extra bits following the codeword (length/distance), or
///   the index width of the subtable a `SUBTABLE` entry points to.
/// * `value` — literal byte, length base (3..=258), distance base
///   (1..=24577), code-length symbol, subtable offset, or for `INVALID`
///   the reason code ([`entry::invalid_reason`]).
pub(crate) mod entry {
    /// A literal byte (or, in the code-length table, a symbol 0..=18).
    pub const LITERAL: u32 = 0;
    /// A match length: base in `value`, extra-bit count in `extra`.
    pub const LENGTH: u32 = 1;
    /// A match distance: base in `value`, extra-bit count in `extra`.
    pub const DISTANCE: u32 = 2;
    /// End of block (literal/length symbol 256).
    pub const END: u32 = 3;
    /// Pointer to a subtable for codes longer than the primary width.
    pub const SUBTABLE: u32 = 4;
    /// Unassigned pattern or a symbol DEFLATE forbids.
    pub const INVALID: u32 = 5;

    /// Reason codes carried in `INVALID` entries.
    pub const UNASSIGNED: u32 = 0;
    /// Literal/length symbols 286 and 287.
    pub const BAD_LITLEN: u32 = 1;
    /// Distance codes 30 and 31.
    pub const BAD_DIST: u32 = 2;

    /// Packs one entry.
    #[inline]
    pub const fn pack(value: u32, extra: u32, kind: u32, bits: u32) -> u32 {
        value << 16 | extra << 8 | kind << 4 | bits
    }

    /// Codeword length in stream bits.
    #[inline(always)]
    pub const fn bits(e: u32) -> u32 {
        e & 0xF
    }

    /// Entry kind.
    #[inline(always)]
    pub const fn kind(e: u32) -> u32 {
        (e >> 4) & 0xF
    }

    /// Extra-bit count (or subtable index width).
    #[inline(always)]
    pub const fn extra(e: u32) -> u32 {
        (e >> 8) & 0xFF
    }

    /// Literal, base, symbol, offset or reason.
    #[inline(always)]
    pub const fn value(e: u32) -> u32 {
        e >> 16
    }

    /// The error an `INVALID` entry stands for.
    pub fn invalid_reason(e: u32) -> crate::Error {
        crate::Error::Corrupt(match value(e) {
            BAD_LITLEN => "literal/length symbol out of range",
            BAD_DIST => "distance code out of range",
            _ => "unassigned huffman pattern",
        })
    }
}

/// Which alphabet a table decodes, fixing how symbols map to entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alphabet {
    /// Literal/length: 0..=255 literals, 256 end of block, 257..=285
    /// lengths; 286/287 (fixed code only) are invalid.
    LitLen,
    /// Distance: 0..=29; 30/31 (fixed code only) are invalid.
    Dist,
    /// Code-length code: the symbol itself (0..=18), as a literal.
    CodeLen,
}

impl Alphabet {
    fn entry(self, sym: usize, len: u32) -> u32 {
        use entry::*;
        match self {
            Alphabet::LitLen => match sym {
                0..=255 => pack(sym as u32, 0, LITERAL, len),
                256 => pack(0, 0, END, len),
                _ => match LENGTH_CODES.get(sym - 257) {
                    Some(&(base, extra)) => pack(base as u32, extra as u32, LENGTH, len),
                    None => pack(BAD_LITLEN, 0, INVALID, 0),
                },
            },
            Alphabet::Dist => match DIST_CODES.get(sym) {
                Some(&(base, extra)) => pack(base as u32, extra as u32, DISTANCE, len),
                None => pack(BAD_DIST, 0, INVALID, 0),
            },
            Alphabet::CodeLen => pack(sym as u32, 0, LITERAL, len),
        }
    }
}

/// Longest codeword DEFLATE allows.
const MAX_BITS: usize = 15;

/// Most symbols any alphabet has (the fixed literal/length code).
const MAX_SYMBOLS: usize = 288;

/// Builds a two-level decode table for the code `lengths` into `table`
/// and returns how many entries it used.
///
/// Checks, in order: every length is at most 15 and the lengths satisfy
/// Kraft's inequality (not over-subscribed) — else
/// [`Error::BadHuffmanTable`]. Incomplete codes are accepted (DEFLATE's
/// one-symbol distance code needs that); their unassigned patterns
/// become `INVALID` entries that fail when decoded.
///
/// The first `1 << primary_bits` entries are indexed by the next
/// `primary_bits` stream bits. Codes longer than that share a primary
/// entry per `primary_bits`-bit prefix, which points to a subtable
/// indexed by the bits that follow; canonical codes make each prefix's
/// codes contiguous, so a subtable is sized by the longest code in it.
/// A table too small for the subtables is reported as
/// `BadHuffmanTable` (the callers' sizes cover every code Kraft
/// admits).
pub(crate) fn build_table(
    lengths: &[u8],
    alphabet: Alphabet,
    primary_bits: u32,
    table: &mut [u32],
) -> Result<usize, Error> {
    let primary = 1usize << primary_bits;
    if lengths.len() > MAX_SYMBOLS || table.len() < primary {
        return Err(Error::BadHuffmanTable);
    }
    let mut count = [0u16; MAX_BITS + 1];
    for &l in lengths {
        if l as usize > MAX_BITS {
            return Err(Error::BadHuffmanTable);
        }
        count[l as usize] += 1;
    }
    let mut kraft = 0u32;
    for (l, &n) in count.iter().enumerate().skip(1) {
        kraft += (n as u32) << (MAX_BITS - l);
    }
    if kraft > 1 << MAX_BITS {
        return Err(Error::BadHuffmanTable);
    }

    // Canonical order: by length, then symbol. `next[l]` is the next
    // code of length `l`; `slot[l]` the next position in `sorted`.
    let mut next = [0u32; MAX_BITS + 2];
    let mut slot = [0usize; MAX_BITS + 2];
    let mut code = 0u32;
    for l in 1..=MAX_BITS {
        let shorter = if l == 1 { 0 } else { count[l - 1] as u32 };
        code = (code + shorter) << 1;
        next[l] = code;
        slot[l + 1] = slot[l] + count[l] as usize;
    }
    let mut sorted = [(0u16, 0u8, 0u16); MAX_SYMBOLS];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            let l = l as usize;
            if let Some(s) = sorted.get_mut(slot[l]) {
                *s = (sym as u16, l as u8, next[l] as u16);
            }
            slot[l] += 1;
            next[l] += 1;
        }
    }
    let used = slot[MAX_BITS + 1];
    let sorted = &sorted[..used];

    let unassigned = entry::pack(entry::UNASSIGNED, 0, entry::INVALID, 0);
    let reversed = |code: u16, len: u32| (code as u32).reverse_bits() >> (32 - len);

    // Short codes fill every primary slot their bits are a prefix of.
    let mut i = 0;
    {
        let head = &mut table[..primary];
        head.fill(unassigned);
        while let Some(&(sym, len, code)) = sorted.get(i) {
            let len = len as u32;
            if len > primary_bits {
                break;
            }
            let e = alphabet.entry(sym as usize, len);
            let mut idx = reversed(code, len) as usize;
            while let Some(t) = head.get_mut(idx) {
                *t = e;
                idx += 1 << len;
            }
            i += 1;
        }
    }

    // Long codes, one contiguous run per primary prefix.
    let mut end = primary;
    while let Some(&(_, len0, code0)) = sorted.get(i) {
        let prefix = code0 >> (len0 as u32 - primary_bits);
        let run_start = i;
        let mut longest = len0 as u32;
        while let Some(&(_, len, code)) = sorted.get(i) {
            if code >> (len as u32 - primary_bits) != prefix {
                break;
            }
            longest = len as u32;
            i += 1;
        }
        let sub_bits = longest - primary_bits;
        let sub = end;
        end += 1 << sub_bits;
        let sub_table = table.get_mut(sub..end).ok_or(Error::BadHuffmanTable)?;
        sub_table.fill(unassigned);
        for &(sym, len, code) in &sorted[run_start..i] {
            let len = len as u32;
            let tail = len - primary_bits;
            let e = alphabet.entry(sym as usize, len);
            let mut idx = reversed(code & ((1 << tail) - 1), tail) as usize;
            while let Some(t) = sub_table.get_mut(idx) {
                *t = e;
                idx += 1 << tail;
            }
        }
        let head = &mut table[reversed(prefix, primary_bits) as usize];
        *head = entry::pack(sub as u32, sub_bits, entry::SUBTABLE, primary_bits);
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;

    #[test]
    fn lengths_satisfy_kraft_with_equality_for_complete_codes() {
        let freqs = [10u32, 1, 1, 5, 20, 3, 0, 7];
        let lens = code_lengths(&freqs, 15);
        let sum: u32 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u32 << (15 - l))
            .sum();
        assert_eq!(sum, 1 << 15, "{lens:?}");
        assert_eq!(lens[6], 0);
    }

    #[test]
    fn restricting_max_len_flattens_code() {
        // Wildly skewed frequencies want a deep code; cap at 4 bits.
        let freqs = [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        let lens = code_lengths(&freqs, 4);
        assert!(lens.iter().all(|&l| l <= 4), "{lens:?}");
        let sum: u32 = lens.iter().map(|&l| 1u32 << (15 - l)).sum();
        assert_eq!(sum, 1 << 15);
    }

    #[test]
    fn length_limited_is_still_cheap_for_balanced_input() {
        let freqs = [5u32; 8];
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l == 3), "{lens:?}");
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u32; 30];
        freqs[17] = 42;
        let lens = code_lengths(&freqs, 15);
        assert_eq!(lens[17], 1);
        assert_eq!(lens.iter().map(|&l| l as u32).sum::<u32>(), 1);
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 example: lengths (3,3,3,3,3,2,4,4) for symbols A..H.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    /// Decodes one symbol's entry the way the inflater does.
    fn lookup(table: &[u32], primary_bits: u32, stream: u64) -> u32 {
        let e = table[(stream & ((1 << primary_bits) - 1)) as usize];
        if entry::kind(e) != entry::SUBTABLE {
            return e;
        }
        let sub = (stream >> primary_bits) & ((1 << entry::extra(e)) - 1);
        table[(entry::value(e) as u64 + sub) as usize]
    }

    #[test]
    fn two_level_table_decodes_every_symbol() {
        // Skewed frequencies give codes up to 12 bits: with a 6-bit
        // primary table the long ones go through subtables.
        let freqs: Vec<u32> = (0..40u32).map(|i| 1 << (i / 3).min(20)).collect();
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().any(|&l| l > 6), "{lens:?}");
        let codes = canonical_codes(&lens);
        let mut table = vec![0u32; 1 << 12];
        build_table(&lens, Alphabet::CodeLen, 6, &mut table).unwrap();
        for (sym, (&len, &code)) in lens.iter().zip(&codes).enumerate() {
            let mut w = BitWriter::new();
            w.write_code(code, len as u32);
            w.write_bits(0x5A5A, 16); // trailing bits must not matter
            let bytes = w.finish();
            let mut stream = 0u64;
            for (k, &b) in bytes.iter().enumerate() {
                stream |= (b as u64) << (8 * k);
            }
            let e = lookup(&table, 6, stream);
            assert_eq!(entry::kind(e), entry::LITERAL, "symbol {sym}");
            assert_eq!(entry::value(e) as usize, sym);
            assert_eq!(entry::bits(e), len as u32);
        }
    }

    #[test]
    fn oversubscribed_rejected() {
        let mut table = [0u32; 1024];
        assert_eq!(
            build_table(&[1, 1, 1], Alphabet::CodeLen, 7, &mut table),
            Err(Error::BadHuffmanTable)
        );
        assert_eq!(
            build_table(&[16], Alphabet::CodeLen, 7, &mut table),
            Err(Error::BadHuffmanTable),
            "length above 15 must be rejected"
        );
    }

    #[test]
    fn incomplete_code_unassigned_pattern_is_invalid() {
        // Single 2-bit code 00: patterns 01, 10, 11 are unassigned.
        let mut table = [0u32; 4];
        build_table(&[2], Alphabet::CodeLen, 2, &mut table).unwrap();
        assert_eq!(entry::kind(table[0]), entry::LITERAL);
        for &e in &table[1..] {
            assert_eq!(entry::kind(e), entry::INVALID);
            assert_eq!(
                entry::invalid_reason(e),
                Error::Corrupt("unassigned huffman pattern")
            );
        }
    }

    #[test]
    fn forbidden_symbols_become_invalid_entries() {
        // The fixed literal/length code: 286 and 287 are 0xC6, 0xC7.
        let mut lens = [8u8; 288];
        lens[144..256].fill(9);
        lens[256..280].fill(7);
        let mut table = [0u32; 1024];
        build_table(&lens, Alphabet::LitLen, 10, &mut table).unwrap();
        for code in [0xC6u32, 0xC7] {
            let e = table[(code.reverse_bits() >> 24) as usize];
            assert_eq!(
                entry::invalid_reason(e),
                Error::Corrupt("literal/length symbol out of range")
            );
        }
        let mut dist = [0u32; 256];
        build_table(&[5u8; 32], Alphabet::Dist, 8, &mut dist).unwrap();
        let e = dist[(31u32.reverse_bits() >> 27) as usize];
        assert_eq!(
            entry::invalid_reason(e),
            Error::Corrupt("distance code out of range")
        );
        let e = dist[0];
        assert_eq!((entry::kind(e), entry::value(e)), (entry::DISTANCE, 1));
    }

    #[test]
    fn undersized_table_is_an_error_not_a_panic() {
        let mut table = [0u32; 8];
        let lens = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 9];
        assert_eq!(
            build_table(&lens, Alphabet::CodeLen, 3, &mut table),
            Err(Error::BadHuffmanTable)
        );
    }
}
