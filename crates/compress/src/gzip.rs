//! gzip (RFC 1952) member framing around raw DEFLATE.

use crate::crc32::{crc32, Crc32};
use crate::inflate::{self, Growable, Sink, MAX_EXPANSION};
use crate::{deflate, Error, Level};

const MAGIC: [u8; 2] = [0x1F, 0x8B];
const CM_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// Compresses `data` into a single gzip member (no name, zero mtime,
/// "unknown" OS — deterministic output for a given input and level).
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 32);
    out.extend_from_slice(&MAGIC);
    out.push(CM_DEFLATE);
    out.push(0); // FLG: no optional fields
    out.extend_from_slice(&0u32.to_le_bytes()); // MTIME
    let xfl = match level {
        Level::Best => 2,
        Level::Fastest => 4,
        _ => 0,
    };
    out.push(xfl);
    out.push(255); // OS: unknown
    out.extend_from_slice(&deflate::compress(data, level));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a gzip file that may hold several concatenated members
/// (the format `cat a.gz b.gz > ab.gz` produces, which real gunzip
/// accepts), verifying every trailer.
pub fn decompress_multi(data: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    let mut rest = data;
    loop {
        // No size hint: a trailer only describes its own member, and a
        // member's end is known only after decoding it.
        let start = out.len();
        let mut sink = Growable::new(&mut out, 0);
        let (end, consumed) = decompress_member(rest, &mut sink, start)?;
        sink.finish(end);
        rest = rest.get(consumed..).unwrap_or_default();
        if rest.is_empty() {
            return Ok(out);
        }
    }
}

/// Decompresses one member into `sink` from output offset `start`,
/// checking its trailer. Returns the output end offset and the bytes the
/// member occupied (header + deflate stream + trailer).
fn decompress_member<S: Sink>(
    data: &[u8],
    sink: &mut S,
    start: usize,
) -> Result<(usize, usize), Error> {
    let body_start = parse_header(data)?;
    let body = data.get(body_start..).ok_or(Error::UnexpectedEof)?;
    let (end, body_consumed) = inflate::run(body, sink, start)?;
    let trailer_start = body_start + body_consumed;
    let trailer = data
        .get(trailer_start..trailer_start + 8)
        .ok_or(Error::UnexpectedEof)?;
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let out = sink.buf().get(start..end).unwrap_or_default();
    if crc32(out) != want_crc || (out.len() as u32) != want_len {
        return Err(Error::ChecksumMismatch);
    }
    Ok((end, trailer_start + 8))
}

/// Parses a member header, returning the offset of the deflate body.
fn parse_header(data: &[u8]) -> Result<usize, Error> {
    let mut pos = 0usize;
    let need = |pos: usize, n: usize| -> Result<(), Error> {
        if pos + n > data.len() {
            Err(Error::UnexpectedEof)
        } else {
            Ok(())
        }
    };

    need(pos, 10)?;
    if data[0..2] != MAGIC {
        return Err(Error::BadHeader("magic bytes"));
    }
    if data[2] != CM_DEFLATE {
        return Err(Error::BadHeader("compression method"));
    }
    let flg = data[3];
    if flg & !(FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT) != 0 {
        return Err(Error::BadHeader("reserved flag bits"));
    }
    pos = 10;

    if flg & FEXTRA != 0 {
        need(pos, 2)?;
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        need(pos, xlen)?;
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            // Zero-terminated string.
            let end = data[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(Error::UnexpectedEof)?;
            pos += end + 1;
        }
    }
    if flg & FHCRC != 0 {
        need(pos, 2)?;
        let stored = u16::from_le_bytes([data[pos], data[pos + 1]]);
        let mut c = Crc32::new();
        c.update(&data[..pos]);
        if (c.finalize() & 0xFFFF) as u16 != stored {
            return Err(Error::ChecksumMismatch);
        }
        pos += 2;
    }
    Ok(pos)
}

/// Decompresses a single-member gzip file, verifying the trailer.
///
/// The trailer's ISIZE sizes the output up front, capped at the most
/// the member's bytes can expand to, so a hostile trailer cannot force
/// a large allocation.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    let isize_hint = match data.len().checked_sub(4).and_then(|t| data.get(t..)) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]) as usize,
        _ => 0,
    };
    let mut out = Vec::new();
    let mut sink = Growable::new(
        &mut out,
        isize_hint.min(data.len().saturating_mul(MAX_EXPANSION)),
    );
    let (end, consumed) = decompress_member(data, &mut sink, 0)?;
    sink.finish(end);
    if consumed != data.len() {
        return Err(Error::Corrupt("trailing bytes after gzip member"));
    }
    Ok(out)
}

/// Decompresses a single-member gzip file into exactly `out`, verifying
/// the trailer: output longer or shorter than `out` is an error, as are
/// bytes after the member. For callers that know the decompressed size
/// from a trusted source (the packed store's CRC-checked index).
pub fn decompress_into(data: &[u8], out: &mut [u8]) -> Result<(), Error> {
    let len = out.len();
    let (end, consumed) = decompress_member(data, &mut inflate::Exact(out), 0)?;
    if end != len {
        return Err(Error::Corrupt("output shorter than the expected length"));
    }
    if consumed != data.len() {
        return Err(Error::Corrupt("trailing bytes after gzip member"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = b"gzip framing test".repeat(100);
        let gz = compress(&data, Level::Default);
        assert_eq!(decompress(&gz).unwrap(), data);
    }

    #[test]
    fn header_fields() {
        let gz = compress(b"x", Level::Best);
        assert_eq!(&gz[0..2], &MAGIC);
        assert_eq!(gz[2], CM_DEFLATE);
        assert_eq!(gz[3], 0);
        assert_eq!(gz[8], 2); // XFL for Best
        assert_eq!(gz[9], 255);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut gz = compress(b"x", Level::Default);
        gz[0] = 0;
        assert_eq!(decompress(&gz), Err(Error::BadHeader("magic bytes")));
    }

    #[test]
    fn rejects_corrupt_payload_crc() {
        let data = b"payload corruption check".repeat(10);
        let mut gz = compress(&data, Level::Default);
        // Flip a bit in the stored CRC.
        let n = gz.len();
        gz[n - 6] ^= 1;
        assert_eq!(decompress(&gz), Err(Error::ChecksumMismatch));
    }

    #[test]
    fn rejects_wrong_isize() {
        let data = vec![9u8; 100];
        let mut gz = compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 1] ^= 0x80;
        assert_eq!(decompress(&gz), Err(Error::ChecksumMismatch));
    }

    #[test]
    fn rejects_truncated_member() {
        let gz = compress(b"hello", Level::Default);
        for cut in 0..gz.len() {
            assert!(decompress(&gz[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn multi_member_concatenation_roundtrips() {
        let a = compress(b"alpha ", Level::Default);
        let b = compress(b"beta", Level::Best);
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        assert_eq!(decompress_multi(&cat).unwrap(), b"alpha beta");
        // Single-member API rejects the concatenation.
        assert!(matches!(decompress(&cat), Err(Error::Corrupt(_))));
        // Corruption in the second member is still caught.
        let n = cat.len();
        cat[n - 2] ^= 0x10;
        assert!(decompress_multi(&cat).is_err());
    }

    #[test]
    fn decompress_into_fills_exactly_or_fails_typed() {
        let data = b"exact gzip member".repeat(40);
        let gz = compress(&data, Level::Default);
        let mut out = vec![0u8; data.len()];
        decompress_into(&gz, &mut out).unwrap();
        assert_eq!(out, data);
        let mut short = vec![0u8; data.len() - 1];
        assert_eq!(
            decompress_into(&gz, &mut short),
            Err(Error::Corrupt("output longer than the expected length"))
        );
        let mut long = vec![0u8; data.len() + 1];
        assert!(matches!(
            decompress_into(&gz, &mut long),
            Err(Error::Corrupt(_))
        ));
        let mut trailing = gz.clone();
        trailing.push(0);
        assert_eq!(
            decompress_into(&trailing, &mut out),
            Err(Error::Corrupt("trailing bytes after gzip member"))
        );
    }

    #[test]
    fn hostile_isize_does_not_size_the_allocation() {
        // ISIZE claims 4 GiB - 1; the trailer check must still fail, and
        // the up-front allocation is capped by the member's own size.
        let mut gz = compress(b"tiny", Level::Default);
        let n = gz.len();
        gz[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decompress(&gz), Err(Error::ChecksumMismatch));
        assert!(gz.len() * MAX_EXPANSION < u32::MAX as usize / 1000);
    }

    #[test]
    fn members_cannot_reference_earlier_members() {
        // Member 2 is a fixed block whose first symbol is a match at
        // distance 1: valid only if it could see member 1's output.
        let mut w = crate::bitstream::BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        w.write_code(0b0000001, 7); // length 3
        w.write_code(0b00000, 5); // distance 1
        w.write_code(0b0000000, 7); // end of block
        let mut second = compress(b"", Level::Default)[..10].to_vec();
        second.extend_from_slice(&w.finish());
        second.extend_from_slice(&crc32(b"aaa").to_le_bytes());
        second.extend_from_slice(&3u32.to_le_bytes());
        let mut cat = compress(b"a", Level::Default);
        cat.extend_from_slice(&second);
        assert_eq!(
            decompress_multi(&cat),
            Err(Error::Corrupt("distance beyond output start"))
        );
    }

    #[test]
    fn skips_fname_field() {
        // Hand-build a member with FNAME set.
        let inner = compress(b"named", Level::Default);
        let mut gz = Vec::new();
        gz.extend_from_slice(&inner[..3]);
        gz.push(FNAME);
        gz.extend_from_slice(&inner[4..10]);
        gz.extend_from_slice(b"file.bin\0");
        gz.extend_from_slice(&inner[10..]);
        assert_eq!(decompress(&gz).unwrap(), b"named");
    }
}
