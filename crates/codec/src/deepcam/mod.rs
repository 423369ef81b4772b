//! DeepCAM differential floating-point codec (paper §V-A, Fig. 4).
//!
//! A sample is encoded **line by line** (one row of one channel). Every
//! line is independently decodable via a per-line directory — the design
//! property that lets the GPU assign lines to warps and the CPU assign
//! lines to threads without synchronization.
//!
//! Three line modes, chosen per line for the best space saving:
//!
//! * [`LineMode::Constant`] — "special encoding for the case where all
//!   neighboring values are similar": a single pivot value broadcast.
//! * [`LineMode::Delta`] — the line is split into segments; each segment
//!   stores its head value (f32), a base exponent, and one 8-bit code per
//!   remaining value: `[sign:1][exp_off:3][mantissa:4]` relative to the
//!   segment's base exponent. Code `0x00` is a zero delta and `0xFF`
//!   escapes to a literal f32 side array (isolated spikes).
//! * [`LineMode::RawF32`] — "lines with abrupt transitions or where the
//!   number of segments is large" stay uncompressed.
//!
//! Decode reconstructs in f32 and emits f16 (`§V-A`: "we emit
//! half-precision values, the computation is conducted in
//! single-precision"). The encoder mirrors the decoder's reconstruction
//! so quantization drift is accounted, and escapes bound the error.

mod decode;
mod encode;
mod simd;

pub use decode::{decode, decode_into, decode_line_into, decode_parallel, decode_parallel_into};
pub use encode::{encode, encode_parallel, EncodeStats, EncoderConfig};

use crate::CodecError;
use std::borrow::Cow;

/// Delta code escaping to a literal f32.
pub const CODE_ESCAPE: u8 = 0xFF;
/// Delta code meaning "zero delta".
pub const CODE_ZERO: u8 = 0x00;
/// Exponent-offset window width expressible by the 3-bit field.
pub const EXP_WINDOW: i32 = 7;

/// Per-line encoding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineMode {
    /// All values identical: payload is one f32.
    Constant,
    /// Uncompressed f32 values.
    RawF32,
    /// Segmented differential encoding.
    Delta,
}

impl LineMode {
    fn code(self) -> u8 {
        match self {
            LineMode::Constant => 0,
            LineMode::RawF32 => 1,
            LineMode::Delta => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self, CodecError> {
        match c {
            0 => Ok(LineMode::Constant),
            1 => Ok(LineMode::RawF32),
            2 => Ok(LineMode::Delta),
            _ => Err(CodecError::Corrupt("unknown line mode")),
        }
    }
}

/// Directory entry: where a line's payload lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Encoding mode.
    pub mode: LineMode,
    /// Payload byte offset.
    pub offset: u32,
    /// Payload byte length.
    pub len: u32,
}

/// Segment header inside a delta line (8 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First value of the segment, stored exactly.
    pub head: f32,
    /// Values covered including the head.
    pub count: u16,
    /// Base (minimum) delta exponent for the segment.
    pub base_exp: i8,
}

/// An encoded DeepCAM sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedDeepCam {
    /// Image width (values per line).
    pub width: u32,
    /// Image height (lines per channel).
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    /// Per-line directory, `channels * height` entries, channel-major.
    pub lines: Vec<LineMeta>,
    /// Concatenated line payloads.
    pub payload: Vec<u8>,
    /// Losslessly carried label mask (may be empty).
    pub mask: Vec<u8>,
}

const MAGIC: &[u8; 4] = b"DCMX";
/// Wire version 1: directory + raw payload bytes.
const VERSION: u32 = 1;
/// Wire version 2: the payload section travels through `sciml_pack`
/// as a second-stage squeeze over the differential code bytes (the
/// delta codes are heavily skewed toward `CODE_ZERO` and small
/// magnitudes, which the pack entropy stage exploits). The directory
/// and mask are unchanged.
const VERSION_PACKED: u32 = 2;

impl EncodedDeepCam {
    /// Total number of lines.
    pub fn n_lines(&self) -> usize {
        self.view().n_lines()
    }

    /// Total values the decoded sample holds.
    pub fn n_values(&self) -> usize {
        self.view().n_values()
    }

    /// Size of the encoded representation (directory + payload), i.e.
    /// what travels through the storage/memory hierarchy. The mask is
    /// excluded: labels ship separately and losslessly in both the
    /// baseline and the optimized path.
    pub fn encoded_bytes(&self) -> usize {
        self.lines.len() * 9 + self.payload.len() + 16
    }

    /// Size of the raw FP32 baseline representation.
    pub fn raw_bytes(&self) -> usize {
        self.n_values() * 4
    }

    /// Compression ratio (raw / encoded).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Serializes to the wire format (version 1, raw payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize(&self.payload, VERSION)
    }

    /// Serializes with the payload section squeezed through
    /// [`sciml_pack`] (version 2). The differential code bytes are
    /// heavily skewed (mostly [`CODE_ZERO`] and small magnitudes), so
    /// the pack entropy stage buys a second compression factor on top
    /// of the per-line delta coding. Falls back to the version-1 form
    /// whenever packing does not shrink the payload, so the result is
    /// never larger than [`EncodedDeepCam::to_bytes`].
    pub fn to_bytes_packed(&self) -> Vec<u8> {
        match sciml_pack::pack(&self.payload, 1) {
            Ok(packed) if packed.len() < self.payload.len() => {
                self.serialize(&packed, VERSION_PACKED)
            }
            _ => self.to_bytes(),
        }
    }

    fn serialize(&self, payload: &[u8], version: u32) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(32 + self.lines.len() * 9 + payload.len() + self.mask.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.channels.to_le_bytes());
        for l in &self.lines {
            out.push(l.mode.code());
            out.extend_from_slice(&l.offset.to_le_bytes());
            out.extend_from_slice(&l.len.to_le_bytes());
        }
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&(self.mask.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.mask);
        out
    }

    /// Parses the wire format, validating the directory. Decoders need
    /// no owned copy: [`DeepCamView::parse`] reads the same bytes in
    /// place, and this is that view copied out.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let view = DeepCamView::parse(data)?;
        let lines = (0..view.n_lines())
            .map(|idx| view.meta(idx))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            width: view.width,
            height: view.height,
            channels: view.channels,
            lines,
            mask: view.mask.to_vec(),
            payload: view.payload.into_owned(),
        })
    }

    /// A borrowed view of this sample, the form every decoder reads.
    pub fn view(&self) -> DeepCamView<'_> {
        DeepCamView {
            width: self.width,
            height: self.height,
            channels: self.channels,
            directory: Directory::Lines(&self.lines),
            payload: Cow::Borrowed(&self.payload),
            mask: &self.mask,
        }
    }
}

/// Bytes per wire directory entry: mode (1), offset (4), length (4).
const DIR_ENTRY: usize = 9;

/// Where a view's line directory lives.
#[derive(Debug, Clone, Copy)]
enum Directory<'a> {
    /// Parsed entries of an owned [`EncodedDeepCam`].
    Lines(&'a [LineMeta]),
    /// Raw wire entries, validated by [`DeepCamView::parse`].
    Wire(&'a [u8]),
}

/// A DeepCAM sample as the decoders read it: dimensions, directory,
/// payload and mask, borrowed from wire bytes ([`DeepCamView::parse`])
/// or from an owned sample ([`EncodedDeepCam::view`]). Every decode
/// entry point takes anything that converts into a view, so one kernel
/// serves both.
#[derive(Debug, Clone)]
pub struct DeepCamView<'a> {
    /// Image width (values per line).
    pub width: u32,
    /// Image height (lines per channel).
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    directory: Directory<'a>,
    /// Borrowed for wire version 1 and owned samples; a version-2
    /// payload section is unpacked into an owned buffer.
    payload: Cow<'a, [u8]>,
    /// Losslessly carried label mask (may be empty).
    pub mask: &'a [u8],
}

impl<'a> DeepCamView<'a> {
    /// Parses the wire format in place: the directory, payload and mask
    /// stay in `data` (a version-2 payload is unpacked). Validates what
    /// [`EncodedDeepCam::from_bytes`] always has — magic, version, line
    /// modes, every line's payload range — and that the value count fits
    /// in memory; hostile section lengths are typed errors.
    pub fn parse(data: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = crate::wire::Reader::new(data);
        if r.take(4)? != MAGIC {
            return Err(CodecError::Corrupt("bad magic"));
        }
        let version = r.u32()?;
        if version != VERSION && version != VERSION_PACKED {
            return Err(CodecError::Corrupt("unsupported version"));
        }
        let width = r.u32()?;
        let height = r.u32()?;
        let channels = r.u32()?;
        let n_lines = (channels as usize)
            .checked_mul(height as usize)
            .ok_or(CodecError::Corrupt("line count overflow"))?;
        if n_lines > 1 << 28 {
            return Err(CodecError::Corrupt("implausible line count"));
        }
        if n_lines.checked_mul(width as usize).is_none() {
            return Err(CodecError::Corrupt("value count overflow"));
        }
        let directory = r.take(n_lines * DIR_ENTRY)?;
        for entry in directory.chunks_exact(DIR_ENTRY) {
            LineMode::from_code(entry[0])?;
        }
        let section = r.section()?;
        let payload = if version == VERSION_PACKED {
            Cow::Owned(unpack_payload(section)?)
        } else {
            Cow::Borrowed(section)
        };
        let mask = r.section()?;
        let view = Self {
            width,
            height,
            channels,
            directory: Directory::Wire(directory),
            payload,
            mask,
        };
        for idx in 0..n_lines {
            view.line(idx)?;
        }
        Ok(view)
    }

    /// Total number of lines (`channels * height`).
    pub fn n_lines(&self) -> usize {
        self.channels as usize * self.height as usize
    }

    /// Total values the decoded sample holds (saturating: a count that
    /// large can never match an output slice).
    pub fn n_values(&self) -> usize {
        self.n_lines().saturating_mul(self.width as usize)
    }

    /// Directory entry `idx`.
    fn meta(&self, idx: usize) -> Result<LineMeta, CodecError> {
        const MISSING: CodecError = CodecError::Inconsistent("line index out of range");
        match self.directory {
            Directory::Lines(lines) => lines.get(idx).copied().ok_or(MISSING),
            Directory::Wire(dir) => {
                let at = idx.checked_mul(DIR_ENTRY).ok_or(MISSING)?;
                let entry = dir
                    .get(at..)
                    .and_then(|e| e.get(..DIR_ENTRY))
                    .ok_or(MISSING)?;
                Ok(LineMeta {
                    mode: LineMode::from_code(entry[0])?,
                    offset: crate::wire::le_u32(&entry[1..5]),
                    len: crate::wire::le_u32(&entry[5..9]),
                })
            }
        }
    }

    /// Mode and payload bytes of line `idx`; a typed error for an index
    /// past the directory or a range past the payload.
    pub fn line(&self, idx: usize) -> Result<(LineMode, &[u8]), CodecError> {
        let meta = self.meta(idx)?;
        let start = meta.offset as usize;
        let bytes = start
            .checked_add(meta.len as usize)
            .and_then(|end| self.payload.get(start..end))
            .ok_or(CodecError::Inconsistent("line payload out of range"))?;
        Ok((meta.mode, bytes))
    }
}

impl<'a> From<&'a EncodedDeepCam> for DeepCamView<'a> {
    fn from(enc: &'a EncodedDeepCam) -> Self {
        enc.view()
    }
}

impl<'a> From<&'a DeepCamView<'_>> for DeepCamView<'a> {
    /// Re-borrows a view (never copies the payload).
    fn from(view: &'a DeepCamView<'_>) -> Self {
        DeepCamView {
            width: view.width,
            height: view.height,
            channels: view.channels,
            directory: view.directory,
            payload: Cow::Borrowed(&view.payload),
            mask: view.mask,
        }
    }
}

/// Unpacks a version-2 payload section. The one allocating step of a
/// wire parse, and only for packed blobs.
fn unpack_payload(section: &[u8]) -> Result<Vec<u8>, CodecError> {
    sciml_pack::unpack(section).map_err(|e| match e {
        sciml_pack::PackError::Truncated => CodecError::Truncated,
        _ => CodecError::Corrupt("packed payload section corrupt"),
    })
}

/// Decodes one delta code byte relative to `base_exp`.
///
/// Returns `None` for the escape code.
#[inline]
pub(crate) fn decode_code(code: u8, base_exp: i8) -> Option<f32> {
    if code == CODE_ZERO {
        return Some(0.0);
    }
    if code == CODE_ESCAPE {
        return None;
    }
    let sign = if code & 0x80 != 0 { -1.0f32 } else { 1.0 };
    let e_off = ((code >> 4) & 0x7) as i32;
    let m = (code & 0x0F) as f32;
    Some(sign * (1.0 + m / 16.0) * exp2i(base_exp as i32 + e_off))
}

/// 2^e for integer e, exact over the f32 range used by the codec.
#[inline]
pub(crate) fn exp2i(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else if e < -126 {
        // Subnormal or underflow range: fall back to powi (rare path).
        2f32.powi(e)
    } else {
        f32::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2i_matches_powi() {
        for e in -140..=130 {
            assert_eq!(exp2i(e), 2f32.powi(e), "e={e}");
        }
    }

    #[test]
    fn code_decoding() {
        assert_eq!(decode_code(CODE_ZERO, 0), Some(0.0));
        assert_eq!(decode_code(CODE_ESCAPE, 0), None);
        // s=0, e_off=2, m=4 at base -3: (1+4/16) * 2^-1 = 0.625
        let code = (2u8 << 4) | 4;
        assert_eq!(decode_code(code, -3), Some(0.625));
        // sign bit negates
        assert_eq!(decode_code(code | 0x80, -3), Some(-0.625));
    }

    #[test]
    fn line_mode_codes_roundtrip() {
        for m in [LineMode::Constant, LineMode::RawF32, LineMode::Delta] {
            assert_eq!(LineMode::from_code(m.code()).unwrap(), m);
        }
        assert!(LineMode::from_code(9).is_err());
    }

    #[test]
    fn wire_roundtrip_empty() {
        let e = EncodedDeepCam {
            width: 0,
            height: 0,
            channels: 0,
            lines: vec![],
            payload: vec![],
            mask: vec![],
        };
        assert_eq!(EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn wire_rejects_truncation_and_bad_magic() {
        let e = EncodedDeepCam {
            width: 4,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 0,
                len: 16,
            }],
            payload: vec![0u8; 16],
            mask: vec![1, 2],
        };
        let bytes = e.to_bytes();
        assert_eq!(EncodedDeepCam::from_bytes(&bytes).unwrap(), e);
        for cut in 0..bytes.len() {
            assert!(
                EncodedDeepCam::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(EncodedDeepCam::from_bytes(&bad).is_err());
    }

    #[test]
    fn packed_wire_roundtrips_and_shrinks_skewed_payloads() {
        // A delta payload dominated by CODE_ZERO, like real DeepCAM
        // difference streams.
        let mut payload = vec![CODE_ZERO; 4000];
        for (i, b) in payload.iter_mut().enumerate() {
            if i % 17 == 0 {
                *b = (i % 7) as u8 + 1;
            }
        }
        let len = payload.len() as u32;
        let e = EncodedDeepCam {
            width: 1000,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::Delta,
                offset: 0,
                len,
            }],
            payload,
            mask: vec![9, 9],
        };
        let v1 = e.to_bytes();
        let v2 = e.to_bytes_packed();
        assert!(
            v2.len() < v1.len(),
            "pack stage must shrink: {} vs {}",
            v2.len(),
            v1.len()
        );
        assert_eq!(EncodedDeepCam::from_bytes(&v2).unwrap(), e);
        // Incompressible payloads fall back to the v1 form byte for byte.
        let mut state = 0x1234_5678u32;
        let noise: Vec<u8> = (0..997)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 24) as u8
            })
            .collect();
        let noisy = EncodedDeepCam {
            payload: noise,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 0,
                len: 997,
            }],
            ..e
        };
        assert_eq!(noisy.to_bytes_packed(), noisy.to_bytes());
    }

    #[test]
    fn packed_wire_rejects_corruption() {
        let e = EncodedDeepCam {
            width: 512,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::Delta,
                offset: 0,
                len: 2048,
            }],
            payload: vec![CODE_ZERO; 2048],
            mask: vec![],
        };
        let v2 = e.to_bytes_packed();
        assert_ne!(v2[4], 1, "payload this skewed must take the packed path");
        for cut in 0..v2.len() {
            assert!(EncodedDeepCam::from_bytes(&v2[..cut]).is_err(), "cut {cut}");
        }
        // Flip a byte inside the packed payload section (it starts at
        // 20-byte header + 9-byte directory + 8-byte length): the pack
        // CRCs catch it and it surfaces as a typed error.
        let mut bad = v2.clone();
        bad[20 + 9 + 8 + 10] ^= 0x40;
        assert!(EncodedDeepCam::from_bytes(&bad).is_err());
    }

    #[test]
    fn hostile_section_lengths_are_typed_errors() {
        // A 52-byte blob: 20-byte header, one 9-byte directory entry, a
        // 4-byte payload and a 3-byte mask, each section behind its u64
        // length. Lengths near u64::MAX used to overflow `pos + n`.
        let e = EncodedDeepCam {
            width: 1,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::Constant,
                offset: 0,
                len: 4,
            }],
            payload: vec![0; 4],
            mask: vec![1, 2, 3],
        };
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), 52);
        let payload_len_at = 20 + DIR_ENTRY;
        let mask_len_at = payload_len_at + 8 + 4;
        for at in [payload_len_at, mask_len_at] {
            for huge in [u64::MAX, u64::MAX - 7, 1 << 63, u64::MAX - 40] {
                let mut b = bytes.clone();
                b[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                for r in [
                    EncodedDeepCam::from_bytes(&b).err(),
                    DeepCamView::parse(&b).err(),
                ] {
                    assert!(
                        matches!(r, Some(CodecError::Truncated | CodecError::Corrupt(_))),
                        "length {huge:#x} at {at}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn view_parse_matches_owned_parse() {
        // A zero-heavy payload, so the packed form really is version 2.
        let mut payload = vec![0u8; 4 + 4096];
        payload[7] = 0x40;
        let e = EncodedDeepCam {
            width: 1024,
            height: 2,
            channels: 1,
            lines: vec![
                LineMeta {
                    mode: LineMode::RawF32,
                    offset: 4,
                    len: 4096,
                },
                LineMeta {
                    mode: LineMode::Constant,
                    offset: 0,
                    len: 4,
                },
            ],
            payload,
            mask: vec![5; 8],
        };
        let packed = e.to_bytes_packed();
        assert_eq!(
            packed[4], 2,
            "payload this skewed must take the packed path"
        );
        for bytes in [e.to_bytes(), packed] {
            let view = DeepCamView::parse(&bytes).unwrap();
            assert_eq!(view.n_values(), e.n_values());
            assert_eq!(view.mask, &e.mask[..]);
            for idx in 0..2 {
                let l = e.lines[idx];
                let want = &e.payload[l.offset as usize..(l.offset + l.len) as usize];
                assert_eq!(view.line(idx).unwrap(), (l.mode, want));
                assert_eq!(e.view().line(idx).unwrap(), (l.mode, want));
            }
            assert!(matches!(
                view.line(2),
                Err(CodecError::Inconsistent("line index out of range"))
            ));
        }
    }

    #[test]
    fn wire_rejects_out_of_range_directory() {
        let e = EncodedDeepCam {
            width: 4,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 8,
                len: 16,
            }],
            payload: vec![0u8; 16],
            mask: vec![],
        };
        assert!(matches!(
            EncodedDeepCam::from_bytes(&e.to_bytes()),
            Err(CodecError::Inconsistent(_))
        ));
    }
}
