//! DeepCAM decoder: per-line independent reconstruction, FP32 compute,
//! FP16 emission, optional fused affine preprocessing.
//!
//! Lines decode in groups of [`LANES`]. At the AVX2 tier a full group of
//! delta lines runs the lane kernel: each line is *expanded* into an f32
//! row (segment heads and escaped literals in place, every other slot
//! its code's delta) with a reset bit on every value taken as-is, then
//! one vector scan reconstructs all 8 rows at once, one line per lane.
//! Every other case — other tiers, the trailing partial group, constant
//! and raw lines — goes through [`decode_line_into`], the per-line
//! reference the lane kernel matches bit for bit.

use super::simd::{decode_codes_into, lanes, Lanes, LANES};
use super::{DeepCamView, LineMode, CODE_ESCAPE};
use crate::{CodecError, Op};
use rayon::prelude::*;
use sciml_half::slice::{narrow_affine_into, narrow_into};
use sciml_half::F16;
use sciml_simd::{arch_level, record, Kernel};
use std::cell::Cell;

thread_local! {
    /// Per-thread f32 line buffer: reconstruction runs in FP32, then a
    /// single bulk narrowing pass emits FP16 — no per-line allocation.
    static LINE_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread lane-kernel rows and reset bits, reused across groups.
    static LANE_SCRATCH: Cell<LaneRows> = const {
        Cell::new(LaneRows { values: Vec::new(), resets: Vec::new() })
    };
}

/// The lane kernel's working set: [`LANES`] expanded rows of `stride`
/// f32 values, and one reset byte per (8-column block, lane).
#[derive(Default)]
struct LaneRows {
    values: Vec<f32>,
    resets: Vec<u8>,
}

/// Runs `f` with a zeroed f32 scratch slice of `width` values.
fn with_scratch<R>(width: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    LINE_SCRATCH.with(|slot| {
        let mut buf = slot.take();
        buf.clear();
        buf.resize(width, 0.0);
        let r = f(&mut buf);
        slot.set(buf);
        r
    })
}

/// Runs `f` with lane rows sized for `stride` values per row.
fn with_lane_rows<R>(stride: usize, f: impl FnOnce(&mut [f32], &mut [u8]) -> R) -> R {
    LANE_SCRATCH.with(|slot| {
        let mut rows = slot.take();
        rows.values.resize(LANES * stride, 0.0);
        rows.resets.resize(stride, 0);
        let r = f(&mut rows.values, &mut rows.resets);
        slot.set(rows);
        r
    })
}

/// Applies `op` to the reconstructed f32 line and narrows it to FP16.
///
/// The affine stages go through the runtime-dispatched bulk kernels in
/// `sciml-half`; the logarithmic ops keep a scalar `ln_1p` pre-pass
/// (bit-exact by construction — the per-element float op sequence is
/// identical to `F16::from_f32(op.apply(v))`).
fn finish_into(vals: &mut [f32], op: Op, dst: &mut [F16]) {
    match op {
        Op::Identity => narrow_into(vals, dst),
        Op::Normalize { scale, offset } => narrow_affine_into(vals, scale, offset, dst),
        Op::Log1p => {
            for v in vals.iter_mut() {
                *v = v.ln_1p();
            }
            narrow_into(vals, dst);
        }
        Op::Log1pNormalize { scale, offset } => {
            for v in vals.iter_mut() {
                *v = v.ln_1p();
            }
            narrow_affine_into(vals, scale, offset, dst);
        }
    }
}

/// Decodes a full sample sequentially into channel-major FP16. Takes an
/// owned sample (`&EncodedDeepCam`) or a wire view (`&DeepCamView`).
pub fn decode<'a>(enc: impl Into<DeepCamView<'a>>, op: Op) -> Result<Vec<F16>, CodecError> {
    let view = enc.into();
    let mut out = vec![F16::ZERO; view.n_values()];
    decode_view_into(&view, op, &mut out)?;
    Ok(out)
}

/// [`decode`] into a caller-provided slice, which must be exactly
/// [`DeepCamView::n_values`] long (a typed error otherwise, never a
/// panic). Every slot is written; callers may pass recycled buffers.
pub fn decode_into<'a>(
    enc: impl Into<DeepCamView<'a>>,
    op: Op,
    out: &mut [F16],
) -> Result<(), CodecError> {
    decode_view_into(&enc.into(), op, out)
}

fn decode_view_into(view: &DeepCamView<'_>, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    check_output(view, out)?;
    let width = view.width as usize;
    let n_lines = view.n_lines();
    let mut first = 0;
    while first < n_lines {
        let n = LANES.min(n_lines - first);
        decode_group(
            view,
            first,
            n,
            op,
            &mut out[first * width..(first + n) * width],
        )?;
        first += n;
    }
    Ok(())
}

fn check_output(view: &DeepCamView<'_>, out: &[F16]) -> Result<(), CodecError> {
    if out.len() != view.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    Ok(())
}

/// Decodes a full sample with one rayon task per group of 8 lines — the
/// CPU plugin's execution model ("on the CPU we assign different
/// samples/lines to different threads"; lines are the intra-sample
/// unit, and a group is what one lane-kernel pass reconstructs).
pub fn decode_parallel<'a>(
    enc: impl Into<DeepCamView<'a>>,
    op: Op,
) -> Result<Vec<F16>, CodecError> {
    let view = enc.into();
    let mut out = vec![F16::ZERO; view.n_values()];
    decode_parallel_into(&view, op, &mut out)?;
    Ok(out)
}

/// [`decode_parallel`] into a caller-provided slice (same length
/// contract as [`decode_into`]).
pub fn decode_parallel_into<'a>(
    enc: impl Into<DeepCamView<'a>>,
    op: Op,
    out: &mut [F16],
) -> Result<(), CodecError> {
    let view = enc.into();
    check_output(&view, out)?;
    let width = view.width as usize;
    if width == 0 {
        // Nothing to write, but every line is still validated.
        return decode_view_into(&view, op, out);
    }
    out.par_chunks_mut(LANES * width)
        .enumerate()
        .try_for_each(|(g, dst)| decode_group(&view, g * LANES, dst.len() / width, op, dst))
}

/// Decodes lines `first..first + n` into `dst` (`n * width` values):
/// all at once in lanes when the tier has the lane kernel and the group
/// is full, line by line otherwise.
fn decode_group(
    view: &DeepCamView<'_>,
    first: usize,
    n: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let width = view.width as usize;
    if let Some(kernel) = lanes().filter(|_| n == LANES) {
        return decode_lanes(kernel, view, first, op, dst);
    }
    for k in 0..n {
        decode_line(view, first + k, op, &mut dst[k * width..(k + 1) * width])?;
    }
    Ok(())
}

/// The lane kernel over one full group: expand each delta line into its
/// row, scan all rows at once, then narrow each row into its line of
/// `dst`. Constant and raw lines decode through the per-line path and
/// leave a zeroed row. Errors are the per-line path's, in line order.
fn decode_lanes(
    kernel: Lanes,
    view: &DeepCamView<'_>,
    first: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let width = view.width as usize;
    let stride = width.next_multiple_of(LANES);
    record(Kernel::DeepcamLanes, kernel.level());
    with_lane_rows(stride, |rows, resets| {
        resets.fill(0);
        let mut expanded = [false; LANES];
        for (lane, was_expanded) in expanded.iter_mut().enumerate() {
            let idx = first + lane;
            let row = &mut rows[lane * stride..(lane + 1) * stride];
            row[width..].fill(0.0);
            match view.line(idx)? {
                (LineMode::Delta, payload) => {
                    expand_delta_line(kernel, payload, width, row, resets, lane)?;
                    *was_expanded = true;
                }
                _ => {
                    row.fill(0.0);
                    decode_line(view, idx, op, &mut dst[lane * width..(lane + 1) * width])?;
                }
            }
        }
        kernel.scan(rows, resets, stride);
        if stride == width && expanded.iter().all(|&e| e) {
            // Rows are back to back, as are the group's output lines.
            finish_into(rows, op, dst);
            return Ok(());
        }
        for (lane, _) in expanded.iter().enumerate().filter(|(_, &e)| e) {
            finish_into(
                &mut rows[lane * stride..lane * stride + width],
                op,
                &mut dst[lane * width..(lane + 1) * width],
            );
        }
        Ok(())
    })
}

/// Decodes line `idx` into `dst` (length = width). This is the unit of
/// independence the per-line directory exists for, and the reference
/// the lane kernel matches; the GPU simulator calls it one warp-task at
/// a time.
pub fn decode_line_into<'a>(
    enc: impl Into<DeepCamView<'a>>,
    idx: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    decode_line(&enc.into(), idx, op, dst)
}

fn decode_line(
    view: &DeepCamView<'_>,
    idx: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let width = view.width as usize;
    if dst.len() != width {
        return Err(CodecError::Inconsistent("destination width mismatch"));
    }
    let (mode, payload) = view.line(idx)?;
    match mode {
        LineMode::Constant => {
            if payload.len() != 4 {
                return Err(CodecError::Corrupt("constant line payload size"));
            }
            let v = crate::wire::le_f32(payload);
            let h = F16::from_f32(op.apply(v));
            dst.fill(h);
            Ok(())
        }
        LineMode::RawF32 => {
            if payload.len() != width * 4 {
                return Err(CodecError::Corrupt("raw line payload size"));
            }
            with_scratch(width, |vals| {
                for (v, chunk) in vals.iter_mut().zip(payload.chunks_exact(4)) {
                    *v = crate::wire::le_f32(chunk);
                }
                finish_into(vals, op, dst);
            });
            Ok(())
        }
        LineMode::Delta => decode_delta_line(payload, width, op, dst),
    }
}

/// A delta line payload split into its validated sections: segment
/// headers, one code per non-head value, and the literal side array.
struct DeltaLine<'p> {
    headers: &'p [u8],
    codes: &'p [u8],
    literals: &'p [u8],
}

impl<'p> DeltaLine<'p> {
    /// Validates the layout: segment counts non-zero and summing to
    /// `width`, and the payload exactly headers + codes + literals.
    /// Headers are re-read by [`DeltaLine::segment`] rather than staged
    /// in a scratch vector — this runs once per line of every sample, so
    /// it must not allocate.
    fn parse(payload: &'p [u8], width: usize) -> Result<Self, CodecError> {
        if payload.len() < 4 {
            return Err(CodecError::Corrupt("delta line header"));
        }
        let n_segments = crate::wire::le_u16(&payload[0..2]) as usize;
        let n_literals = crate::wire::le_u16(&payload[2..4]) as usize;
        let headers_end = 4 + n_segments * 8;
        if payload.len() < headers_end {
            return Err(CodecError::Corrupt("segment headers truncated"));
        }
        let headers = &payload[4..headers_end];
        let mut total = 0usize;
        for h in headers.chunks_exact(8) {
            let count = crate::wire::le_u16(&h[4..6]) as usize;
            if count == 0 {
                return Err(CodecError::Corrupt("empty segment"));
            }
            total += count;
        }
        if total != width {
            return Err(CodecError::Inconsistent("segment counts != width"));
        }
        let codes_end = headers_end + (width - n_segments);
        if payload.len() != codes_end + n_literals * 4 {
            return Err(CodecError::Corrupt("delta line payload size"));
        }
        Ok(Self {
            headers,
            codes: &payload[headers_end..codes_end],
            literals: &payload[codes_end..],
        })
    }

    fn n_segments(&self) -> usize {
        self.headers.len() / 8
    }

    /// `(head, count, base_exp)` of segment `si`.
    fn segment(&self, si: usize) -> (f32, usize, i8) {
        let h = &self.headers[si * 8..si * 8 + 8];
        (
            crate::wire::le_f32(&h[0..4]),
            crate::wire::le_u16(&h[4..6]) as usize,
            h[6] as i8,
        )
    }

    /// Literal `li` of the side array.
    fn literal(&self, li: usize) -> Result<f32, CodecError> {
        self.literals
            .get(li * 4..li * 4 + 4)
            .map(crate::wire::le_f32)
            .ok_or(CodecError::Corrupt("literal index out of range"))
    }

    /// Fails unless exactly `used` literals were consumed.
    fn check_literals_used(&self, used: usize) -> Result<(), CodecError> {
        if used * 4 != self.literals.len() {
            return Err(CodecError::Inconsistent("unused literals"));
        }
        Ok(())
    }
}

/// Walks a delta line payload: segment headers, then codes, then the
/// literal side array. The canonical reconstruction, one line at a time.
fn decode_delta_line(
    payload: &[u8],
    width: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let line = DeltaLine::parse(payload, width)?;
    record(Kernel::DeepcamLine, arch_level());
    with_scratch(width, |vals| {
        let mut ci = 0usize; // code cursor
        let mut li = 0usize; // literal cursor
        let mut di = 0usize; // destination cursor
        for si in 0..line.n_segments() {
            let (head, count, base_exp) = line.segment(si);
            // Vector pass: code bytes → f32 deltas. Escapes land as 0.0
            // and are patched from the literal array below.
            let seg_codes = &line.codes[ci..ci + count - 1];
            decode_codes_into(seg_codes, base_exp, &mut vals[di + 1..di + count]);
            // Sequential pass: prefix-accumulate in FP32 (the paper's
            // software-emulated path; FP16 emission happens in bulk at
            // the end of the line).
            vals[di] = head;
            li = accumulate(head, seg_codes, &mut vals[di + 1..di + count], &line, li)?;
            ci += count - 1;
            di += count;
        }
        line.check_literals_used(li)?;
        finish_into(vals, op, dst);
        Ok(())
    })
}

/// The running sum over one segment: each slot of `deltas` becomes
/// `prev + delta`, or the next literal (from `li` on) where its code is
/// an escape. Returns the literal cursor. Kept out of line so the
/// running sum stays in a register across the segment's loop.
#[inline(never)]
fn accumulate(
    mut prev: f32,
    codes: &[u8],
    deltas: &mut [f32],
    line: &DeltaLine<'_>,
    mut li: usize,
) -> Result<usize, CodecError> {
    for (&code, v) in codes.iter().zip(deltas) {
        *v = if code == CODE_ESCAPE {
            li += 1;
            line.literal(li - 1)?
        } else {
            prev + *v
        };
        prev = *v;
    }
    Ok(li)
}

/// The lane kernel's expand step for one delta line: writes the first
/// `width` values of `row` with each segment head, escaped literal or
/// code delta at its position, and sets lane `lane`'s reset bit for
/// every head and escape. Values past `width` are scratch. Validation
/// and errors are [`decode_delta_line`]'s.
fn expand_delta_line(
    kernel: Lanes,
    payload: &[u8],
    width: usize,
    row: &mut [f32],
    resets: &mut [u8],
    lane: usize,
) -> Result<(), CodecError> {
    let line = DeltaLine::parse(payload, width)?;
    let mut mark = |pos: usize| resets[pos / LANES * LANES + lane] |= 1 << (pos % LANES);
    let mut ci = 0usize;
    let mut li = 0usize;
    let mut di = 0usize;
    for si in 0..line.n_segments() {
        let (head, count, base_exp) = line.segment(si);
        let seg_codes = &line.codes[ci..ci + count - 1];
        row[di] = head;
        mark(di);
        // Whole 8-code chunks where the line's codes and the row allow:
        // the overrun decodes the next segment's codes into its slots,
        // which that segment rewrites (and past the last value, padding).
        let whole = (count - 1).next_multiple_of(LANES);
        let escaped = match (
            line.codes.get(ci..ci + whole),
            row.get_mut(di + 1..di + 1 + whole),
        ) {
            (Some(codes), Some(out)) => kernel.decode_codes(codes, base_exp, out),
            _ => kernel.decode_codes(seg_codes, base_exp, &mut row[di + 1..di + count]),
        };
        if escaped {
            for (j, _) in seg_codes
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == CODE_ESCAPE)
            {
                row[di + 1 + j] = line.literal(li)?;
                li += 1;
                mark(di + 1 + j);
            }
        }
        ci += count - 1;
        di += count;
    }
    line.check_literals_used(li)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deepcam::encode::{encode, EncoderConfig};
    use crate::deepcam::EncodedDeepCam;
    use crate::ErrorStats;
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig, DeepCamSample};
    use sciml_half::slice::widen;

    fn roundtrip_sample() -> (DeepCamSample, EncodedDeepCam) {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let (e, _) = encode(&s, &EncoderConfig::default());
        (s, e)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (_, e) = roundtrip_sample();
        let a = decode(&e, Op::Identity).unwrap();
        let b = decode_parallel(&e, Op::Identity).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reconstruction_error_is_bounded_as_paper_reports() {
        let (s, e) = roundtrip_sample();
        let out = decode(&e, Op::Identity).unwrap();
        let wide = widen(&out);
        let mut stats = ErrorStats::new(1.0);
        stats.record_slices(&wide, &s.data);
        // The paper reports ≈3 % of values above 10 % relative error;
        // our tolerance-tuned encoder must stay in single digits.
        assert!(
            stats.frac_above_10pct() < 0.10,
            "frac = {}",
            stats.frac_above_10pct()
        );
        // And typical values must be tight (escape tolerance 2 %).
        let in_tolerance: u64 = stats.buckets[..4].iter().sum();
        assert!(
            in_tolerance as f64 / stats.total as f64 > 0.90,
            "{:?}",
            stats.buckets
        );
    }

    #[test]
    fn large_errors_concentrate_near_zero() {
        let (s, e) = roundtrip_sample();
        let out = widen(&decode(&e, Op::Identity).unwrap());
        let mut stats = ErrorStats::new(1.0);
        stats.record_slices(&out, &s.data);
        if stats.large_error_total > 0 {
            assert!(
                stats.small_value_share() > 0.5,
                "share = {}",
                stats.small_value_share()
            );
        }
    }

    #[test]
    fn wire_roundtrip_decodes_identically() {
        let (_, e) = roundtrip_sample();
        let e2 = EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(
            decode(&e, Op::Identity).unwrap(),
            decode(&e2, Op::Identity).unwrap()
        );
    }

    #[test]
    fn fused_normalize_exact_on_representable_values() {
        // Values, deltas, and normalized results all exactly
        // representable: the fused path must equal post-normalization
        // bit for bit (pure commutation, no rounding in the way).
        let width = 64;
        let line: Vec<f32> = (0..width).map(|i| 2.0 + i as f32 * 0.25).collect();
        let s = DeepCamSample {
            width,
            height: 1,
            channels: 1,
            data: line,
            mask: vec![0; width],
        };
        let (e, _) = encode(&s, &EncoderConfig::default());
        let op = Op::Normalize {
            scale: 0.5,
            offset: 2.0,
        };
        let fused = decode(&e, op).unwrap();
        let plain = decode(&e, Op::Identity).unwrap();
        for (f, p) in fused.iter().zip(&plain) {
            assert_eq!(*f, F16::from_f32(op.apply(p.to_f32())));
        }
    }

    #[test]
    fn fused_normalize_is_at_least_as_accurate_as_post_normalize() {
        // On real data the fused path normalizes the f32 reconstruction
        // before the single f16 rounding; normalizing an already-rounded
        // f16 can only add error. Check the fused result tracks the
        // true normalized reference at least as tightly on aggregate.
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(2);
        let (e, _) = encode(&s, &EncoderConfig::default());
        let op = Op::Normalize {
            scale: 0.05,
            offset: 270.0,
        };
        let fused = decode(&e, op).unwrap();
        let plain = decode(&e, Op::Identity).unwrap();
        let mut fused_err = 0f64;
        let mut post_err = 0f64;
        for ((f, p), &x) in fused.iter().zip(&plain).zip(&s.data) {
            let reference = op.apply(x);
            let post = F16::from_f32(op.apply(p.to_f32()));
            fused_err += (f.to_f32() - reference).abs() as f64;
            post_err += (post.to_f32() - reference).abs() as f64;
        }
        assert!(
            fused_err <= post_err * 1.001,
            "fused {fused_err} vs post {post_err}"
        );
    }

    #[test]
    fn corrupt_payload_is_rejected_not_panicking() {
        let (_, e) = roundtrip_sample();
        let mut bytes = e.to_bytes();
        // Flip bytes throughout; decode must never panic.
        for i in (0..bytes.len()).step_by(97) {
            bytes[i] ^= 0x5A;
            if let Ok(parsed) = EncodedDeepCam::from_bytes(&bytes) {
                let _ = decode(&parsed, Op::Identity);
            }
            bytes[i] ^= 0x5A;
        }
    }

    #[test]
    fn empty_mask_is_preserved_and_roundtrips() {
        let (s, e) = roundtrip_sample();
        assert_eq!(e.mask, s.mask);
    }

    #[test]
    fn decode_into_matches_decode_and_checks_length() {
        let (_, e) = roundtrip_sample();
        let want = decode(&e, Op::Identity).unwrap();
        // Dirty recycled buffer: every slot must be rewritten.
        let mut out = vec![F16::ONE; want.len()];
        decode_into(&e, Op::Identity, &mut out).unwrap();
        assert_eq!(out, want);
        decode_parallel_into(&e, Op::Identity, &mut out).unwrap();
        assert_eq!(out, want);
        for bad in [want.len() - 1, want.len() + 1, 0] {
            let mut wrong = vec![F16::ZERO; bad];
            assert!(matches!(
                decode_into(&e, Op::Identity, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
            assert!(matches!(
                decode_parallel_into(&e, Op::Identity, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn decode_line_into_checks_width() {
        let (_, e) = roundtrip_sample();
        let mut short = vec![F16::ZERO; 3];
        assert!(decode_line_into(&e, 0, Op::Identity, &mut short).is_err());
    }
}
