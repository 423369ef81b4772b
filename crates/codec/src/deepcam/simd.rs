//! Runtime-dispatched code→delta decode for DeepCAM delta segments.
//!
//! A delta code byte is `[sign:1][exp_off:3][mantissa:4]` relative to
//! the segment's base exponent; the scalar decoder reconstructs
//! `sign * (1 + m/16) * 2^(base_exp + e_off)`. For exponents in the
//! f32 normal range that value's bit pattern is exactly
//!
//! ```text
//! bits = sign << 31 | (base_exp + e_off + 127) << 23 | m << 19
//! ```
//!
//! (the mantissa `m/16` occupies the top four mantissa bits, and the
//! scale by `2^e` only moves the exponent field), so the vector paths
//! assemble the bits with integer ops — no floating-point arithmetic,
//! hence trivially bit-exact. Zero and escape codes decode to `0.0`;
//! the caller patches escape positions from the literal side array
//! during its (inherently sequential) prefix-sum pass.
//!
//! Segments whose exponent window `[base_exp, base_exp+7]` leaves the
//! normal range (never produced by the encoder for real data, but
//! reachable through a hostile payload) fall back to the scalar
//! decoder wholesale, at every tier.
//!
//! The second kernel here is the lane scan ([`Lanes::scan`]): the
//! reconstruction `prev = reset ? x : prev + x` over 8 expanded lines at
//! once, one line per AVX2 lane (see `decode.rs` for the row layout).

use super::{decode_code, CODE_ESCAPE, CODE_ZERO};
use sciml_simd::{arch_level, SimdLevel};

/// Lines the lane kernel reconstructs together: one per AVX2 f32 lane.
pub(super) const LANES: usize = 8;

/// Proof that the active tier runs the lane kernel: only [`lanes`]
/// makes one, and only after dispatch resolved to AVX2, so the host has
/// the instructions even if the forced tier changes afterwards.
#[derive(Clone, Copy)]
pub(super) struct Lanes(());

/// The lane kernel, when the active tier has one (AVX2 only; every
/// other tier decodes line by line). `arch_level` resolves `Avx2` only
/// on x86-64 hosts that have it.
pub(super) fn lanes() -> Option<Lanes> {
    match arch_level() {
        SimdLevel::Avx2 => Some(Lanes(())),
        _ => None,
    }
}

impl Lanes {
    /// The tier the lane kernel runs at, for dispatch counters.
    pub(super) fn level(self) -> SimdLevel {
        SimdLevel::Avx2
    }

    /// [`decode_codes_into`] at this kernel's tier, without re-reading
    /// the dispatch state per segment. Returns whether any code was an
    /// escape.
    pub(super) fn decode_codes(self, codes: &[u8], base_exp: i8, out: &mut [f32]) -> bool {
        debug_assert_eq!(codes.len(), out.len());
        #[cfg(target_arch = "x86_64")]
        if (-126..=120).contains(&i32::from(base_exp)) && codes.len() == out.len() {
            // SAFETY: a `Lanes` exists only after dispatch resolved
            // Avx2 (avx2 detected); lengths are equal.
            return unsafe { x86::decode_codes_avx2(codes, base_exp.into(), out) };
        }
        decode_codes_scalar(codes, base_exp, out);
        codes.contains(&CODE_ESCAPE)
    }

    /// Scans 8 rows of `stride` values in place: row `l` is
    /// `rows[l * stride..(l + 1) * stride]`, and bit `k` of
    /// `resets[b * LANES + l]` marks column `8b + k` of row `l` as taken
    /// as-is; every other value becomes the running sum `prev + x`.
    /// `stride` must be a multiple of 8 with `rows` and `resets` at
    /// least `LANES * stride` and `stride` long (checked; a short buffer
    /// scans nothing).
    pub(super) fn scan(self, rows: &mut [f32], resets: &[u8], stride: usize) {
        let fits =
            stride.is_multiple_of(LANES) && rows.len() / LANES >= stride && resets.len() >= stride;
        debug_assert!(fits, "lane scan buffers do not match the stride");
        if !fits {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Lanes` exists only after dispatch resolved Avx2,
        // which requires the probe to have detected avx2 on this CPU;
        // the buffer sizes were checked above.
        unsafe {
            x86::scan_lanes_avx2(rows, resets, stride)
        };
    }
}

/// Decodes a run of codes sharing one `base_exp` into f32 deltas.
/// Escape codes (and zero codes) produce `0.0`. Caller guarantees
/// equal lengths.
pub(super) fn decode_codes_into(codes: &[u8], base_exp: i8, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len());
    let e = base_exp as i32;
    if !(-126..=120).contains(&e) {
        // Exponent window reaches subnormal/overflow territory: the
        // bit-assembly identity does not hold, take the scalar path.
        decode_codes_scalar(codes, base_exp, out);
        return;
    }
    match sciml_simd::arch_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when the probe (or a clamped
        // override) verified avx2 support on this CPU.
        SimdLevel::Avx2 => unsafe {
            x86::decode_codes_avx2(codes, e, out);
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Sse42 implies sse2..sse4.2 were detected.
        SimdLevel::Sse42 => unsafe { x86::decode_codes_sse(codes, e, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::decode_codes_neon(codes, e, out) },
        _ => decode_codes_scalar(codes, base_exp, out),
    }
}

/// Canonical scalar form: the original `decode_code` with escapes
/// mapped to `0.0` (the caller re-checks the code byte for escapes).
fn decode_codes_scalar(codes: &[u8], base_exp: i8, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = decode_code(c, base_exp).unwrap_or(0.0);
    }
}

// Compile-time anchors: the bit-assembly relies on these code values.
const _: () = assert!(CODE_ZERO == 0x00 && CODE_ESCAPE == 0xFF);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{decode_codes_scalar, LANES};
    use core::arch::x86_64::*;

    /// Transposes a 4×4 block within each 128-bit half of 4 vectors.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose4x2(r: [__m256; 4]) -> [__m256; 4] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ]
    }

    /// Lane scan, 8×8 blocks: load 8 row slices, transpose so vector
    /// `k` holds column `k` of every row (lane = line), run
    /// `prev = reset ? x : prev + x` down the columns with one add and
    /// one blend each, transpose back and store. Each lane performs the
    /// scalar loop's f32 additions, operand for operand, in order.
    ///
    /// The transposes pair row `l` with row `l + 4` in one vector (low
    /// and high 128-bit half), so only in-half 4×4 shuffles remain and
    /// the halves move through the load and store ports.
    ///
    /// # Safety
    ///
    /// The CPU must support avx2; `stride` must be a multiple of 8 with
    /// `rows.len() >= 8 * stride` and `resets.len() >= stride`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_lanes_avx2(rows: &mut [f32], resets: &[u8], stride: usize) {
        let base = rows.as_mut_ptr();
        let mut prev = _mm256_setzero_ps();
        for b in 0..stride / LANES {
            // SAFETY: caller guarantees rows.len() >= 8 * stride and
            // resets.len() >= stride with stride % 8 == 0, so block b's
            // row accesses (row l at l * stride + 8b, 8 values) and its
            // 8 reset bytes at 8b are in bounds.
            unsafe {
                let at = |l: usize, half: usize| base.add(l * stride + b * LANES + half * 4);
                let load = |l: usize, half: usize| {
                    _mm256_insertf128_ps::<1>(
                        _mm256_castps128_ps256(_mm_loadu_ps(at(l, half))),
                        _mm_loadu_ps(at(l + 4, half)),
                    )
                };
                let lo = transpose4x2([load(0, 0), load(1, 0), load(2, 0), load(3, 0)]);
                let hi = transpose4x2([load(0, 1), load(1, 1), load(2, 1), load(3, 1)]);
                let mut c = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]];
                let bits = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    resets.as_ptr().add(b * LANES).cast::<__m128i>(),
                ));
                // Column k's reset bit, moved to the sign bit that
                // blendv reads.
                macro_rules! step {
                    ($k:literal) => {
                        let sum = _mm256_add_ps(prev, c[$k]);
                        let reset = _mm256_castsi256_ps(_mm256_slli_epi32::<{ 31 - $k }>(bits));
                        prev = _mm256_blendv_ps(sum, c[$k], reset);
                        c[$k] = prev;
                    };
                }
                step!(0);
                step!(1);
                step!(2);
                step!(3);
                step!(4);
                step!(5);
                step!(6);
                step!(7);
                for (half, cols) in [[c[0], c[1], c[2], c[3]], [c[4], c[5], c[6], c[7]]]
                    .into_iter()
                    .enumerate()
                {
                    for (l, v) in transpose4x2(cols).into_iter().enumerate() {
                        _mm_storeu_ps(at(l, half), _mm256_castps256_ps128(v));
                        _mm_storeu_ps(at(l + 4, half), _mm256_extractf128_ps::<1>(v));
                    }
                }
            }
        }
    }

    /// Returns whether any code was [`super::CODE_ESCAPE`], so the lane
    /// kernel looks for escapes only in segments that have one.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_codes_avx2(codes: &[u8], base_exp: i32, out: &mut [f32]) -> bool {
        let n = codes.len();
        let bias = _mm256_set1_epi32(base_exp + 127);
        let mut escaped = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the 8-byte code load and the
            // 8-lane store into `out` (equal length, caller contract).
            unsafe {
                let c8 = _mm_loadl_epi64(codes.as_ptr().add(i).cast::<__m128i>());
                let c = _mm256_cvtepu8_epi32(c8);
                let is_zero = _mm256_cmpeq_epi32(c, _mm256_setzero_si256());
                let is_esc = _mm256_cmpeq_epi32(c, _mm256_set1_epi32(0xFF));
                let sign = _mm256_slli_epi32::<24>(_mm256_and_si256(c, _mm256_set1_epi32(0x80)));
                let eoff = _mm256_and_si256(_mm256_srli_epi32::<4>(c), _mm256_set1_epi32(7));
                let mant = _mm256_slli_epi32::<19>(_mm256_and_si256(c, _mm256_set1_epi32(0x0F)));
                let expf = _mm256_slli_epi32::<23>(_mm256_add_epi32(eoff, bias));
                let bits = _mm256_or_si256(sign, _mm256_or_si256(expf, mant));
                let bits = _mm256_andnot_si256(_mm256_or_si256(is_zero, is_esc), bits);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_castsi256_ps(bits));
                escaped = _mm256_or_si256(escaped, is_esc);
            }
            i += 8;
        }
        decode_codes_scalar(&codes[i..], base_exp as i8, &mut out[i..]);
        _mm256_testz_si256(escaped, escaped) == 0 || codes[i..].contains(&super::CODE_ESCAPE)
    }

    /// Decodes 4 codes held in u32 lanes into f32 delta bits.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    unsafe fn decode4_sse(c: __m128i, bias: __m128i) -> __m128 {
        let is_zero = _mm_cmpeq_epi32(c, _mm_setzero_si128());
        let is_esc = _mm_cmpeq_epi32(c, _mm_set1_epi32(0xFF));
        let sign = _mm_slli_epi32::<24>(_mm_and_si128(c, _mm_set1_epi32(0x80)));
        let eoff = _mm_and_si128(_mm_srli_epi32::<4>(c), _mm_set1_epi32(7));
        let mant = _mm_slli_epi32::<19>(_mm_and_si128(c, _mm_set1_epi32(0x0F)));
        let expf = _mm_slli_epi32::<23>(_mm_add_epi32(eoff, bias));
        let bits = _mm_or_si128(sign, _mm_or_si128(expf, mant));
        let bits = _mm_andnot_si128(_mm_or_si128(is_zero, is_esc), bits);
        _mm_castsi128_ps(bits)
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn decode_codes_sse(codes: &[u8], base_exp: i32, out: &mut [f32]) {
        let n = codes.len();
        let bias = _mm_set1_epi32(base_exp + 127);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the 8-byte code load and both
            // 4-lane stores into `out` (equal length, caller contract).
            unsafe {
                let c8 = _mm_loadl_epi64(codes.as_ptr().add(i).cast::<__m128i>());
                let lo = decode4_sse(_mm_cvtepu8_epi32(c8), bias);
                let hi = decode4_sse(_mm_cvtepu8_epi32(_mm_srli_si128::<4>(c8)), bias);
                _mm_storeu_ps(out.as_mut_ptr().add(i), lo);
                _mm_storeu_ps(out.as_mut_ptr().add(i + 4), hi);
            }
            i += 8;
        }
        decode_codes_scalar(&codes[i..], base_exp as i8, &mut out[i..]);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::decode_codes_scalar;
    use core::arch::aarch64::*;

    /// Decodes 4 codes held in u32 lanes into f32 delta bits.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn decode4_neon(c: uint32x4_t, bias: uint32x4_t) -> float32x4_t {
        let is_zero = vceqq_u32(c, vdupq_n_u32(0));
        let is_esc = vceqq_u32(c, vdupq_n_u32(0xFF));
        let sign = vshlq_n_u32::<24>(vandq_u32(c, vdupq_n_u32(0x80)));
        let eoff = vandq_u32(vshrq_n_u32::<4>(c), vdupq_n_u32(7));
        let mant = vshlq_n_u32::<19>(vandq_u32(c, vdupq_n_u32(0x0F)));
        let expf = vshlq_n_u32::<23>(vaddq_u32(eoff, bias));
        let bits = vorrq_u32(sign, vorrq_u32(expf, mant));
        let bits = vbicq_u32(bits, vorrq_u32(is_zero, is_esc));
        vreinterpretq_f32_u32(bits)
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn decode_codes_neon(codes: &[u8], base_exp: i32, out: &mut [f32]) {
        let n = codes.len();
        let bias = vdupq_n_u32((base_exp + 127) as u32);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the 8-byte code load and both
            // 4-lane stores into `out` (equal length, caller contract).
            unsafe {
                let c8 = vld1_u8(codes.as_ptr().add(i));
                let c16 = vmovl_u8(c8);
                let lo = decode4_neon(vmovl_u16(vget_low_u16(c16)), bias);
                let hi = decode4_neon(vmovl_u16(vget_high_u16(c16)), bias);
                vst1q_f32(out.as_mut_ptr().add(i), lo);
                vst1q_f32(out.as_mut_ptr().add(i + 4), hi);
            }
            i += 8;
        }
        decode_codes_scalar(&codes[i..], base_exp as i8, &mut out[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_simd::{force, supported_levels};

    #[test]
    fn vector_code_decode_matches_scalar_for_all_codes_and_exponents() {
        // Every code byte at a spread of base exponents, including the
        // edges of the normal window and beyond (fallback path), with a
        // tail-unfriendly length.
        let codes: Vec<u8> = (0..=255u8).chain(0..=10).collect();
        for &be in &[-128i8, -127, -126, -120, -40, -3, 0, 5, 90, 120, 121, 127] {
            let mut want = vec![0.0f32; codes.len()];
            decode_codes_scalar(&codes, be, &mut want);
            for lvl in supported_levels() {
                let _g = force(Some(lvl));
                let mut got = vec![0.0f32; codes.len()];
                decode_codes_into(&codes, be, &mut got);
                for i in 0..codes.len() {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "lvl {lvl:?} code {:#04x} base_exp {be}",
                        codes[i]
                    );
                }
            }
        }
    }
}
