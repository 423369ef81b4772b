//! The DeepCAM lane kernel (8 lines per pass, one per AVX2 lane) against
//! the per-line reference path, bit for bit, at every SIMD tier.
//!
//! Samples are built directly in the wire layout rather than through the
//! encoder, so every case the lane kernel has to get right can be made
//! on purpose: widths that leave vector tails, line counts that leave a
//! partial group, constant and raw lines mixed into delta groups,
//! escapes in the first and last column, and segment exponents at the
//! edges of the normal window and beyond.

use proptest::prelude::*;
use sciml_codec::deepcam::{self as dc, EncodedDeepCam, LineMeta, LineMode};
use sciml_codec::{CodecError, Op};
use sciml_half::F16;
use sciml_simd::{dispatch_counts, force, supported_levels, Kernel, SimdLevel};
use std::sync::{Mutex, MutexGuard};

/// Forced tiers are process-wide: the tests of this file take turns so
/// each one's forced tier is the tier its decodes run at.
fn tiers() -> MutexGuard<'static, ()> {
    static TIERS: Mutex<()> = Mutex::new(());
    TIERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Small deterministic generator (xorshift64*), seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Mostly ordinary magnitudes, sometimes raw bit patterns (NaN
    /// payloads, infinities, subnormals, signed zeros).
    fn value(&mut self) -> f32 {
        match self.below(8) {
            0 => f32::from_bits(self.next() as u32),
            1 => f32::from_bits(self.next() as u32 & 0x807F_FFFF),
            2 => -0.0,
            _ => (self.below(20_000) as f32 - 10_000.0) / 64.0,
        }
    }

    /// Segment exponents: the encoder's usual range, the edges of the
    /// normal window `[-126, 120]` the vector code decode needs, and
    /// beyond it on both sides.
    fn base_exp(&mut self) -> i8 {
        const EDGES: [i8; 10] = [-128, -127, -126, -125, 119, 120, 121, 122, 126, 127];
        match self.below(4) {
            0 => EDGES[self.below(EDGES.len())],
            1 => self.next() as i8,
            _ => self.below(12) as i8 - 8,
        }
    }
}

/// One delta line payload over `width` values: random segmentation,
/// random codes, escapes at a random rate plus, when `edge_escapes`, in
/// the first and last code position of the line.
fn delta_line(rng: &mut Rng, width: usize, edge_escapes: bool) -> Vec<u8> {
    let mut counts = Vec::new();
    let mut left = width;
    while left > 0 {
        let longest = if rng.below(3) == 0 { 4 } else { 40 };
        let c = 1 + rng.below(left.min(longest));
        counts.push(c);
        left -= c;
    }
    let n_codes = width - counts.len();
    let escape_rate = [0, 2, 10, 50][rng.below(4)];
    let mut codes: Vec<u8> = (0..n_codes)
        .map(|_| {
            if rng.below(100) < escape_rate {
                0xFF
            } else {
                rng.next() as u8
            }
        })
        .collect();
    if edge_escapes && n_codes > 0 {
        codes[0] = 0xFF;
        codes[n_codes - 1] = 0xFF;
    }
    let n_literals = codes.iter().filter(|&&c| c == 0xFF).count();
    let mut out = Vec::new();
    out.extend_from_slice(&(counts.len() as u16).to_le_bytes());
    out.extend_from_slice(&(n_literals as u16).to_le_bytes());
    for &c in &counts {
        out.extend_from_slice(&rng.value().to_le_bytes());
        out.extend_from_slice(&(c as u16).to_le_bytes());
        out.push(rng.base_exp() as u8);
        out.push(0);
    }
    out.extend_from_slice(&codes);
    for _ in 0..n_literals {
        out.extend_from_slice(&rng.value().to_le_bytes());
    }
    out
}

/// A sample of `n_lines` lines (one channel): mostly delta lines, with
/// constant and raw lines mixed in when `mixed`.
fn sample(seed: u64, width: usize, n_lines: usize, mixed: bool) -> EncodedDeepCam {
    let mut rng = Rng(seed | 1);
    let mut lines = Vec::with_capacity(n_lines);
    let mut payload = Vec::new();
    for _ in 0..n_lines {
        let offset = payload.len() as u32;
        let mode = match rng.below(if mixed { 6 } else { 1 }) {
            1 => LineMode::Constant,
            2 => LineMode::RawF32,
            _ => LineMode::Delta,
        };
        match mode {
            LineMode::Constant => payload.extend_from_slice(&rng.value().to_le_bytes()),
            LineMode::RawF32 => {
                for _ in 0..width {
                    payload.extend_from_slice(&rng.value().to_le_bytes());
                }
            }
            LineMode::Delta => {
                let edge = rng.below(2) == 0;
                payload.extend_from_slice(&delta_line(&mut rng, width, edge));
            }
        }
        lines.push(LineMeta {
            mode,
            offset,
            len: payload.len() as u32 - offset,
        });
    }
    EncodedDeepCam {
        width: width as u32,
        height: n_lines as u32,
        channels: 1,
        lines,
        payload,
        mask: vec![7; 3],
    }
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Identity),
        Just(Op::Log1p),
        (0.01f32..4.0, -100f32..100.0).prop_map(|(scale, offset)| Op::Normalize { scale, offset }),
        (0.01f32..4.0, -10f32..10.0)
            .prop_map(|(scale, offset)| Op::Log1pNormalize { scale, offset }),
    ]
}

/// The per-line reference at the scalar tier: one `decode_line_into`
/// per line.
fn reference(enc: &EncodedDeepCam, op: Op) -> Vec<F16> {
    let _g = force(Some(SimdLevel::Scalar));
    let width = enc.width as usize;
    let mut out = vec![F16::ZERO; enc.n_values()];
    for idx in 0..enc.n_lines() {
        dc::decode_line_into(enc, idx, op, &mut out[idx * width..(idx + 1) * width]).unwrap();
    }
    out
}

fn assert_bits_eq(got: &[F16], want: &[F16], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{} value {}", what, i);
    }
    Ok(())
}

/// Every decode entry point at every tier against the reference, also
/// through the wire form (decode from the parsed view).
fn check_all_tiers(enc: &EncodedDeepCam, op: Op) -> Result<(), TestCaseError> {
    let _turn = tiers();
    let want = reference(enc, op);
    let bytes = enc.to_bytes();
    let view = dc::DeepCamView::parse(&bytes).unwrap();
    for lvl in supported_levels() {
        let _g = force(Some(lvl));
        assert_bits_eq(
            &dc::decode(enc, op).unwrap(),
            &want,
            &format!("{lvl:?} decode"),
        )?;
        let mut out = vec![F16::ONE; want.len()];
        dc::decode_into(enc, op, &mut out).unwrap();
        assert_bits_eq(&out, &want, &format!("{lvl:?} decode_into"))?;
        out.fill(F16::ONE);
        dc::decode_parallel_into(&view, op, &mut out).unwrap();
        assert_bits_eq(&out, &want, &format!("{lvl:?} decode_parallel_into (view)"))?;
        for idx in 0..enc.n_lines() {
            let w = enc.width as usize;
            let mut line = vec![F16::ONE; w];
            dc::decode_line_into(&view, idx, op, &mut line).unwrap();
            assert_bits_eq(
                &line,
                &want[idx * w..(idx + 1) * w],
                &format!("{lvl:?} line {idx}"),
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delta-only groups, widths 1..=70, line counts leaving a partial
    /// trailing group.
    #[test]
    fn lanes_match_per_line_path(
        seed in any::<u64>(),
        width in 1usize..=70,
        n_lines in 1usize..=27,
        op in any_op(),
    ) {
        check_all_tiers(&sample(seed, width, n_lines, false), op)?;
    }

    /// Groups mixing constant, raw and delta lines.
    #[test]
    fn lanes_match_per_line_path_with_mixed_modes(
        seed in any::<u64>(),
        width in 1usize..=70,
        n_lines in 8usize..=26,
        op in any_op(),
    ) {
        check_all_tiers(&sample(seed, width, n_lines, true), op)?;
    }
}

#[test]
fn escapes_in_every_lane_and_edge_column_match() {
    // Every line of two full groups escapes its first and last code.
    for width in [2usize, 7, 8, 9, 16, 33] {
        let mut rng = Rng(width as u64 * 7919);
        let mut enc = sample(1, width, 16, false);
        let mut payload = Vec::new();
        for l in &mut enc.lines {
            l.offset = payload.len() as u32;
            payload.extend_from_slice(&delta_line(&mut rng, width, true));
            l.len = payload.len() as u32 - l.offset;
        }
        enc.payload = payload;
        for op in [
            Op::Identity,
            Op::Log1p,
            Op::Normalize {
                scale: 0.5,
                offset: 1.0,
            },
            Op::Log1pNormalize {
                scale: 2.0,
                offset: -1.0,
            },
        ] {
            check_all_tiers(&enc, op).unwrap();
        }
    }
}

/// Truncation at every byte and every single-bit flip of a small
/// encoded sample (two full groups and a partial one, mixed modes) give
/// a typed error or a decode at every tier — never a panic — and any
/// decode that succeeds agrees across tiers. Output buffers keep the
/// original size, so a flipped dimension is a length error rather than
/// a huge allocation.
#[test]
fn hostile_bytes_are_typed_errors_at_every_tier() {
    let _turn = tiers();
    let enc = sample(42, 13, 19, true);
    let bytes = enc.to_bytes();
    let n_values = enc.n_values();
    let decode_all = |b: &[u8]| -> Vec<Result<Vec<u16>, CodecError>> {
        supported_levels()
            .into_iter()
            .map(|lvl| {
                let _g = force(Some(lvl));
                let view = dc::DeepCamView::parse(b)?;
                let mut serial = vec![F16::ZERO; n_values];
                let serial_result = dc::decode_into(&view, Op::Identity, &mut serial);
                let mut out = vec![F16::ZERO; n_values];
                let parallel_result = dc::decode_parallel_into(&view, Op::Identity, &mut out);
                assert_eq!(serial_result, parallel_result, "{lvl:?}");
                parallel_result?;
                assert_eq!(serial, out, "serial and parallel differ at {lvl:?}");
                Ok(out.iter().map(|h| h.to_bits()).collect())
            })
            .collect()
    };
    for cut in 0..bytes.len() {
        for r in decode_all(&bytes[..cut]) {
            assert!(r.is_err(), "cut {cut} decoded");
        }
    }
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            let results = decode_all(&b);
            for r in &results[1..] {
                assert_eq!(r, &results[0], "byte {pos} bit {bit}: tiers disagree");
            }
        }
    }
}

fn lane_dispatches(level: SimdLevel) -> u64 {
    dispatch_counts()
        .into_iter()
        .find(|&(k, l, _)| k == Kernel::DeepcamLanes && l == level)
        .map_or(0, |(_, _, n)| n)
}

/// The lane kernel records its dispatches at `avx2`, and never runs at
/// the scalar or SSE4.2 tier.
#[test]
fn lane_kernel_dispatches_only_at_avx2() {
    let _turn = tiers();
    let enc = sample(5, 24, 32, false);
    let mut out = vec![F16::ZERO; enc.n_values()];
    for lvl in [SimdLevel::Scalar, SimdLevel::Sse42] {
        let _g = force(Some(lvl));
        let before = (
            lane_dispatches(SimdLevel::Scalar),
            lane_dispatches(SimdLevel::Sse42),
        );
        dc::decode_into(&enc, Op::Identity, &mut out).unwrap();
        dc::decode_parallel_into(&enc, Op::Identity, &mut out).unwrap();
        let after = (
            lane_dispatches(SimdLevel::Scalar),
            lane_dispatches(SimdLevel::Sse42),
        );
        assert_eq!(before, after, "lane kernel ran at {lvl:?}");
    }
    if supported_levels().contains(&SimdLevel::Avx2) {
        let _g = force(Some(SimdLevel::Avx2));
        let before = lane_dispatches(SimdLevel::Avx2);
        dc::decode_into(&enc, Op::Identity, &mut out).unwrap();
        // 32 lines: 4 full groups.
        assert!(lane_dispatches(SimdLevel::Avx2) >= before + 4);
    }
}
