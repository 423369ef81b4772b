//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for gzip
//! trailers, TFRecord masked CRCs, and container integrity checks.
//!
//! Two paths, one result:
//!
//! * **carry-less-multiply folding** (x86-64 with `pclmulqdq`, at the
//!   SSE4.2 tier or above): four 128-bit accumulators fold 64 bytes per
//!   step, collapse into one, and a Barrett reduction produces the
//!   32-bit register. Inputs of 64 bytes or more take this path.
//! * **slicing-by-8**: eight derived tables consume 8 bytes per step
//!   with no inter-byte dependency chain. It is the canonical fallback
//!   (`SCIML_SIMD=scalar`, hosts without `pclmulqdq`, aarch64) and
//!   handles short inputs and the sub-16-byte tail of long ones.
//!
//! Dispatch goes through `sciml-simd` ([`sciml_simd::crc32_level`]) and
//! every update of 64 bytes or more bumps the `crc32.<tier>` dispatch
//! counter.

use sciml_simd::{record, Kernel};

/// Shortest input the folding kernel takes: one 64-byte fold step.
const FOLD_MIN: usize = 64;

/// Slicing-by-8 tables. `t[0]` is the classic byte-at-a-time table;
/// `t[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so the
/// eight lookups of one 8-byte step can be XOR-combined independently.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        if data.len() < FOLD_MIN {
            self.state = update_sliced(self.state, data);
            return;
        }
        let level = sciml_simd::crc32_level();
        record(Kernel::Crc32, level);
        #[cfg(target_arch = "x86_64")]
        if level != sciml_simd::SimdLevel::Scalar {
            let body = data.len() & !15;
            // SAFETY: `crc32_level` returns a vector tier only when the
            // host has `pclmulqdq` and SSE4.1 (`sciml_simd::has_clmul`),
            // the features `fold_clmul` is compiled for; `body` is a
            // multiple of 16 and at least `FOLD_MIN`.
            let folded = unsafe { fold_clmul(self.state, &data[..body]) };
            self.state = update_sliced(folded, &data[body..]);
            return;
        }
        self.state = update_sliced(self.state, data);
    }

    /// Final checksum value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Slicing-by-8 update of the raw CRC register.
fn update_sliced(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Folding constants for the reflected CRC-32 polynomial, each
/// `x^k mod P(x)` bit-reflected and shifted left by one so a 64×64
/// carry-less product lands aligned (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
#[cfg(target_arch = "x86_64")]
mod k {
    /// Fold 512 bits: `x^(4·128+32)`, `x^(4·128−32)`.
    pub const FOLD4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold 128 bits: `x^(128+32)`, `x^(128−32)`.
    pub const FOLD1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// Fold the final 64 bits down to 32: `x^64`.
    pub const FOLD64: i64 = 0x1_63cd_6124;
    /// Barrett reduction: `P'(x)` and `µ = floor(x^64 / P(x))`.
    pub const POLY: i64 = 0x1_db71_0641;
    pub const MU: i64 = 0x1_f701_1641;
}

/// Folds `data` (a multiple of 16 bytes, at least 64) into the raw CRC
/// register `state` with carry-less multiplies and returns the new
/// register.
///
/// # Safety
/// The host must support `pclmulqdq` and SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_clmul(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= FOLD_MIN && data.len().is_multiple_of(16));

    // `acc·x^128 mod P ⊕ next`: two 64×64 products of `acc` against
    // the constant pair `k`.
    macro_rules! fold {
        ($acc:expr, $next:expr, $k:expr) => {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128($acc, $k, 0x00),
                    _mm_clmulepi64_si128($acc, $k, 0x11),
                ),
                $next,
            )
        };
    }

    // Unaligned 16-byte load at `at`; the slice index bounds-checks it.
    macro_rules! load {
        ($block:expr, $at:expr) => {
            _mm_loadu_si128($block[$at..$at + 16].as_ptr().cast())
        };
    }

    let Some((head, rest)) = data.split_at_checked(FOLD_MIN) else {
        return update_sliced(state, data);
    };
    let mut quads = rest.chunks_exact(FOLD_MIN);
    // SAFETY: the caller guarantees `pclmulqdq` and SSE4.1. Every
    // unaligned 16-byte load reads from `head` (exactly 64 bytes) or a
    // 64-byte chunk at offsets 0, 16, 32 and 48, or a 16-byte chunk.
    unsafe {
        let mut x0 = _mm_xor_si128(load!(head, 0), _mm_cvtsi32_si128(state as i32));
        let (mut x1, mut x2, mut x3) = (load!(head, 16), load!(head, 32), load!(head, 48));

        let fold4 = _mm_set_epi64x(k::FOLD4.1, k::FOLD4.0);
        for quad in &mut quads {
            x0 = fold!(x0, load!(quad, 0), fold4);
            x1 = fold!(x1, load!(quad, 16), fold4);
            x2 = fold!(x2, load!(quad, 32), fold4);
            x3 = fold!(x3, load!(quad, 48), fold4);
        }

        let fold1 = _mm_set_epi64x(k::FOLD1.1, k::FOLD1.0);
        let mut x = fold!(x0, x1, fold1);
        x = fold!(x, x2, fold1);
        x = fold!(x, x3, fold1);
        for block in quads.remainder().chunks_exact(16) {
            x = fold!(x, load!(block, 0), fold1);
        }

        // 128 → 64 bits (appending 32 zero bits), then 64 → 32 bits.
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(fold1, x, 0x01), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_cvtsi64_si128(k::FOLD64), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Bit-reflected Barrett reduction to the 32-bit register.
        let poly_mu = _mm_set_epi64x(k::MU, k::POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// The "masked CRC" transform used by the TFRecord format
/// (`((crc >> 15) | (crc << 17)) + 0xa282ead8`, on CRC-32; the real
/// format uses CRC-32C but the masking and framing are identical, and we
/// apply the same function on both ends).
pub fn masked_crc32(data: &[u8]) -> u32 {
    let c = crc32(data);
    c.rotate_right(15).wrapping_add(0xa282_ead8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference the sliced implementation must match.
    fn crc32_reference(data: &[u8]) -> u32 {
        let t = tables();
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_reference_at_every_length() {
        // Cover every remainder length around the 8-byte step, plus a
        // buffer long enough to exercise many full steps.
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) ^ 0x5A) as u8)
            .collect();
        for len in (0..64).chain([511, 512, 513, 1024]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finalize(), crc32(data));
        // Split points that leave the state mid-way through an 8-byte
        // step must agree too.
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(data), "split {split}");
        }
    }

    /// The folding kernel on `data` (whole 16-byte blocks) plus the
    /// sliced tail — `Crc32::update`'s vector path, without dispatch.
    #[cfg(target_arch = "x86_64")]
    fn crc32_clmul(data: &[u8]) -> Option<u32> {
        if !sciml_simd::has_clmul() || data.len() < FOLD_MIN {
            return None;
        }
        let body = data.len() & !15;
        // SAFETY: `has_clmul` confirmed `pclmulqdq` and SSE4.1; `body`
        // is a multiple of 16 and at least `FOLD_MIN`.
        let folded = unsafe { fold_clmul(0xFFFF_FFFF, &data[..body]) };
        Some(update_sliced(folded, &data[body..]) ^ 0xFFFF_FFFF)
    }

    fn sliced(data: &[u8]) -> u32 {
        update_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(31) + 7) as u8).collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_matches_sliced_at_every_short_length_and_alignment() {
        let data = pattern(320);
        for offset in 0..16 {
            for len in FOLD_MIN..=300 {
                let s = &data[offset..offset + len];
                if let Some(c) = crc32_clmul(s) {
                    assert_eq!(c, sliced(s), "offset {offset} length {len}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn clmul_matches_sliced_for_any_length_and_alignment(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4112),
            offset in 0usize..16,
        ) {
            let s = &data[offset.min(data.len())..];
            let s = &s[..s.len().min(4096)];
            if let Some(c) = crc32_clmul(s) {
                proptest::prop_assert_eq!(c, sliced(s));
            }
            proptest::prop_assert_eq!(crc32(s), sliced(s));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn split_updates_match_oneshot(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            a in 0usize..4096,
            b in 0usize..4096,
        ) {
            let (a, b) = (a.min(data.len()), b.min(data.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut c = Crc32::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..]);
            proptest::prop_assert_eq!(c.finalize(), sliced(&data));
        }
    }

    #[test]
    fn known_vectors_at_every_supported_tier() {
        let long = pattern(1 << 20);
        let fox = b"The quick brown fox jumps over the lazy dog".repeat(3);
        for level in sciml_simd::supported_levels() {
            let _g = sciml_simd::force(Some(level));
            let tier = level.name();
            assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "{tier}");
            assert_eq!(crc32(&long), 0xD424_BDC1, "{tier}");
            assert_eq!(crc32(&fox), 0xD996_91F3, "{tier}");
            assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011, "{tier}");
            assert_eq!(crc32(&[0xFFu8; 1000]), 0xE053_3230, "{tier}");
        }
    }

    #[test]
    fn long_updates_bump_the_crc_dispatch_counter() {
        let count = || {
            sciml_simd::dispatch_counts()
                .iter()
                .filter(|(k, _, _)| *k == Kernel::Crc32)
                .map(|&(_, _, n)| n)
                .sum::<u64>()
        };
        let before = count();
        crc32(&[1u8; FOLD_MIN]);
        assert!(count() > before);
    }

    #[test]
    fn masked_crc_is_stable_and_distinct() {
        let m = masked_crc32(b"123456789");
        assert_eq!(m, masked_crc32(b"123456789"));
        assert_ne!(m, crc32(b"123456789"));
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }
}
