//! Property tests: DEFLATE/gzip must round-trip arbitrary byte vectors at
//! every compression level, and corrupted trailers must be rejected.

use proptest::prelude::*;
use sciml_compress::{
    deflate_compress, gzip_compress, gzip_decompress, gzip_decompress_into, inflate, Error, Level,
};

fn levels() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Fastest),
        Just(Level::Fast),
        Just(Level::Default),
        Just(Level::Best),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip_random(data in prop::collection::vec(any::<u8>(), 0..8192), level in levels()) {
        let c = deflate_compress(&data, level);
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_structured(
        pattern in prop::collection::vec(any::<u8>(), 1..64),
        repeats in 1usize..200,
        level in levels(),
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).copied().collect();
        let c = deflate_compress(&data, level);
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    #[test]
    fn gzip_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096), level in levels()) {
        let gz = gzip_compress(&data, level);
        prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn gzip_detects_single_byte_corruption_in_trailer(
        data in prop::collection::vec(any::<u8>(), 1..512),
        which in 0usize..8,
        bit in 0u8..8,
    ) {
        let mut gz = gzip_compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 8 + which] ^= 1 << bit;
        // Trailer corruption must surface as *some* error (checksum, or a
        // stream error if the flipped byte happens to matter earlier).
        prop_assert!(gzip_decompress(&gz).is_err());
    }

    #[test]
    fn truncated_gzip_always_errors(data in prop::collection::vec(any::<u8>(), 0..512), frac in 0.0f64..1.0) {
        let gz = gzip_compress(&data, Level::Default);
        let cut = ((gz.len() as f64) * frac) as usize;
        if cut < gz.len() {
            prop_assert!(gzip_decompress(&gz[..cut]).is_err());
        }
    }

    #[test]
    fn inflate_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Arbitrary bytes: must return Ok or Err, never panic or hang.
        let _ = inflate(&data);
    }

    #[test]
    fn gzip_of_highly_compressible_is_small(byte in any::<u8>(), n in 1000usize..50_000) {
        let data = vec![byte; n];
        let gz = gzip_compress(&data, Level::Default);
        prop_assert!(gz.len() < n / 50 + 64, "{} for {}", gz.len(), n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concatenating independently compressed members round-trips
    /// through the multi-member decoder.
    #[test]
    fn multi_member_roundtrip(
        parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..256), 1..5),
    ) {
        let mut cat = Vec::new();
        let mut expect = Vec::new();
        for p in &parts {
            cat.extend_from_slice(&gzip_compress(p, Level::Fast));
            expect.extend_from_slice(p);
        }
        prop_assert_eq!(sciml_compress::gzip_decompress_multi(&cat).unwrap(), expect);
    }

    /// zlib round-trips arbitrary data.
    #[test]
    fn zlib_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096), level in levels()) {
        let z = sciml_compress::zlib_compress(&data, level);
        prop_assert_eq!(sciml_compress::zlib_decompress(&z).unwrap(), data);
    }
}

#[test]
fn checksum_error_type_is_distinguishable() {
    let data = b"distinguish me".repeat(8);
    let mut gz = gzip_compress(&data, Level::Default);
    let n = gz.len();
    gz[n - 5] ^= 0x40; // inside CRC field
    assert_eq!(gzip_decompress(&gz), Err(Error::ChecksumMismatch));
}

/// Inputs that exercise every block kind: short text (fixed blocks),
/// incompressible noise (stored blocks), repetitive structure (dynamic
/// blocks), and enough tokens to split into several blocks.
fn block_mix() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(any::<u8>(), 0..40_000),
        prop::collection::vec(any::<u8>(), 1..16),
        0usize..20_000,
    )
        .prop_map(|(text, noise, motif, reps)| {
            let mut data = text;
            data.extend_from_slice(&noise);
            data.extend(motif.iter().cycle().take(reps));
            data
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Growable and exact-size inflation agree with the input at every
    /// level, across fixed, stored, dynamic and multi-block streams.
    #[test]
    fn inflate_roundtrips_every_block_kind(data in block_mix(), level in levels()) {
        let raw = deflate_compress(&data, level);
        prop_assert_eq!(&inflate(&raw).unwrap(), &data);
        let gz = gzip_compress(&data, level);
        let mut out = vec![0u8; data.len()];
        gzip_decompress_into(&gz, &mut out).unwrap();
        prop_assert_eq!(&out, &data);
        prop_assert_eq!(&gzip_decompress(&gz).unwrap(), &data);
    }

    /// Exact mode fails typed when the caller's size is off by one.
    #[test]
    fn exact_size_off_by_one_is_typed(data in prop::collection::vec(any::<u8>(), 1..2048)) {
        let gz = gzip_compress(&data, Level::Default);
        let mut short = vec![0u8; data.len() - 1];
        prop_assert!(matches!(gzip_decompress_into(&gz, &mut short), Err(Error::Corrupt(_))));
        let mut long = vec![0u8; data.len() + 1];
        prop_assert!(matches!(gzip_decompress_into(&gz, &mut long), Err(Error::Corrupt(_))));
    }
}

/// A small member mixing repeated text (matches) and noise (literals).
fn mixed_member() -> (Vec<u8>, Vec<u8>) {
    let mut data = b"abcabcabcabc the quick brown fox ".repeat(3);
    data.extend((0..150u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8));
    (gzip_compress(&data, Level::Default), data)
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    for data in [mixed_member().1, vec![7u8; 3000], Vec::new()] {
        let gz = gzip_compress(&data, Level::Default);
        let raw = deflate_compress(&data, Level::Default);
        for cut in 0..gz.len() {
            assert!(gzip_decompress(&gz[..cut]).is_err(), "gzip cut {cut}");
            let mut out = vec![0u8; data.len()];
            assert!(
                gzip_decompress_into(&gz[..cut], &mut out).is_err(),
                "exact cut {cut}"
            );
        }
        for cut in 0..raw.len() {
            assert_eq!(
                inflate(&raw[..cut]),
                Err(Error::UnexpectedEof),
                "deflate cut {cut}"
            );
        }
    }
}

#[test]
fn single_bit_flips_never_pass_as_other_data() {
    // Header bytes 4..10 (MTIME, XFL, OS) are not covered by any check;
    // every other flip must fail typed or, for bits DEFLATE ignores
    // (stored-block and final padding), decode to the original bytes.
    let (gz, data) = mixed_member();
    for byte in (0..4).chain(10..gz.len()) {
        for bit in 0..8 {
            let mut bad = gz.clone();
            bad[byte] ^= 1 << bit;
            if let Ok(out) = gzip_decompress(&bad) {
                assert_eq!(out, data, "flip {byte}.{bit} decoded to other bytes");
            }
            let mut out = vec![0u8; data.len()];
            if gzip_decompress_into(&bad, &mut out).is_ok() {
                assert_eq!(out, data, "exact flip {byte}.{bit}");
            }
            let _ = inflate(&bad[10..]);
        }
    }
}

#[test]
fn hostile_isize_is_rejected_without_a_huge_allocation() {
    let mut gz = gzip_compress(b"four", Level::Default);
    let n = gz.len();
    gz[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(gzip_decompress(&gz), Err(Error::ChecksumMismatch));
    let mut out = [0u8; 4];
    assert_eq!(
        gzip_decompress_into(&gz, &mut out),
        Err(Error::ChecksumMismatch)
    );
}
