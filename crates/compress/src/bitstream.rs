//! LSB-first bit output, as DEFLATE requires.
//!
//! The writer lives in the shared `sciml-bitio` crate so the chunked
//! numeric compressor (`sciml-pack`) can reuse it; this module
//! re-exports it under the historical path. Decoding reads bits through
//! the inflater's own buffer ([`mod@crate::inflate`]).

pub use sciml_bitio::BitWriter;
