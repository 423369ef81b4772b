//! Host CPU feature facade: the platform-level view of the runtime
//! SIMD dispatch layer.
//!
//! ISSUE-level placement note: the probe itself lives in the zero-dep
//! leaf crate `sciml-simd` (not here) because `sciml-platform` depends
//! on `sciml-codec`, whose decode kernels need the probe — putting it
//! here would create a dependency cycle. This module is the public
//! facade the CLI and the performance model consume: it re-exports the
//! probe API and adds the per-workload kernel-plan report.

pub use sciml_simd::{
    active_level, arch_level, crc32_level, detected_level, dispatch_counts, env_level, env_request,
    force, has_clmul, is_supported, level_total, supported_levels, ForceGuard, Kernel, SimdLevel,
    ALL_KERNELS, ALL_LEVELS, SIMD_ENV,
};

/// One decode kernel's resolved dispatch path on this host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPath {
    /// Kernel identity (`cosmo_gather`, `deepcam_line`, …).
    pub kernel: Kernel,
    /// The workload/stage the kernel serves, for display.
    pub stage: &'static str,
    /// Tier the dispatcher will select for it right now.
    pub level: SimdLevel,
    /// Human description of the vector strategy at that tier.
    pub strategy: &'static str,
}

/// The dispatch plan for every kernel at the currently active tier
/// (env override and force guards included, clamped to this
/// architecture — the reported level is the level that will run). The
/// CRC-32 kernel additionally needs `pclmulqdq` ([`crc32_level`]); the
/// DeepCAM lane kernel exists only at AVX2 and reports `Scalar` (not
/// run: lines decode one by one) at every other tier.
pub fn kernel_plan() -> Vec<KernelPath> {
    ALL_KERNELS
        .iter()
        .map(|&kernel| {
            let level = level_of(kernel);
            KernelPath {
                kernel,
                stage: match kernel {
                    Kernel::CosmoGather => "CosmoFlow LUT decode",
                    Kernel::DeepcamLine => "DeepCAM delta decode",
                    Kernel::DeepcamLanes => "DeepCAM 8-line decode",
                    Kernel::HalfNarrow => "F32\u{2192}F16 emission",
                    Kernel::HalfWiden => "F16\u{2192}F32 load",
                    Kernel::Crc32 => "CRC-32 integrity check",
                },
                level,
                strategy: strategy(kernel, level),
            }
        })
        .collect()
}

fn level_of(kernel: Kernel) -> SimdLevel {
    match (kernel, arch_level()) {
        (Kernel::Crc32, _) => crc32_level(),
        (Kernel::DeepcamLanes, SimdLevel::Avx2) => SimdLevel::Avx2,
        (Kernel::DeepcamLanes, _) => SimdLevel::Scalar,
        (_, level) => level,
    }
}

fn strategy(kernel: Kernel, level: SimdLevel) -> &'static str {
    match (kernel, level) {
        (Kernel::DeepcamLanes, SimdLevel::Avx2) => {
            "one line per lane: 8x8 transposes + add/blend scan"
        }
        (Kernel::DeepcamLanes, _) => "not at this tier: lines decode one by one",
        (Kernel::Crc32, SimdLevel::Scalar | SimdLevel::Neon) => "slicing-by-8 tables",
        (Kernel::Crc32, SimdLevel::Sse42 | SimdLevel::Avx2) => {
            "PCLMULQDQ 4x128-bit fold + Barrett reduction"
        }
        (_, SimdLevel::Scalar) => "scalar reference loop",
        (Kernel::CosmoGather, SimdLevel::Avx2) => "8-voxel row gather + in-register transpose",
        (Kernel::CosmoGather, SimdLevel::Sse42) => "4-voxel row gather + in-register transpose",
        (Kernel::CosmoGather, SimdLevel::Neon) => "4-voxel gather via vld4 deinterleave",
        (Kernel::DeepcamLine, SimdLevel::Avx2) => "8-code integer bit-assembly per segment",
        (Kernel::DeepcamLine, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "4-code integer bit-assembly per segment"
        }
        (Kernel::HalfNarrow, SimdLevel::Avx2) => "F16C vcvtps2ph, 8 lanes",
        (Kernel::HalfNarrow, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "integer round-to-nearest-even narrow, 4 lanes"
        }
        (Kernel::HalfWiden, SimdLevel::Avx2) => "F16C vcvtph2ps, 8 lanes",
        (Kernel::HalfWiden, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "integer exponent rebias widen, 4 lanes"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_kernel_at_one_level() {
        let plan = kernel_plan();
        assert_eq!(plan.len(), ALL_KERNELS.len());
        for p in &plan {
            let want = match p.kernel {
                Kernel::Crc32 => crc32_level(),
                Kernel::DeepcamLanes if arch_level() != SimdLevel::Avx2 => SimdLevel::Scalar,
                _ => arch_level(),
            };
            assert_eq!(p.level, want);
            assert!(!p.strategy.is_empty() && !p.stage.is_empty());
        }
    }

    #[test]
    fn forced_scalar_plan_reports_scalar_strategies() {
        let _g = force(Some(SimdLevel::Scalar));
        for p in kernel_plan() {
            assert_eq!(p.level, SimdLevel::Scalar);
            let want = match p.kernel {
                Kernel::Crc32 => "slicing-by-8 tables",
                Kernel::DeepcamLanes => "not at this tier: lines decode one by one",
                _ => "scalar reference loop",
            };
            assert_eq!(p.strategy, want);
        }
    }
}
