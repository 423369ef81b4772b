//! Decoder plugins: baseline, gzip-baseline, CPU plugin, GPU plugin —
//! for each of the two workloads. These are the six bars of Figs. 8/10.

use crate::batch::Label;
use crate::{PipelineError, Result};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_compress::Level;
use sciml_data::serialize;
use sciml_gpusim::{decode_cosmo, decode_deepcam, Gpu};
use sciml_half::F16;
use std::sync::atomic::{AtomicU64, Ordering};

/// A decoded, preprocessed, FP16 sample ready for batching.
///
/// Deliberately not `Clone`: a sample tensor is megabytes at paper
/// scale, and the pipeline's zero-copy path never duplicates one.
#[derive(Debug, PartialEq)]
pub struct DecodedSample {
    /// Channel-major FP16 tensor.
    pub data: Vec<F16>,
    /// Training label.
    pub label: Label,
}

/// The plugin interface the pipeline's decode pool calls.
pub trait DecoderPlugin: Send + Sync {
    /// Decodes one sample's bytes into a training-ready tensor.
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample>;

    /// Decodes one sample directly into `out` (a slot of a pooled batch
    /// tensor), returning only the label. `out` must be exactly the
    /// sample length; a mismatch is a typed error, never a panic, and
    /// on success every slot of `out` is written.
    ///
    /// The default implementation falls back to [`DecoderPlugin::decode`]
    /// plus a copy, so external plugins keep working unchanged; the
    /// built-in plugins all decode in place.
    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let d = self.decode(bytes)?;
        if d.data.len() != out.len() {
            return Err(
                sciml_codec::CodecError::Inconsistent("output slice length mismatch").into(),
            );
        }
        out.copy_from_slice(&d.data);
        Ok(d.label)
    }

    /// Human-readable name (for stats and figures).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// CosmoFlow plugins
// ---------------------------------------------------------------------

/// Baseline: uncompressed f32 TFRecord payload, per-voxel op on the CPU.
pub struct CosmoBaseline {
    /// Preprocessing operator (the benchmark uses `Log1p`).
    pub op: Op,
}

impl DecoderPlugin for CosmoBaseline {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let sample = serialize::cosmo_from_payload(bytes)?;
        let data = cf::baseline_preprocess(&sample, self.op);
        Ok(DecodedSample {
            data,
            label: Label::Cosmo(sample.label.as_array()),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let sample = serialize::cosmo_from_payload(bytes)?;
        cf::baseline_preprocess_into(&sample, self.op, out)?;
        Ok(Label::Cosmo(sample.label.as_array()))
    }

    fn name(&self) -> &'static str {
        "cosmo-baseline"
    }
}

/// gzip baseline: the payload is gzip-compressed; decompression happens
/// on the host CPU (there is no GPU gunzip), then the baseline path runs.
pub struct CosmoGzip {
    /// Preprocessing operator.
    pub op: Op,
}

impl CosmoGzip {
    /// Prepares a gzip-compressed payload (dataset preparation helper).
    pub fn compress_payload(payload: &[u8]) -> Vec<u8> {
        sciml_compress::gzip_compress(payload, Level::Default)
    }
}

impl DecoderPlugin for CosmoGzip {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let payload = sciml_compress::gzip_decompress(bytes)?;
        let sample = serialize::cosmo_from_payload(&payload)?;
        let data = cf::baseline_preprocess(&sample, self.op);
        Ok(DecodedSample {
            data,
            label: Label::Cosmo(sample.label.as_array()),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        // The decompressed payload is still an allocation (there is no
        // streaming gunzip), but the tensor itself decodes in place.
        let payload = sciml_compress::gzip_decompress(bytes)?;
        let sample = serialize::cosmo_from_payload(&payload)?;
        cf::baseline_preprocess_into(&sample, self.op, out)?;
        Ok(Label::Cosmo(sample.label.as_array()))
    }

    fn name(&self) -> &'static str {
        "cosmo-gzip"
    }
}

/// CPU plugin: custom LUT encoding with fused op, decoded in parallel.
pub struct CosmoPluginCpu {
    /// Preprocessing operator (fused into the table).
    pub op: Op,
}

impl DecoderPlugin for CosmoPluginCpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let enc = cf::EncodedCosmo::from_bytes(bytes)?;
        let data = cf::decode_parallel(&enc, self.op)?;
        Ok(DecodedSample {
            data,
            label: Label::Cosmo(enc.label),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let enc = cf::EncodedCosmo::from_bytes(bytes)?;
        cf::decode_parallel_into(&enc, self.op, out)?;
        Ok(Label::Cosmo(enc.label))
    }

    fn name(&self) -> &'static str {
        "cosmo-plugin-cpu"
    }
}

/// GPU plugin: the same encoding decoded on the SIMT simulator; the
/// simulated device time accumulates for the platform model.
pub struct CosmoPluginGpu {
    /// Simulated device.
    pub gpu: Gpu,
    /// Preprocessing operator (fused).
    pub op: Op,
    /// Accumulated simulated device nanoseconds.
    pub device_ns: AtomicU64,
}

impl CosmoPluginGpu {
    /// Creates a GPU plugin over a simulated device.
    pub fn new(gpu: Gpu, op: Op) -> Self {
        Self {
            gpu,
            op,
            device_ns: AtomicU64::new(0),
        }
    }

    /// Simulated device time spent decoding, in seconds.
    pub fn device_seconds(&self) -> f64 {
        self.device_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl DecoderPlugin for CosmoPluginGpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let enc = cf::EncodedCosmo::from_bytes(bytes)?;
        let (data, _, time) = decode_cosmo(&self.gpu, &enc, self.op)?;
        self.device_ns
            .fetch_add((time * 1e9) as u64, Ordering::Relaxed);
        Ok(DecodedSample {
            data,
            label: Label::Cosmo(enc.label),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let enc = cf::EncodedCosmo::from_bytes(bytes)?;
        let (_, time) = sciml_gpusim::decode_cosmo_into(&self.gpu, &enc, self.op, out)?;
        self.device_ns
            .fetch_add((time * 1e9) as u64, Ordering::Relaxed);
        Ok(Label::Cosmo(enc.label))
    }

    fn name(&self) -> &'static str {
        "cosmo-plugin-gpu"
    }
}

// ---------------------------------------------------------------------
// DeepCAM plugins
// ---------------------------------------------------------------------

/// Baseline: h5lite (HDF5 stand-in) f32 data, per-pixel normalize on the
/// host, cast to FP16.
pub struct DeepCamBaseline {
    /// Per-channel normalization operator.
    pub op: Op,
}

impl DecoderPlugin for DeepCamBaseline {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let sample = serialize::deepcam_from_h5(bytes)?;
        let data = sample
            .data
            .iter()
            .map(|&v| F16::from_f32(self.op.apply(v)))
            .collect();
        Ok(DecodedSample {
            data,
            label: Label::Mask(sample.mask),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let sample = serialize::deepcam_from_h5(bytes)?;
        if sample.data.len() != out.len() {
            return Err(
                sciml_codec::CodecError::Inconsistent("output slice length mismatch").into(),
            );
        }
        for (o, &v) in out.iter_mut().zip(&sample.data) {
            *o = F16::from_f32(self.op.apply(v));
        }
        Ok(Label::Mask(sample.mask))
    }

    fn name(&self) -> &'static str {
        "deepcam-baseline"
    }
}

/// gzip-compressed h5lite baseline.
pub struct DeepCamGzip {
    /// Per-channel normalization operator.
    pub op: Op,
}

impl DecoderPlugin for DeepCamGzip {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let payload = sciml_compress::gzip_decompress(bytes)?;
        DeepCamBaseline { op: self.op }.decode(&payload)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let payload = sciml_compress::gzip_decompress(bytes)?;
        DeepCamBaseline { op: self.op }.decode_into(&payload, out)
    }

    fn name(&self) -> &'static str {
        "deepcam-gzip"
    }
}

/// CPU plugin: differential codec decoded straight from the fetched
/// bytes, with one rayon task per group of 8 lines.
pub struct DeepCamPluginCpu {
    /// Fused operator applied at emission.
    pub op: Op,
}

impl DeepCamPluginCpu {
    /// The allocation-free part of [`DecoderPlugin::decode_into`]: parses
    /// `bytes` in place and decodes the tensor into `out`, returning the
    /// view so the caller can copy out the mask.
    fn decode_tensor_into<'a>(
        &self,
        bytes: &'a [u8],
        out: &mut [F16],
    ) -> Result<dc::DeepCamView<'a>> {
        let view = dc::DeepCamView::parse(bytes)?;
        dc::decode_parallel_into(&view, self.op, out)?;
        Ok(view)
    }
}

impl DecoderPlugin for DeepCamPluginCpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let view = dc::DeepCamView::parse(bytes)?;
        let data = dc::decode_parallel(&view, self.op)?;
        Ok(DecodedSample {
            data,
            label: Label::Mask(view.mask.to_vec()),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let view = self.decode_tensor_into(bytes, out)?;
        Ok(Label::Mask(view.mask.to_vec()))
    }

    fn name(&self) -> &'static str {
        "deepcam-plugin-cpu"
    }
}

/// GPU plugin: differential codec on the SIMT simulator.
pub struct DeepCamPluginGpu {
    /// Simulated device.
    pub gpu: Gpu,
    /// Fused operator.
    pub op: Op,
    /// Accumulated simulated device nanoseconds.
    pub device_ns: AtomicU64,
}

impl DeepCamPluginGpu {
    /// Creates a GPU plugin over a simulated device.
    pub fn new(gpu: Gpu, op: Op) -> Self {
        Self {
            gpu,
            op,
            device_ns: AtomicU64::new(0),
        }
    }

    /// Simulated device time spent decoding, in seconds.
    pub fn device_seconds(&self) -> f64 {
        self.device_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl DecoderPlugin for DeepCamPluginGpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let view = dc::DeepCamView::parse(bytes)?;
        let (data, _, time) = decode_deepcam(&self.gpu, &view, self.op)?;
        self.device_ns
            .fetch_add((time * 1e9) as u64, Ordering::Relaxed);
        Ok(DecodedSample {
            data,
            label: Label::Mask(view.mask.to_vec()),
        })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        let view = dc::DeepCamView::parse(bytes)?;
        let (_, time) = sciml_gpusim::decode_deepcam_into(&self.gpu, &view, self.op, out)?;
        self.device_ns
            .fetch_add((time * 1e9) as u64, Ordering::Relaxed);
        Ok(Label::Mask(view.mask.to_vec()))
    }

    fn name(&self) -> &'static str {
        "deepcam-plugin-gpu"
    }
}

/// Validates that a plugin family produces consistent outputs: used by
/// integration tests to confirm baseline and plugin paths agree where
/// they must.
pub fn assert_same_shape(a: &DecodedSample, b: &DecodedSample) -> Result<()> {
    if a.data.len() != b.data.len() {
        return Err(PipelineError::Config("decoded sample shapes differ"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
    use sciml_gpusim::GpuSpec;

    fn cosmo_payloads() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let raw = serialize::cosmo_to_payload(&s);
        let gz = CosmoGzip::compress_payload(&raw);
        let enc = cf::encode(&s).to_bytes();
        (raw, gz, enc)
    }

    #[test]
    fn cosmo_plugins_agree_bitwise() {
        let (raw, gz, enc) = cosmo_payloads();
        let op = Op::Log1p;
        let base = CosmoBaseline { op }.decode(&raw).unwrap();
        let gzip = CosmoGzip { op }.decode(&gz).unwrap();
        let cpu = CosmoPluginCpu { op }.decode(&enc).unwrap();
        let gpu = CosmoPluginGpu::new(Gpu::new(GpuSpec::V100), op)
            .decode(&enc)
            .unwrap();
        assert_eq!(base, gzip);
        assert_eq!(
            base.data, cpu.data,
            "fused CPU plugin must be bit-identical"
        );
        assert_eq!(base.data, gpu.data, "GPU plugin must be bit-identical");
        assert_eq!(base.label, cpu.label);
    }

    #[test]
    fn cosmo_encoded_is_smaller_than_raw_and_gzip_decodes_on_cpu_only() {
        let (raw, gz, enc) = cosmo_payloads();
        assert!(
            enc.len() * 3 < raw.len(),
            "enc {} raw {}",
            enc.len(),
            raw.len()
        );
        // gzip is also smaller but must round-trip through the CPU path.
        assert!(gz.len() < raw.len());
    }

    #[test]
    fn deepcam_plugins_roundtrip_and_masks_survive() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let h5 = serialize::deepcam_to_h5(&s).unwrap();
        let op = Op::Identity;
        let base = DeepCamBaseline { op }.decode(&h5).unwrap();
        let gz = DeepCamGzip { op }
            .decode(&sciml_compress::gzip_compress(&h5, Level::Default))
            .unwrap();
        assert_eq!(base, gz);

        let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
        let bytes = enc.to_bytes();
        let cpu = DeepCamPluginCpu { op }.decode(&bytes).unwrap();
        let gpu = DeepCamPluginGpu::new(Gpu::new(GpuSpec::A100), op)
            .decode(&bytes)
            .unwrap();
        assert_eq!(cpu.data, gpu.data);
        assert_eq!(cpu.label, Label::Mask(s.mask.clone()));
        assert_same_shape(&base, &cpu).unwrap();
        // The packed wire form decodes to the same sample, in place too.
        let packed = enc.to_bytes_packed();
        assert_eq!(DeepCamPluginCpu { op }.decode(&packed).unwrap(), cpu);
        let mut out = vec![F16::ONE; cpu.data.len()];
        let label = DeepCamPluginCpu { op }
            .decode_into(&packed, &mut out)
            .unwrap();
        assert_eq!((out, label), (cpu.data, cpu.label));
    }

    #[test]
    fn gpu_plugins_accumulate_device_time() {
        let (_, _, enc) = cosmo_payloads();
        let plugin = CosmoPluginGpu::new(Gpu::new(GpuSpec::V100), Op::Log1p);
        plugin.decode(&enc).unwrap();
        plugin.decode(&enc).unwrap();
        assert!(plugin.device_seconds() > 0.0);
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        assert!(CosmoBaseline { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(CosmoGzip { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(CosmoPluginCpu { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(DeepCamBaseline { op: Op::Identity }
            .decode(b"junk")
            .is_err());
        assert!(DeepCamPluginCpu { op: Op::Identity }
            .decode(b"junk")
            .is_err());
    }
}
