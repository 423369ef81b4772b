//! Layer measurement from outside the program: wrappers that record
//! `sciml_obs::Tracer` spans around the public source and decoder
//! calls, the analysis that turns spans into per-layer figures, and
//! single-thread replays of the workload's own payloads.

use crate::workload::{Env, Shape};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_half::F16;
use sciml_obs::{TraceEvent, Tracer};
use sciml_pipeline::{DecodedSample, DecoderPlugin, Label, SampleSource};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span category of every benchmark span.
pub const CAT: &str = "bench";

thread_local! {
    /// Set on the benchmark's staging thread. The stager and the
    /// staging source's fall-through share one backing client, so the
    /// thread tells a staging copy from a training read.
    static STAGING_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the staging thread.
pub fn mark_staging_thread() {
    STAGING_THREAD.with(|s| s.set(true));
}

/// A source whose fetches record a span named after its layer.
pub struct Traced<S> {
    inner: S,
    tracer: Arc<Tracer>,
    layer: &'static str,
}

impl<S: SampleSource> Traced<S> {
    /// Wraps `inner`; fetches record `layer` spans while `tracer` is on.
    pub fn new(inner: S, tracer: &Arc<Tracer>, layer: &'static str) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
            layer,
        }
    }

    fn layer(&self) -> &'static str {
        if STAGING_THREAD.with(Cell::get) {
            "stage.fetch"
        } else {
            self.layer
        }
    }
}

impl<S: SampleSource> SampleSource for Traced<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, idx: usize) -> sciml_pipeline::Result<Vec<u8>> {
        let _span = self.tracer.span(CAT, self.layer());
        self.inner.fetch(idx)
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        let _span = self.tracer.span(CAT, self.layer());
        self.inner.fetch_into(idx, buf)
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// A decoder whose calls record `codec.decode` spans.
pub struct TracedPlugin {
    inner: Arc<dyn DecoderPlugin>,
    tracer: Arc<Tracer>,
}

impl TracedPlugin {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn DecoderPlugin>, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl DecoderPlugin for TracedPlugin {
    fn decode(&self, bytes: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        let _span = self.tracer.span(CAT, "codec.decode");
        self.inner.decode(bytes)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> sciml_pipeline::Result<Label> {
        let _span = self.tracer.span(CAT, "codec.decode");
        self.inner.decode_into(bytes, out)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A source that flips one byte of its `target`-th fetched payload
/// (counting from 0): the benchmark's self-test plants it to prove the
/// correctness gate fails the run. The byte is the first from the middle
/// of the payload whose flip changes what `plugin` decodes, so the
/// planted fault is never one the format ignores.
pub struct FlipOne<S> {
    inner: S,
    target: u64,
    plugin: Arc<dyn DecoderPlugin>,
    fetches: AtomicU64,
}

impl<S: SampleSource> FlipOne<S> {
    /// Wraps `inner`, corrupting fetch number `target`.
    pub fn new(inner: S, target: u64, plugin: Arc<dyn DecoderPlugin>) -> Self {
        Self {
            inner,
            target,
            plugin,
            fetches: AtomicU64::new(0),
        }
    }

    /// Digest of what `bytes` decode to, or `None` when they do not.
    fn decoded(&self, bytes: &[u8]) -> Option<u64> {
        let d = self.plugin.decode(bytes).ok()?;
        Some(crate::check::sample_digest(&d.data, &d.label))
    }
}

impl<S: SampleSource> SampleSource for FlipOne<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, idx: usize) -> sciml_pipeline::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.fetch_into(idx, &mut buf)?;
        Ok(buf)
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        self.inner.fetch_into(idx, buf)?;
        if self.fetches.fetch_add(1, Ordering::Relaxed) == self.target {
            let original = self.decoded(buf);
            for offset in 0..buf.len() {
                let at = (buf.len() / 2 + offset) % buf.len();
                buf[at] ^= 0x5A;
                if self.decoded(buf) != original {
                    break;
                }
                buf[at] ^= 0x5A;
            }
        }
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// One layer's figures over a traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded.
    pub count: u64,
    /// Self time: span time minus the nested benchmark spans on the
    /// same thread, nanoseconds.
    pub self_ns: u64,
    /// Median span duration, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile span duration, nanoseconds.
    pub p99_ns: u64,
}

/// The `q`-quantile of sorted values (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-layer figures from the spans of one window. A span's parent is
/// the innermost span on the same thread that encloses it.
pub fn layer_stats(events: &[TraceEvent]) -> BTreeMap<&'static str, LayerStat> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns))
    });
    let mut child_ns = vec![0u64; events.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        let end = |j: usize| events[j].start_ns + events[j].dur_ns;
        while let Some(&top) = open.last() {
            if events[top].tid != e.tid || end(top) <= e.start_ns {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            if e.start_ns + e.dur_ns <= end(parent) {
                child_ns[parent] += e.dur_ns;
            }
        }
        open.push(i);
    }
    let mut durations: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
    for (e, child) in events.iter().zip(child_ns) {
        let entry = durations.entry(e.name).or_default();
        entry.0.push(e.dur_ns);
        entry.1 += e.dur_ns.saturating_sub(child);
    }
    durations
        .into_iter()
        .map(|(name, (mut d, self_ns))| {
            d.sort_unstable();
            let stat = LayerStat {
                count: d.len() as u64,
                self_ns,
                p50_ns: quantile(&d, 0.50),
                p99_ns: quantile(&d, 0.99),
            };
            (name, stat)
        })
        .collect()
}

/// Single-thread replay rates, GB/s (10⁹ bytes per second).
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `crc32` over the stored payloads, bytes in.
    pub crc: f64,
    /// `gzip_decompress`, raw bytes out.
    pub gzip: f64,
    /// `sciml_pack::unpack`, raw bytes out.
    pub pack: f64,
    /// Codec decode on one thread, FP16 bytes out.
    pub decode: f64,
}

/// Bytes of the workload's payloads each replay cycles through.
const REPLAY_BYTES: usize = 8 << 20;

/// Least time each replay measures.
const REPLAY_TIME: Duration = Duration::from_millis(250);

/// Runs `pass` until `REPLAY_TIME` has elapsed; `pass` returns the bytes
/// it processed. Returns GB/s.
fn rate(mut pass: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut bytes = 0u64;
    while start.elapsed() < REPLAY_TIME {
        bytes += pass()?;
    }
    Ok(bytes as f64 / start.elapsed().as_secs_f64() / 1e9)
}

/// Packs `raw` with the element width that trial-encodes smaller, as
/// the store's pack encoding does.
fn pack(raw: &[u8]) -> Result<Vec<u8>, String> {
    let trial = &raw[..raw.len().min(8192)];
    let len = |w| sciml_pack::packed_len(trial, w).map_err(|e| format!("pack trial: {e}"));
    let width = if len(2)? < len(1)? { 2 } else { 1 };
    sciml_pack::pack(raw, width).map_err(|e| format!("pack: {e}"))
}

/// Replays the workload's payloads through the store's integrity and
/// decompression functions and the codec, one thread at a time. The
/// gzip and pack forms are encoded here, at the store's gzip level,
/// whatever encoding the store itself chose. `gzip_stored` says whether
/// the store keeps its entries gzip-compressed, which decides the bytes
/// the CRC runs over.
pub fn replay(env: &Env, gzip_stored: bool) -> Result<Replays, String> {
    let mut raw: Vec<&[u8]> = Vec::new();
    let mut total = 0;
    for s in &env.samples {
        if !raw.is_empty() && total + s.len() > REPLAY_BYTES {
            break;
        }
        total += s.len();
        raw.push(s);
    }
    let level = sciml_store::PackConfig::default().level;
    let gz: Vec<Vec<u8>> = raw
        .iter()
        .map(|r| sciml_compress::gzip_compress(r, level))
        .collect();
    let pk = raw.iter().map(|r| pack(r)).collect::<Result<Vec<_>, _>>()?;
    for ((r, g), p) in raw.iter().zip(&gz).zip(&pk) {
        let gunzipped = sciml_compress::gzip_decompress(g).map_err(|e| format!("gunzip: {e}"))?;
        let unpacked = sciml_pack::unpack(p).map_err(|e| format!("unpack: {e}"))?;
        if gunzipped != *r || unpacked != *r {
            return Err("replay payload does not round-trip".into());
        }
    }
    let raw_bytes: u64 = raw.iter().map(|r| r.len() as u64).sum();

    let stored: Vec<&[u8]> = if gzip_stored {
        gz.iter().map(Vec::as_slice).collect()
    } else {
        raw.clone()
    };
    let crc = rate(|| {
        let mut bytes = 0;
        for s in &stored {
            black_box(sciml_compress::crc32::crc32(black_box(s)));
            bytes += s.len() as u64;
        }
        Ok(bytes)
    })?;
    let gzip = rate(|| {
        for g in &gz {
            black_box(sciml_compress::gzip_decompress(g).map_err(|e| format!("gunzip: {e}"))?);
        }
        Ok(raw_bytes)
    })?;
    let pack = rate(|| {
        for p in &pk {
            black_box(sciml_pack::unpack(p).map_err(|e| format!("unpack: {e}"))?);
        }
        Ok(raw_bytes)
    })?;
    let op = env.spec.op();
    let mut out: Vec<F16> = Vec::new();
    let decode = rate(|| {
        let mut bytes = 0;
        for r in &raw {
            match env.spec.shape {
                Shape::Cosmo { .. } => {
                    let enc = cf::EncodedCosmo::from_bytes(r).map_err(|e| e.to_string())?;
                    out.resize(enc.voxels() * sciml_data::cosmoflow::N_REDSHIFTS, F16::ZERO);
                    cf::decode_into(&enc, op, &mut out).map_err(|e| e.to_string())?;
                }
                Shape::DeepCam { .. } => {
                    let enc = dc::EncodedDeepCam::from_bytes(r).map_err(|e| e.to_string())?;
                    out.resize(enc.n_values(), F16::ZERO);
                    dc::decode_into(&enc, op, &mut out).map_err(|e| e.to_string())?;
                }
            }
            black_box(&out);
            bytes += (out.len() * F16::BYTES) as u64;
        }
        Ok(bytes)
    })?;
    Ok(Replays {
        crc,
        gzip,
        pack,
        decode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: CAT,
            tid,
            start_ns,
            dur_ns,
            ids: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_on_the_same_thread() {
        let events = [
            ev("store.fetch", 1, 0, 100),
            ev("serve.client.fetch", 1, 10, 60),
            // Same interval on another thread: not a child.
            ev("codec.decode", 2, 20, 50),
            ev("store.fetch", 1, 200, 30),
        ];
        let stats = layer_stats(&events);
        let store = stats["store.fetch"];
        assert_eq!(store.count, 2);
        assert_eq!(store.self_ns, 40 + 30);
        assert_eq!(store.p50_ns, 30);
        assert_eq!(store.p99_ns, 100);
        assert_eq!(stats["serve.client.fetch"].self_ns, 60);
        assert_eq!(stats["codec.decode"].self_ns, 50);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.95), 95);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
