//! Metrics, provenance and the result lines.

use crate::check::Tally;
use crate::layers::{LayerStat, Replays};
use crate::measure::{median, Options, Outcome, Window};
use crate::workload::Env;
use sciml_pipeline::PipelineConfig;
use sciml_store::EncodingCounts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("samples_per_s", "1/s"),
    ("batch_wait_p50_ms", "ms"),
    ("batch_wait_p95_ms", "ms"),
    ("cpu_ms_per_sample", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("store.fetch.count", "count"),
    ("store.fetch.busy_ms", "ms"),
    ("store.fetch.p50_us", "us"),
    ("store.fetch.p99_us", "us"),
    ("store.fetch.util", "ratio"),
    ("store.entries.raw", "count"),
    ("store.entries.gzip", "count"),
    ("store.entries.pack", "count"),
    ("store.ratio", "ratio"),
    ("store.crc.gb_per_s", "GB/s"),
    ("store.decompress.gzip.gb_per_s", "GB/s"),
    ("store.decompress.pack.gb_per_s", "GB/s"),
    ("codec.decode.count", "count"),
    ("codec.decode.busy_ms", "ms"),
    ("codec.decode.p50_us", "us"),
    ("codec.decode.p99_us", "us"),
    ("codec.decode.util", "ratio"),
    ("codec.decode_1t.gb_per_s", "GB/s"),
    ("pipeline.batches", "count"),
    ("pipeline.wait.busy_ms", "ms"),
    ("pipeline.pool.hit_ratio", "ratio"),
    ("pipeline.pool.resident_mib", "MiB"),
    ("serve.client.fetch.count", "count"),
    ("serve.client.fetch.util", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.client.retries", "count"),
    ("serve.rejected", "count"),
    ("stage.shards", "count"),
    ("stage.bytes", "B"),
    ("stage.local_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_spans", "count"),
];

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What the traced window yields beyond the untraced one.
pub struct LayerInputs {
    /// The traced window.
    pub traced: Window,
    /// Per-layer span figures of the traced window.
    pub stats: BTreeMap<&'static str, LayerStat>,
    /// Store entries per encoding.
    pub census: EncodingCounts,
    /// Raw sample bytes over shard file bytes.
    pub ratio: f64,
    /// Single-thread replay rates.
    pub replays: Replays,
    /// Spans the tracer overwrote.
    pub dropped: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Splits `all` into the metrics `contract` names, in its order, and
/// the rest.
fn split(all: Vec<Metric>, contract: &[(&str, &str)]) -> (Vec<Metric>, Vec<Metric>) {
    let mut by_name: BTreeMap<&str, Metric> = all.into_iter().map(|m| (m.name, m)).collect();
    let listed = contract
        .iter()
        .map(|(name, unit)| {
            let m = by_name
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            assert_eq!(&m.unit, unit, "unit of {name}");
            m
        })
        .collect();
    (listed, by_name.into_values().collect())
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The untraced window's figures, every one of them.
fn window_metrics(w: &Window, tally: &Tally) -> Vec<Metric> {
    let waits = w.quiet_waits_ns();
    let mut out = vec![
        metric("samples_per_s", "1/s", w.samples_per_s()),
        metric("batch_wait_p50_ms", "ms", w.wait_ms(0.50)),
        metric("batch_wait_p95_ms", "ms", w.wait_ms(0.95)),
        metric("cpu_ms_per_sample", "ms", w.cpu_ms_per_sample()),
        metric("peak_rss_mib", "MiB", w.peak_rss_mib()),
        metric(
            "failed_fraction",
            "ratio",
            ratio(tally.failed(), tally.attempted()),
        ),
        metric("window.samples", "count", w.samples as f64),
        metric("window.batches", "count", w.batches as f64),
        metric("window.quiet_waits", "count", waits.len() as f64),
        metric("window.wall_s", "s", w.wall_s),
        metric("window.slices", "count", w.slices.len() as f64),
        metric(
            "window.quiet_slices",
            "count",
            w.quiet_slices().len() as f64,
        ),
        metric(
            "window.steal",
            "ratio",
            w.slices.iter().map(|s| s.steal * s.wall_s).sum::<f64>() / w.wall_s.max(1e-9),
        ),
    ];
    if !w.stage.stage_s.is_empty() {
        out.push(metric("stage_s", "s", median(&w.stage.stage_s)));
        out.push(metric(
            "stage.cycles",
            "count",
            w.stage.stage_s.len() as f64,
        ));
    }
    out
}

/// End-to-end metrics of an untraced run, and the report-only rest.
pub fn end_to_end(w: &Window, setup_s: f64, tally: &Tally) -> (Vec<Metric>, Vec<Metric>) {
    let mut all = window_metrics(w, tally);
    all.push(metric("setup_s", "s", setup_s));
    split(all, &END_TO_END)
}

/// Per-layer metrics of a traced run, and the report-only rest: the
/// untraced window's end-to-end figures, and the layer times that only
/// some workloads have.
pub fn per_layer(untraced: &Window, l: &LayerInputs, tally: &Tally) -> (Vec<Metric>, Vec<Metric>) {
    let t = &l.traced;
    let cfg = PipelineConfig::default();
    let readers_ns = t.wall_s * 1e9 * cfg.reader_threads as f64;
    let decoders_ns = t.wall_s * 1e9 * cfg.decode_threads as f64;
    let layer = |name: &str| l.stats.get(name).copied().unwrap_or_default();
    let store = layer("store.fetch");
    let codec = layer("codec.decode");
    let client = layer("serve.client.fetch");
    let stage_fetch = layer("stage.fetch");
    let stage_one = layer("stage.stage_one");
    let wait = layer("pipeline.wait");
    let spans: u64 = l.stats.values().map(|s| s.count).sum();
    let remote_requests = client.count + stage_fetch.count;
    let untraced_sps = untraced.samples_per_s();

    let mut all = vec![
        metric("store.fetch.count", "count", store.count as f64),
        metric("store.fetch.busy_ms", "ms", ms(store.self_ns)),
        metric("store.fetch.p50_us", "us", us(store.p50_ns)),
        metric("store.fetch.p99_us", "us", us(store.p99_ns)),
        metric(
            "store.fetch.util",
            "ratio",
            store.self_ns as f64 / readers_ns,
        ),
        metric("store.entries.raw", "count", l.census.raw as f64),
        metric("store.entries.gzip", "count", l.census.gzip as f64),
        metric("store.entries.pack", "count", l.census.pack as f64),
        metric("store.ratio", "ratio", l.ratio),
        metric("store.crc.gb_per_s", "GB/s", l.replays.crc),
        metric("store.decompress.gzip.gb_per_s", "GB/s", l.replays.gzip),
        metric("store.decompress.pack.gb_per_s", "GB/s", l.replays.pack),
        metric("codec.decode.count", "count", codec.count as f64),
        metric("codec.decode.busy_ms", "ms", ms(codec.self_ns)),
        metric("codec.decode.p50_us", "us", us(codec.p50_ns)),
        metric("codec.decode.p99_us", "us", us(codec.p99_ns)),
        metric(
            "codec.decode.util",
            "ratio",
            codec.self_ns as f64 / decoders_ns,
        ),
        metric("codec.decode_1t.gb_per_s", "GB/s", l.replays.decode),
        metric("pipeline.batches", "count", t.batches as f64),
        metric("pipeline.wait.busy_ms", "ms", ms(wait.self_ns)),
        metric(
            "pipeline.pool.hit_ratio",
            "ratio",
            ratio(t.pool_hits, t.pool_hits + t.pool_misses),
        ),
        metric(
            "pipeline.pool.resident_mib",
            "MiB",
            t.pool_resident_bytes as f64 / (1u64 << 20) as f64,
        ),
        metric("serve.client.fetch.count", "count", client.count as f64),
        metric(
            "serve.client.fetch.util",
            "ratio",
            client.self_ns as f64 / readers_ns,
        ),
        metric(
            "serve.cache.hit_ratio",
            "ratio",
            ratio(
                t.serve.cache_hits,
                t.serve.cache_hits + t.serve.cache_misses,
            ),
        ),
        metric("serve.client.retries", "count", t.serve.retries as f64),
        metric("serve.rejected", "count", t.serve.rejected as f64),
        metric("stage.shards", "count", t.stage.shards as f64),
        metric("stage.bytes", "B", t.stage.bytes as f64),
        metric(
            "stage.local_hit_ratio",
            "ratio",
            ratio(
                t.stage.local_hits,
                t.stage.local_hits + t.stage.fallthroughs,
            ),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (untraced_sps - t.samples_per_s()) / untraced_sps.max(1e-9) * 100.0,
        ),
        metric("trace.dropped_spans", "count", l.dropped as f64),
        metric("trace.spans", "count", spans as f64),
        metric("trace.window_s", "s", t.wall_s),
        metric("trace.samples_per_s", "1/s", t.samples_per_s()),
        // Layer times that only the remote and stage paths have: zero
        // elsewhere, so they are reported here and not gated.
        metric("serve.client.fetch.busy_ms", "ms", ms(client.self_ns)),
        metric("serve.client.fetch.p50_us", "us", us(client.p50_ns)),
        metric("serve.client.fetch.p99_us", "us", us(client.p99_ns)),
        metric("serve.handle.busy_ms", "ms", ms(t.serve.request_ns)),
        metric(
            "net.rtt.self_us",
            "us",
            (client.self_ns + stage_fetch.self_ns).saturating_sub(t.serve.request_ns) as f64
                / 1e3
                / t.serve.requests.max(1) as f64,
        ),
        metric("serve.requests", "count", t.serve.requests as f64),
        metric("serve.client.requests", "count", remote_requests as f64),
        metric("stage.fetch.busy_ms", "ms", ms(stage_fetch.self_ns)),
        metric("stage.write.self_ms", "ms", ms(stage_one.self_ns)),
        metric("stage.stage_one.count", "count", stage_one.count as f64),
    ];
    if !t.stage.stage_s.is_empty() {
        all.push(metric(
            "stage.cycles",
            "count",
            t.stage.stage_s.len() as f64,
        ));
    }
    let (listed, mut rest) = split(all, &PER_LAYER);
    rest.extend(window_metrics(untraced, tally));
    (listed, rest)
}

/// Provenance every result records.
pub fn provenance(env: &Env, opts: &Options) -> Vec<(&'static str, String)> {
    let cfg = env.spec.pipeline_config(opts.seed, 0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit", crate::procfs::git_commit()),
        ("nproc", nproc.to_string()),
        ("simd", sciml_simd::active_level().name().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("workload", env.spec.name.to_string()),
        ("seed", opts.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("shape", env.spec.shape_text()),
        ("dataset_samples", env.spec.samples.to_string()),
        ("encoding", env.spec.encoding.name().to_string()),
        ("path", format!("{:?}", env.spec.path).to_lowercase()),
        ("batch_size", cfg.batch_size.to_string()),
        ("reader_threads", cfg.reader_threads.to_string()),
        ("decode_threads", cfg.decode_threads.to_string()),
        ("prefetch", cfg.prefetch.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
    ]
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: correctness, counts and the mode's metrics.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.tally.attempted(),
        o.tally.failed(),
        metrics_object(&o.metrics)
    )
}

/// The full record: provenance, counts, every figure.
pub fn full_record(o: &Outcome) -> String {
    let provenance: Vec<String> = o
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let slices: Vec<String> = o
        .slices
        .iter()
        .map(|s| {
            format!(
                "{{\"samples\": {}, \"waits\": {}, \"wall_s\": {}, \"cpu_ms\": {}, \
                 \"peak_rss_kib\": {}, \"steal\": {}, \"full\": {}}}",
                s.samples,
                s.waits_ns.len(),
                number(s.wall_s),
                number(s.cpu_ms),
                s.peak_rss_kib,
                number(s.steal),
                s.full
            )
        })
        .collect();
    format!(
        "{{\"provenance\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"error\": {}, \"metrics\": {}, \"extra\": {}, \"slices\": [{}]}}",
        provenance.join(", "),
        o.correct(),
        o.tally.attempted(),
        o.tally.failed(),
        o.error.as_deref().map_or("null".to_string(), quote),
        metrics_object(&o.metrics),
        metrics_object(&o.extra),
        slices.join(", "),
    )
}

/// Writes the full record under `root/results`.
pub fn write_result(root: &Path, opts: &Options, o: &Outcome) -> Result<PathBuf, String> {
    let dir = root.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.spec.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, full_record(o) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_strings_are_escaped() {
        assert_eq!(number(331.234_567_890_123), "331.234567890123");
        assert_eq!(number(3.0), "3");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn contract_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for (list, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let start = compact.find(&format!("\"{key}\"")).expect(key);
            let section = &compact[start..];
            let section = &section[..section.find(']').expect("list end")];
            let names: Vec<&str> = section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name end")])
                .collect();
            let units: Vec<&str> = section
                .split("\"unit\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("unit end")])
                .collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            let want_units: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(names, want, "{key} names");
            assert_eq!(units, want_units, "{key} units");
        }
    }
}
