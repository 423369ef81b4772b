//! Timed windows over a set-up workload, and the run that ties set-up,
//! windows, replays and the report together.

use crate::check::{reference_digests, Ledger, Tally};
use crate::layers::{self, FlipOne, Traced, TracedPlugin, CAT};
use crate::procfs;
use crate::report::{self, Metric};
use crate::workload::{start_stager, DataPath, Env, Spec, STAGE_DIR};
use sciml_obs::Tracer;
use sciml_pipeline::{Batch, DecoderPlugin, Pipeline, SampleSource};
use sciml_serve::StatsSnapshot;
use sciml_store::StagingSource;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epochs a local or remote pipeline is launched with: more than any
/// window drains, so the window, not the pipeline, decides the end.
const OPEN_EPOCHS: usize = 1 << 20;

/// Longest the warm-up, or the finishing of the last epoch after the
/// window's time is up, may take before the run counts the epoch's
/// absent samples as missing and stops.
const GRACE: Duration = Duration::from_secs(60);

/// Spans the tracer keeps. The ring grows as spans arrive; a window
/// that records more reports them as dropped.
const TRACE_CAPACITY: usize = 1 << 22;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Data and shuffle seed.
    pub seed: u64,
    /// Length of each timed window, seconds.
    pub seconds: f64,
    /// Run the traced window and report per-layer metrics.
    pub trace: bool,
    /// Directory for work files, results and span files.
    pub root: PathBuf,
    /// Self-test seam: flip one byte of this fetch (counting from 0).
    pub flip_fetch: Option<u64>,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Delivery counts over every window.
    pub tally: Tally,
    /// The first error that ended a window early, if any.
    pub error: Option<String>,
    /// The metrics the mode reports, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures reported beside them and not gated.
    pub extra: Vec<Metric>,
    /// Provenance of the result.
    pub provenance: Vec<(&'static str, String)>,
    /// The untraced window's slices.
    pub slices: Vec<Slice>,
}

impl Outcome {
    /// True when every delivered sample was right and none was missing.
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.tally.failed() == 0 && self.tally.delivered > 0
    }

    /// The process exit code this outcome calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// Staging figures of the cycles inside a window.
#[derive(Debug, Default, Clone)]
pub struct StageTally {
    /// Per cycle: seconds from stager start until every shard staged.
    pub stage_s: Vec<f64>,
    /// Shards staged.
    pub shards: u64,
    /// Bytes of staged shard files.
    pub bytes: u64,
    /// Training reads served from the staged copy.
    pub local_hits: u64,
    /// Training reads that fell through to the server.
    pub fallthroughs: u64,
}

/// Server-side counters over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeDelta {
    /// Requests handled.
    pub requests: u64,
    /// Request handling time, nanoseconds.
    pub request_ns: u64,
    /// Hot-cache hits.
    pub cache_hits: u64,
    /// Hot-cache misses.
    pub cache_misses: u64,
    /// Connections rejected at admission.
    pub rejected: u64,
    /// Client retries.
    pub retries: u64,
}

/// One timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Samples delivered inside the window.
    pub samples: u64,
    /// Batches delivered inside the window.
    pub batches: u64,
    /// Window length, seconds.
    pub wall_s: f64,
    /// Process CPU time minus the consumer thread's, milliseconds.
    pub cpu_ms: f64,
    /// The window cut into slices of `SLICE`; the last one may be
    /// shorter.
    pub slices: Vec<Slice>,
    /// Pool checkouts served from the pool inside the window.
    pub pool_hits: u64,
    /// Pool checkouts that allocated inside the window.
    pub pool_misses: u64,
    /// Bytes the pool held at the end of the window.
    pub pool_resident_bytes: i64,
    /// Staging cycles (stage path).
    pub stage: StageTally,
    /// Server counters (remote and stage paths).
    pub serve: ServeDelta,
    /// Epochs checked for exactly-once delivery, warm-up included.
    pub epochs_checked: u64,
    /// Delivery counts, warm-up included.
    pub tally: Tally,
    /// The error that ended the window early, if any.
    pub error: Option<String>,
}

/// Length of the slices a window is cut into.
const SLICE: Duration = Duration::from_secs(1);

/// Waits the quiet slices must hold between them, so the 95th
/// percentile has at least ten waits beyond it.
const MIN_WAITS: usize = 200;

/// One slice of a window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Samples delivered in the slice.
    pub samples: u64,
    /// Slice length, seconds.
    pub wall_s: f64,
    /// Program CPU time in the slice, milliseconds.
    pub cpu_ms: f64,
    /// Peak RSS in the slice, KiB.
    pub peak_rss_kib: u64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the slice.
    pub steal: f64,
    /// The consumer's wait in `next_batch` for each batch, nanoseconds.
    pub waits_ns: Vec<u64>,
    /// Whether the slice ran the full `SLICE`.
    pub full: bool,
}

impl Window {
    /// The slices the end-to-end figures come from, in time order. On a
    /// shared host the hypervisor takes CPU time away in bursts that
    /// last seconds, and every figure of a slice it hits degrades with
    /// it. So the figures come from the full slices whose steal is at
    /// most the median slice's (at least half of them, all of them when
    /// steal is even), plus the next-quietest until they hold
    /// `MIN_WAITS` waits. A window shorter than a slice uses what it
    /// has.
    pub fn quiet_slices(&self) -> Vec<&Slice> {
        let mut full: Vec<(usize, &Slice)> = self
            .slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.full)
            .collect();
        if full.is_empty() {
            return self.slices.iter().collect();
        }
        full.sort_by(|a, b| a.1.steal.total_cmp(&b.1.steal));
        let median_steal = full[(full.len() - 1) / 2].1.steal;
        let mut waits = 0;
        let mut keep = 0;
        for (_, s) in &full {
            if s.steal > median_steal && waits >= MIN_WAITS {
                break;
            }
            waits += s.waits_ns.len();
            keep += 1;
        }
        full.truncate(keep);
        full.sort_by_key(|(i, _)| *i);
        full.into_iter().map(|(_, s)| s).collect()
    }

    fn quiet_median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let values: Vec<f64> = self.quiet_slices().into_iter().map(f).collect();
        median(&values)
    }

    /// Samples per second: the median over the quiet slices.
    pub fn samples_per_s(&self) -> f64 {
        self.quiet_median(|s| s.samples as f64 / s.wall_s.max(1e-9))
    }

    /// Program CPU milliseconds per delivered sample: the median over
    /// the quiet slices.
    pub fn cpu_ms_per_sample(&self) -> f64 {
        self.quiet_median(|s| s.cpu_ms / s.samples.max(1) as f64)
    }

    /// Peak RSS in MiB: the median of the quiet slices' peaks. A single
    /// peak depends on how many batches happen to be queued at one
    /// instant.
    pub fn peak_rss_mib(&self) -> f64 {
        self.quiet_median(|s| s.peak_rss_kib as f64 / 1024.0)
    }

    /// The waits of the quiet slices, in slice order, nanoseconds.
    pub fn quiet_waits_ns(&self) -> Vec<u64> {
        self.quiet_slices()
            .into_iter()
            .flat_map(|s| s.waits_ns.iter().copied())
            .collect()
    }

    /// The `q`-quantile of the quiet slices' waits, in milliseconds: the
    /// median over consecutive blocks of `MIN_WAITS` waits of each
    /// block's quantile (one block when there are fewer). Each block
    /// keeps at least ten waits beyond its 95th percentile, and the
    /// median over blocks keeps one stalled second from setting the
    /// tail of the whole window.
    pub fn wait_ms(&self, q: f64) -> f64 {
        let waits = self.quiet_waits_ns();
        let blocks = (waits.len() / MIN_WAITS).max(1);
        let per_block: Vec<f64> = (0..blocks)
            .map(|b| {
                let end = if b + 1 == blocks {
                    waits.len()
                } else {
                    (b + 1) * MIN_WAITS
                };
                let mut block = waits[b * MIN_WAITS..end].to_vec();
                block.sort_unstable();
                crate::layers::quantile(&block, q) as f64 / 1e6
            })
            .collect();
        median(&per_block)
    }
}

/// CPU time of the process minus the calling (consumer) thread's: the
/// consumer's time is the benchmark's checking, not the program's work.
fn program_cpu_ms() -> Result<f64, String> {
    Ok(procfs::process_cpu_ms()? - procfs::thread_cpu_ms()?)
}

/// Readings of a window in progress, taken on the consumer thread.
struct Probe {
    start: Instant,
    cpu_ms: f64,
    slice: Slice,
    slice_start: Instant,
    slice_cpu_ms: f64,
    slice_steal: (u64, u64),
    slices: Vec<Slice>,
}

impl Probe {
    fn start() -> Result<Probe, String> {
        procfs::release_free_heap();
        procfs::reset_peak_rss()?;
        let cpu_ms = program_cpu_ms()?;
        let start = Instant::now();
        Ok(Probe {
            start,
            cpu_ms,
            slice: Slice::default(),
            slice_start: start,
            slice_cpu_ms: cpu_ms,
            slice_steal: procfs::host_steal_ticks()?,
            slices: Vec::new(),
        })
    }

    /// Counts delivered samples and the waits for them, closing the
    /// slice once it has run `SLICE`.
    fn delivered(&mut self, samples: u64, waits_ns: &[u64]) -> Result<(), String> {
        self.slice.samples += samples;
        self.slice.waits_ns.extend_from_slice(waits_ns);
        if self.slice_start.elapsed() >= SLICE {
            self.close_slice(true)?;
        }
        Ok(())
    }

    fn close_slice(&mut self, full: bool) -> Result<(), String> {
        let cpu = program_cpu_ms()?;
        let steal = procfs::host_steal_ticks()?;
        let (s0, t0) = self.slice_steal;
        let mut slice = std::mem::take(&mut self.slice);
        slice.wall_s = self.slice_start.elapsed().as_secs_f64();
        slice.cpu_ms = cpu - self.slice_cpu_ms;
        slice.peak_rss_kib = procfs::peak_rss_kib()?;
        slice.steal = (steal.0 - s0) as f64 / (steal.1 - t0).max(1) as f64;
        slice.full = full;
        self.slices.push(slice);
        procfs::reset_peak_rss()?;
        self.slice_steal = steal;
        self.slice_start = Instant::now();
        self.slice_cpu_ms = cpu;
        Ok(())
    }

    /// Fills the window's wall time, CPU and slices.
    fn finish(mut self, w: &mut Window) -> Result<(), String> {
        if self.slice.samples > 0 {
            self.close_slice(false)?;
        }
        w.wall_s = self.start.elapsed().as_secs_f64();
        w.cpu_ms = program_cpu_ms()? - self.cpu_ms;
        w.slices = self.slices;
        Ok(())
    }
}

fn serve_reading(env: &Env) -> Option<(StatsSnapshot, u64)> {
    env.remote
        .as_ref()
        .map(|r| (r.server.stats(), r.client.retries()))
}

fn serve_delta(before: Option<(StatsSnapshot, u64)>, env: &Env) -> ServeDelta {
    match (before, serve_reading(env)) {
        (Some((a, ra)), Some((b, rb))) => ServeDelta {
            requests: b.requests - a.requests,
            request_ns: b.request_ns - a.request_ns,
            cache_hits: b.cache_hits - a.cache_hits,
            cache_misses: b.cache_misses - a.cache_misses,
            rejected: b.rejected_connections - a.rejected_connections,
            retries: rb - ra,
        },
        _ => ServeDelta::default(),
    }
}

/// Waits for the next batch, timing the wait (and recording a
/// `pipeline.wait` span when traced).
fn next_batch(
    p: &mut Pipeline,
    tracer: Option<&Arc<Tracer>>,
) -> (u64, sciml_pipeline::Result<Option<Batch>>) {
    let start = Instant::now();
    let got = match tracer {
        Some(t) => {
            let _span = t.span(CAT, "pipeline.wait");
            p.next_batch()
        }
        None => p.next_batch(),
    };
    (start.elapsed().as_nanos() as u64, got)
}

/// Wraps a source for the window: a tracing wrapper when traced, and
/// the self-test's corruption on top.
fn wrap<S: SampleSource + 'static>(
    env: &Env,
    source: S,
    tracer: Option<&Arc<Tracer>>,
    layer: &'static str,
    flip_fetch: Option<u64>,
) -> Arc<dyn SampleSource> {
    let traced: Arc<dyn SampleSource> = match tracer {
        Some(t) => Arc::new(Traced::new(source, t, layer)),
        None => Arc::new(source),
    };
    match flip_fetch {
        Some(n) => Arc::new(FlipOne::new(traced, n, Arc::clone(&env.plugin))),
        None => traced,
    }
}

fn plugin_for(env: &Env, tracer: Option<&Arc<Tracer>>) -> Arc<dyn DecoderPlugin> {
    match tracer {
        Some(t) => Arc::new(TracedPlugin::new(Arc::clone(&env.plugin), t)),
        None => Arc::clone(&env.plugin),
    }
}

/// How long the pool must go without allocating before the pipeline
/// counts as blocked on its full queues.
const QUEUES_FULL_AFTER: Duration = Duration::from_millis(500);

/// Leaves the pipeline undrained until its buffer pool stops
/// allocating: every queue is full and every worker blocked.
fn fill_queues(pipeline: &Pipeline) {
    let pool = pipeline.pool();
    let start = Instant::now();
    let (mut misses, mut since) = (pool.misses(), Instant::now());
    while since.elapsed() < QUEUES_FULL_AFTER && start.elapsed() < GRACE {
        std::thread::sleep(Duration::from_millis(20));
        if pool.misses() != misses {
            (misses, since) = (pool.misses(), Instant::now());
        }
    }
}

/// One timed window over the local or remote path: a single pipeline,
/// its first epoch as warm-up, then batches until the window has run
/// `seconds` and the epoch in progress at that moment is complete.
fn pipeline_window(
    env: &Env,
    digests: &[u64],
    tracer: Option<&Arc<Tracer>>,
    seconds: f64,
    flip_fetch: Option<u64>,
) -> Window {
    let source = match (&env.remote, env.spec.path) {
        (Some(r), DataPath::Remote) => wrap(
            env,
            Arc::clone(&r.client),
            tracer,
            "serve.client.fetch",
            flip_fetch,
        ),
        _ => wrap(
            env,
            Arc::clone(&env.store),
            tracer,
            "store.fetch",
            flip_fetch,
        ),
    };
    let mut w = Window::default();
    let mut ledger = Ledger::new(digests);
    let cfg = env.spec.pipeline_config(env.seed, OPEN_EPOCHS);
    let mut pipeline = match Pipeline::launch(source, plugin_for(env, tracer), cfg) {
        Ok(p) => p,
        Err(e) => {
            w.error = Some(format!("launch pipeline: {e}"));
            w.tally = ledger.close(0);
            return w;
        }
    };

    // Warm-up: the pipeline first runs ahead until its queues are full,
    // so the buffer pool grows to its bound, which a long run reaches
    // at its first consumer hiccup anyway; then the first epoch fills
    // the page cache and the server's hot cache. Timing starts after.
    fill_queues(&pipeline);
    let warm_up = Instant::now();
    while w.error.is_none() && !ledger.complete_through(0) {
        if warm_up.elapsed() > GRACE {
            w.error = Some("first epoch incomplete after the grace period".into());
            break;
        }
        match pipeline.next_batch() {
            Ok(Some(b)) => ledger.accept(&b),
            Ok(None) => w.error = Some("pipeline ended during warm-up".into()),
            Err(e) => w.error = Some(format!("pipeline: {e}")),
        }
    }
    if w.error.is_some() {
        drop(pipeline);
        let through = ledger.max_epoch();
        w.tally = ledger.close(through);
        return w;
    }

    let pool = pipeline.pool();
    let (hits0, misses0) = (pool.hits(), pool.misses());
    let serve0 = serve_reading(env);
    let mut probe = match Probe::start() {
        Ok(p) => p,
        Err(e) => {
            w.error = Some(e);
            drop(pipeline);
            w.tally = ledger.close(0);
            return w;
        }
    };
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    let deadline = probe.start + Duration::from_secs_f64(seconds);
    let mut stop_epoch = None;
    loop {
        let (wait_ns, got) = next_batch(&mut pipeline, tracer);
        match got {
            Ok(Some(b)) => {
                w.samples += b.len() as u64;
                w.batches += 1;
                ledger.accept(&b);
                if let Err(e) = probe.delivered(b.len() as u64, &[wait_ns]) {
                    w.error = Some(e);
                    break;
                }
            }
            Ok(None) => {
                w.error = Some("pipeline ended before the window did".into());
                break;
            }
            Err(e) => {
                w.error = Some(format!("pipeline: {e}"));
                break;
            }
        }
        if stop_epoch.is_none() && Instant::now() >= deadline {
            stop_epoch = Some(ledger.max_epoch());
        }
        if stop_epoch.is_some_and(|e| ledger.complete_through(e)) {
            break;
        }
        if Instant::now() > deadline + GRACE {
            w.error = Some("last epoch incomplete after the grace period".into());
            break;
        }
    }
    if let Some(t) = tracer {
        t.set_enabled(false);
    }
    if let Err(e) = probe.finish(&mut w) {
        w.error.get_or_insert(e);
    }
    w.pool_hits = pool.hits() - hits0;
    w.pool_misses = pool.misses() - misses0;
    w.pool_resident_bytes = pool.resident_bytes();
    w.serve = serve_delta(serve0, env);
    drop(pipeline);
    let through = match (&w.error, stop_epoch) {
        (None, Some(e)) => e,
        _ => ledger.max_epoch(),
    };
    w.epochs_checked = through as u64 + 1;
    w.tally = ledger.close(through);
    w
}

/// What one staging cycle produced.
#[derive(Default)]
struct Cycle {
    samples: u64,
    batches: u64,
    waits_ns: Vec<u64>,
    tally: Tally,
    stage_s: f64,
    shards: u64,
    bytes: u64,
    local_hits: u64,
    fallthroughs: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_resident_bytes: i64,
    error: Option<String>,
}

/// One staging cycle: a fresh staging directory, a benchmark thread
/// looping `stage_one`, and a pipeline training `cycle_epochs` epochs
/// over `Stager::source()` meanwhile. The cycle ends when both finish.
fn stage_cycle(
    env: &mut Env,
    digests: &[u64],
    tracer: Option<&Arc<Tracer>>,
    flip_fetch: Option<u64>,
) -> Result<Cycle, String> {
    let remote = env.remote.as_ref().ok_or("stage path without a server")?;
    let backing: Arc<dyn SampleSource> = match tracer {
        Some(t) => Arc::new(Traced::new(
            Arc::clone(&remote.client),
            t,
            "serve.client.fetch",
        )),
        None => Arc::clone(&remote.client) as Arc<dyn SampleSource>,
    };
    let started = Instant::now();
    // The stager started at set-up serves the first untraced cycle.
    let (stager, dir) = match (tracer, env.stager.take()) {
        (None, Some(s)) => (s, env.dir.join(STAGE_DIR)),
        _ => {
            env.cycles += 1;
            let dir = env.dir.join(format!("stage-{}", env.cycles));
            (start_stager(backing, &remote.plans, &dir)?, dir)
        }
    };
    let staging = Arc::new(stager.source());
    let stage_thread = {
        let stager = stager.clone();
        let tracer = tracer.cloned();
        std::thread::spawn(move || -> Result<f64, String> {
            layers::mark_staging_thread();
            loop {
                let step = match &tracer {
                    Some(t) => {
                        let _span = t.span(CAT, "stage.stage_one");
                        stager.stage_one()
                    }
                    None => stager.stage_one(),
                };
                match step {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => return Err(format!("staging: {e}")),
                }
            }
            let progress = stager.progress();
            if !progress.complete() {
                return Err(format!("staging stopped incomplete: {progress:?}"));
            }
            Ok(started.elapsed().as_secs_f64())
        })
    };

    let source = wrap(
        env,
        Arc::clone(&staging) as Arc<StagingSource>,
        tracer,
        "store.fetch",
        flip_fetch,
    );
    let mut ledger = Ledger::new(digests);
    let mut cycle = Cycle::default();
    let epochs = env.spec.cycle_epochs;
    match Pipeline::launch(
        source,
        plugin_for(env, tracer),
        env.spec.pipeline_config(env.seed, epochs),
    ) {
        Ok(mut pipeline) => {
            loop {
                let (wait_ns, got) = next_batch(&mut pipeline, tracer);
                match got {
                    Ok(Some(b)) => {
                        cycle.waits_ns.push(wait_ns);
                        cycle.samples += b.len() as u64;
                        cycle.batches += 1;
                        ledger.accept(&b);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        cycle.error = Some(format!("pipeline: {e}"));
                        break;
                    }
                }
            }
            let pool = pipeline.pool();
            cycle.pool_hits = pool.hits();
            cycle.pool_misses = pool.misses();
            cycle.pool_resident_bytes = pool.resident_bytes();
        }
        Err(e) => cycle.error = Some(format!("launch pipeline: {e}")),
    }
    if cycle.error.is_some() {
        stager.stop();
    }
    match stage_thread.join() {
        Ok(Ok(s)) => cycle.stage_s = s,
        Ok(Err(e)) => {
            cycle.error.get_or_insert(e);
        }
        Err(_) => {
            cycle.error.get_or_insert("staging thread panicked".into());
        }
    }
    let progress = stager.progress();
    cycle.shards = progress.staged_shards as u64;
    cycle.bytes = progress.staged_bytes;
    cycle.local_hits = staging.local_hits();
    cycle.fallthroughs = staging.fallthroughs();
    cycle.tally = ledger.close(epochs.saturating_sub(1));
    drop(stager);
    let _ = std::fs::remove_dir_all(dir);
    Ok(cycle)
}

/// One timed window over the stage path: a warm-up cycle, then cycles
/// until the window has run `seconds`.
fn stage_window(
    env: &mut Env,
    digests: &[u64],
    tracer: Option<&Arc<Tracer>>,
    seconds: f64,
    flip_fetch: Option<u64>,
) -> Window {
    let mut w = Window::default();
    let mut probe: Option<Probe> = None;
    let mut serve0 = None;
    loop {
        let cycle = match stage_cycle(env, digests, tracer, flip_fetch) {
            Ok(c) => c,
            Err(e) => {
                w.error = Some(e);
                break;
            }
        };
        w.tally.merge(cycle.tally);
        w.epochs_checked += env.spec.cycle_epochs as u64;
        if let Some(p) = probe.as_mut() {
            if let Err(e) = p.delivered(cycle.samples, &cycle.waits_ns) {
                w.error = Some(e);
                break;
            }
            w.samples += cycle.samples;
            w.batches += cycle.batches;
            w.pool_hits += cycle.pool_hits;
            w.pool_misses += cycle.pool_misses;
            w.pool_resident_bytes = cycle.pool_resident_bytes;
            let s = &mut w.stage;
            s.stage_s.push(cycle.stage_s);
            s.shards += cycle.shards;
            s.bytes += cycle.bytes;
            s.local_hits += cycle.local_hits;
            s.fallthroughs += cycle.fallthroughs;
        }
        if let Some(e) = cycle.error {
            w.error = Some(e);
            break;
        }
        match &probe {
            // The first cycle warms the server's hot cache and the
            // page cache; timing starts after it.
            None => {
                serve0 = serve_reading(env);
                match Probe::start() {
                    Ok(p) => probe = Some(p),
                    Err(e) => {
                        w.error = Some(e);
                        break;
                    }
                }
                if let Some(t) = tracer {
                    t.set_enabled(true);
                }
            }
            Some(p) if p.start.elapsed().as_secs_f64() >= seconds => break,
            Some(_) => {}
        }
    }
    if let Some(t) = tracer {
        t.set_enabled(false);
    }
    if let Some(p) = probe {
        if let Err(e) = p.finish(&mut w) {
            w.error.get_or_insert(e);
        }
        w.serve = serve_delta(serve0, env);
    }
    w
}

fn window(
    env: &mut Env,
    digests: &[u64],
    tracer: Option<&Arc<Tracer>>,
    seconds: f64,
    flip_fetch: Option<u64>,
) -> Window {
    match env.spec.path {
        DataPath::Stage => stage_window(env, digests, tracer, seconds, flip_fetch),
        DataPath::Local | DataPath::Remote => {
            pipeline_window(env, digests, tracer, seconds, flip_fetch)
        }
    }
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sets the workload up `setups` times, keeping the last set-up.
/// Returns it with the median set-up time.
fn set_up(
    opts: &Options,
    setups: usize,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Env, f64), String> {
    let mut times = Vec::with_capacity(setups);
    let mut kept: Option<Env> = None;
    for k in 0..setups.max(1) {
        let dir = work.join(format!("setup-{k}"));
        let start = Instant::now();
        let env = Env::setup(&opts.spec, opts.seed, &dir, tracer)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(env) {
            let dir = previous.dir.clone();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let env = kept.ok_or("no set-up ran")?;
    Ok((env, median(&times)))
}

/// Runs one workload: set-up, the timed window (or, traced, an untraced
/// and a traced window plus the replays), and the report.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts.root.join(format!("work-{}", std::process::id()));
    let _cleanup = WorkDir(work.clone());
    let tracer = opts.trace.then(|| {
        let t = Tracer::new(TRACE_CAPACITY);
        t.set_enabled(false);
        t
    });
    let setups = if opts.trace { 1 } else { SETUPS };
    let (mut env, setup_s) = set_up(opts, setups, &work, tracer.as_ref())?;
    let digests = reference_digests(&*env.plugin, &env.samples)?;
    // Only the replays need the generated samples after this point.
    if !opts.trace {
        env.samples = Vec::new();
    }

    let untraced = window(&mut env, &digests, None, opts.seconds, opts.flip_fetch);
    let mut tally = untraced.tally;
    let mut error = untraced.error.clone();
    let mut layer = None;
    let mut span_file = None;
    if let Some(t) = &tracer {
        if error.is_none() {
            let traced = window(&mut env, &digests, Some(t), opts.seconds, opts.flip_fetch);
            tally.merge(traced.tally);
            error = error.or_else(|| traced.error.clone());
            let (census, ratio) = env.store_census()?;
            let gzip_stored = census.gzip > census.raw;
            let replays = layers::replay(&env, gzip_stored)?;
            let events = t.events();
            span_file = Some(write_spans(&opts.root, opts, t)?);
            layer = Some(report::LayerInputs {
                traced,
                stats: layers::layer_stats(&events),
                census,
                ratio,
                replays,
                dropped: t.dropped(),
            });
        }
    }

    let mut provenance = report::provenance(&env, opts);
    provenance.push(("epochs_checked", untraced.epochs_checked.to_string()));
    if let Some(path) = span_file {
        provenance.push(("span_file", path.display().to_string()));
    }
    let (metrics, extra) = match &layer {
        Some(l) => report::per_layer(&untraced, l, &tally),
        None => report::end_to_end(&untraced, setup_s, &tally),
    };
    let outcome = Outcome {
        tally,
        error,
        metrics,
        extra,
        provenance,
        slices: untraced.slices.clone(),
    };
    report::write_result(&opts.root, opts, &outcome)?;
    Ok(outcome)
}

fn write_spans(root: &Path, opts: &Options, tracer: &Tracer) -> Result<PathBuf, String> {
    let dir = root.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", opts.spec.name, opts.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_chrome_trace(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(slices: &[(f64, usize)]) -> Window {
        Window {
            slices: slices
                .iter()
                .map(|&(steal, waits)| Slice {
                    samples: 1,
                    wall_s: 1.0,
                    steal,
                    waits_ns: vec![1; waits],
                    full: true,
                    ..Slice::default()
                })
                .collect(),
            ..Window::default()
        }
    }

    fn steals(w: &Window) -> Vec<f64> {
        w.quiet_slices().iter().map(|s| s.steal).collect()
    }

    #[test]
    fn quiet_slices_skip_stolen_time_but_keep_enough_waits() {
        let mixed = window(&[(0.0, 300), (0.3, 300), (0.0, 300), (0.2, 300)]);
        assert_eq!(steals(&mixed), [0.0, 0.0]);
        let even = window(&[(0.0, 10); 4]);
        assert_eq!(even.quiet_slices().len(), 4);
        let few_waits = window(&[(0.3, 50), (0.0, 50), (0.2, 50), (0.1, 50)]);
        assert_eq!(steals(&few_waits), [0.3, 0.0, 0.2, 0.1]);
        let enough = window(&[(0.3, 100), (0.0, 100), (0.2, 100), (0.1, 100)]);
        assert_eq!(steals(&enough), [0.0, 0.1]);
    }
}
