//! The workloads and their set-up: generate a seeded dataset, pack it,
//! and for the remote paths serve it on loopback.

use crate::layers::Traced;
use sciml_codec::Op;
use sciml_core::api::{DatasetBuilder, EncodedFormat};
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_data::deepcam::DeepCamConfig;
use sciml_obs::Tracer;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecoderPlugin, PipelineConfig, SampleSource};
use sciml_serve::{RemoteSource, ServeBuilder, ServerConfig, ServerHandle};
use sciml_store::{
    pack_store, EncodingChoice, EncodingCounts, PackConfig, ShardPlan, ShardReader, ShardSource,
    Stager, StagerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "cosmo-local",
    "deepcam-local",
    "cosmo-remote",
    "cosmo-stage",
];

/// Directory, under a set-up's directory, of the stager started at
/// set-up.
pub const STAGE_DIR: &str = "stage-0";

/// Where the pipeline's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// A packed store on local disk.
    Local,
    /// A packed store behind an in-process server, one request per
    /// sample through `RemoteSource`.
    Remote,
    /// A fresh staging copy of the served store, trained on while a
    /// benchmark thread stages it.
    Stage,
}

/// Sample family and dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// CosmoFlow LUT-encoded universes: 4 redshifts × grid³.
    Cosmo {
        /// Grid edge length.
        grid: usize,
    },
    /// DeepCAM differential-encoded climate stacks.
    DeepCam {
        /// Channels per sample.
        channels: usize,
        /// Image height.
        height: usize,
        /// Image width.
        width: usize,
    },
}

/// One workload's shape and sizing.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Sample family and dimensions.
    pub shape: Shape,
    /// Samples in the dataset (one epoch).
    pub samples: usize,
    /// Store payload encoding.
    pub encoding: EncodingChoice,
    /// Target raw bytes per shard.
    pub shard_bytes: u64,
    /// Data path.
    pub path: DataPath,
    /// Epochs trained per staging cycle (stage path only).
    pub cycle_epochs: usize,
}

impl Spec {
    /// The named workload, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Spec> {
        let cosmo_small = Shape::Cosmo { grid: 32 };
        let spec = match name {
            "cosmo-local" => Spec {
                name: "cosmo-local",
                shape: Shape::Cosmo { grid: 64 },
                samples: 16,
                encoding: EncodingChoice::Auto,
                shard_bytes: 4 << 20,
                path: DataPath::Local,
                cycle_epochs: 0,
            },
            "deepcam-local" => Spec {
                name: "deepcam-local",
                shape: Shape::DeepCam {
                    channels: 16,
                    height: 384,
                    width: 576,
                },
                samples: 8,
                encoding: EncodingChoice::Raw,
                shard_bytes: 4 << 20,
                path: DataPath::Local,
                cycle_epochs: 0,
            },
            "cosmo-remote" => Spec {
                name: "cosmo-remote",
                shape: cosmo_small,
                samples: 128,
                encoding: EncodingChoice::Raw,
                shard_bytes: 1 << 20,
                path: DataPath::Remote,
                cycle_epochs: 0,
            },
            "cosmo-stage" => Spec {
                name: "cosmo-stage",
                shape: cosmo_small,
                samples: 128,
                encoding: EncodingChoice::Raw,
                shard_bytes: 1 << 20,
                path: DataPath::Stage,
                cycle_epochs: 2,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload at a size small enough for a debug-build smoke
    /// test.
    pub fn tiny(mut self) -> Spec {
        self.shape = match self.shape {
            Shape::Cosmo { .. } => Shape::Cosmo { grid: 12 },
            Shape::DeepCam { .. } => Shape::DeepCam {
                channels: 2,
                height: 24,
                width: 32,
            },
        };
        self.samples = self.samples.min(8);
        self.shard_bytes = 4 << 10;
        self
    }

    /// The shape as text, e.g. `cosmo 4x64x64x64`.
    pub fn shape_text(&self) -> String {
        match self.shape {
            Shape::Cosmo { grid } => format!("cosmo 4x{grid}x{grid}x{grid}"),
            Shape::DeepCam {
                channels,
                height,
                width,
            } => format!("deepcam {channels}x{height}x{width}"),
        }
    }

    /// Pipeline configuration: the defaults (thread counts, batch size,
    /// prefetch and pool) with the run's epochs and shuffle seed.
    pub fn pipeline_config(&self, seed: u64, epochs: usize) -> PipelineConfig {
        PipelineConfig {
            epochs,
            seed,
            ..PipelineConfig::default()
        }
    }

    /// Preprocessing fused into the decode.
    pub fn op(&self) -> Op {
        match self.shape {
            Shape::Cosmo { .. } => Op::Log1p,
            Shape::DeepCam { .. } => Op::Normalize {
                scale: 0.5,
                offset: 1.0,
            },
        }
    }

    fn builder(&self, seed: u64) -> DatasetBuilder {
        match self.shape {
            Shape::Cosmo { grid } => DatasetBuilder::cosmoflow(CosmoFlowConfig {
                grid,
                seed,
                ..CosmoFlowConfig::default()
            }),
            Shape::DeepCam {
                channels,
                height,
                width,
            } => DatasetBuilder::deepcam(DeepCamConfig {
                channels,
                height,
                width,
                seed,
                ..DeepCamConfig::default()
            }),
        }
    }
}

/// The served store on the remote and stage paths.
pub struct Remote {
    /// The in-process server.
    pub server: ServerHandle,
    /// The client the pipeline (and the stager) fetch through.
    pub client: Arc<RemoteSource>,
    /// The store's shard boundaries, as the server exports them.
    pub plans: Vec<ShardPlan>,
}

/// A set-up workload.
pub struct Env {
    /// The workload.
    pub spec: Spec,
    /// Data and shuffle seed.
    pub seed: u64,
    /// Directory holding this set-up's files.
    pub dir: PathBuf,
    /// The encoded samples as generated, before packing.
    pub samples: Vec<Vec<u8>>,
    /// The decoder plugin for the workload's encoding.
    pub plugin: Arc<dyn DecoderPlugin>,
    /// The packed store: read locally, or behind the server.
    pub store: Arc<ShardSource>,
    /// The server and its client, on the remote and stage paths.
    pub remote: Option<Remote>,
    /// The stager started at set-up, in `STAGE_DIR`, used by the first
    /// staging cycle.
    pub stager: Option<Stager>,
    /// Staging cycles started after set-up.
    pub cycles: usize,
}

impl Env {
    /// Generates the data, packs it, and starts the server and the
    /// stager. With `tracer`, the server's store is wrapped so its
    /// fetches record `store.fetch` spans while the tracer is on.
    pub fn setup(
        spec: &Spec,
        seed: u64,
        dir: &Path,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Env, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let builder = spec.builder(seed);
        let samples = builder.build(spec.samples, EncodedFormat::Custom);
        let plugin = builder.plugin(EncodedFormat::Custom, None, spec.op());
        let store_dir = dir.join("store");
        pack_store(
            &VecSource::new(samples.clone()),
            &store_dir,
            PackConfig {
                target_shard_bytes: spec.shard_bytes,
                encoding: spec.encoding,
                ..PackConfig::default()
            },
        )
        .map_err(|e| format!("pack store: {e}"))?;
        let store =
            Arc::new(ShardSource::open(&store_dir).map_err(|e| format!("open store: {e}"))?);

        let remote = match spec.path {
            DataPath::Local => None,
            DataPath::Remote | DataPath::Stage => {
                let served: Arc<dyn SampleSource> = match tracer {
                    Some(t) => Arc::new(Traced::new(Arc::clone(&store), t, "store.fetch")),
                    None => Arc::clone(&store) as Arc<dyn SampleSource>,
                };
                // The hot cache holds half the dataset, so requests
                // exercise both the cache and the store behind it.
                let dataset_bytes: u64 = samples.iter().map(|s| s.len() as u64).sum();
                let server = ServeBuilder::new()
                    .config(ServerConfig {
                        workers: 2,
                        cache_bytes: dataset_bytes / 2,
                        ..ServerConfig::default()
                    })
                    .dataset_with_plans("data", served, store.manifest().plans())
                    .bind("127.0.0.1:0")
                    .map_err(|e| format!("bind server: {e}"))?;
                let client = RemoteSource::connect(server.local_addr().to_string(), "data")
                    .map_err(|e| format!("connect: {e}"))?;
                let plans = client
                    .shard_manifest(0)
                    .map_err(|e| format!("shard manifest: {e}"))?;
                Some(Remote {
                    server,
                    client: Arc::new(client),
                    plans,
                })
            }
        };
        let stager = match (&remote, spec.path) {
            (Some(r), DataPath::Stage) => Some(start_stager(
                Arc::clone(&r.client) as Arc<dyn SampleSource>,
                &r.plans,
                &dir.join(STAGE_DIR),
            )?),
            _ => None,
        };
        Ok(Env {
            spec: spec.clone(),
            seed,
            dir: dir.to_path_buf(),
            samples,
            plugin,
            store,
            remote,
            stager,
            cycles: 0,
        })
    }

    /// Per-encoding entry counts of the store, and its ratio of raw
    /// sample bytes to shard file bytes.
    pub fn store_census(&self) -> Result<(EncodingCounts, f64), String> {
        let mut counts = EncodingCounts::default();
        let (mut raw, mut file) = (0u64, 0u64);
        for meta in &self.store.manifest().shards {
            let reader = ShardReader::open(self.store.dir().join(&meta.file))
                .map_err(|e| format!("open {}: {e}", meta.file))?;
            counts.merge(reader.encoding_counts());
            raw += (0..reader.count())
                .filter_map(|i| reader.raw_len(i))
                .map(u64::from)
                .sum::<u64>();
            file += reader.file_bytes();
        }
        Ok((counts, raw as f64 / file.max(1) as f64))
    }
}

/// Starts a stager copying `plans` from `backing` into a fresh `dir`.
pub fn start_stager(
    backing: Arc<dyn SampleSource>,
    plans: &[ShardPlan],
    dir: &Path,
) -> Result<Stager, String> {
    // A fresh directory: a journal left behind would resume instead of
    // staging.
    let _ = std::fs::remove_dir_all(dir);
    Stager::new(backing, plans.to_vec(), dir, StagerConfig::default())
        .map_err(|e| format!("start stager: {e}"))
}
