//! Set-up (train, calibrate, bind), the scratch directory for journals,
//! and the host facts and memory readings the report carries.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::model_io;
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::{task, ConformalState, EventHit, InferenceLane};
use eventhit_serve::{DurableOptions, ServeConfig, Server};
use eventhit_telemetry::Telemetry;

use crate::workload::{ServeShape, Workload, LANE_STREAMS, SCALE, STRATEGY, TASK};

/// Scratch space for durable journals, under the working directory (the
/// benchmark touches nothing outside its checkout). Removed on drop.
pub struct Scratch {
    root: PathBuf,
    dir: PathBuf,
    next: std::cell::Cell<u32>,
}

pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(SCRATCH_ROOT);
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            root,
            dir,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, what: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.dir.join(format!("{what}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave the root only when another run still uses it.
        let _ = std::fs::remove_dir(&self.root);
    }
}

/// Seconds spent in each set-up phase of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    pub train: f64,
    pub calibrate: f64,
    pub bind: f64,
}

impl SetupTiming {
    pub fn total(&self) -> f64 {
        self.train + self.calibrate + self.bind
    }
}

/// The trained model and everything derived from it.
pub struct Prepared {
    pub model: EventHit,
    pub state: ConformalState,
    /// The shared feature pool streams draw their rows from.
    pub pool: Vec<Vec<f32>>,
    pub window: usize,
    pub horizon: usize,
    pub timings: Vec<SetupTiming>,
    /// The last repetition's server (serve workloads only).
    pub server: Option<Server>,
    /// False when repeated set-ups trained different weights.
    pub deterministic: bool,
}

pub const SETUP_REPS: usize = 3;

pub fn experiment(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        scale: SCALE,
        seed,
        ..Default::default()
    }
}

/// Runs set-up `SETUP_REPS` times. Each repetition trains from the seed,
/// refits the conformal state on the calibration split, and binds: a
/// server with a live recorder for serve workloads (recovering a fresh
/// journal directory when durable), the per-stream predictors for
/// lanes-inproc.
pub fn prepare(workload: Workload, seed: u64, scratch: &Scratch) -> std::io::Result<Prepared> {
    let t = task(TASK).expect("TA10 is a built-in task");
    let mut timings = Vec::with_capacity(SETUP_REPS);
    let mut fingerprints = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's server closes before the next binds.
        drop(last.take());
        let t0 = Instant::now();
        let mut run = TaskRun::execute(&t, &experiment(seed));
        let t1 = Instant::now();
        let state = run.state_for_model(&run.model, InferenceLane::Exact);
        let t2 = Instant::now();
        let bound = match workload.serve() {
            Some(shape) => Some(bind(&shape, &run.model, &state, scratch)?),
            None => {
                let lanes: Vec<OnlinePredictor> = (0..LANE_STREAMS)
                    .map(|_| predictor(&run.model, &state))
                    .collect();
                std::hint::black_box(lanes);
                None
            }
        };
        let t3 = Instant::now();
        timings.push(SetupTiming {
            train: (t1 - t0).as_secs_f64(),
            calibrate: (t2 - t1).as_secs_f64(),
            bind: (t3 - t2).as_secs_f64(),
        });
        fingerprints.push(model_io::fingerprint(&mut run.model));
        last = Some((run, state, bound));
    }
    let (run, state, bound) = last.expect("at least one set-up repetition");
    let pool = (0..run.features.rows())
        .map(|r| run.features.row(r).to_vec())
        .collect();
    Ok(Prepared {
        pool,
        window: run.window,
        horizon: run.horizon,
        model: run.model,
        state,
        timings,
        server: bound,
        deterministic: fingerprints.windows(2).all(|w| w[0] == w[1]),
    })
}

pub fn predictor(model: &EventHit, state: &ConformalState) -> OnlinePredictor {
    OnlinePredictor::with_lane(model.clone(), state.clone(), STRATEGY, InferenceLane::Exact)
}

/// Binds a server for `shape` on an ephemeral loopback port with a live
/// wall-clock recorder, as `eventhit-cli serve` runs it.
pub fn bind(
    shape: &ServeShape,
    model: &EventHit,
    state: &ConformalState,
    scratch: &Scratch,
) -> std::io::Result<Server> {
    let (model, state) = (model.clone(), state.clone());
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: shape.shards,
        workers_per_shard: shape.workers,
        // Room for every stream on any shard: admission is not under test.
        max_streams: (shape.streams() as u32) * shape.shards,
        durable: shape
            .durable
            .then(|| DurableOptions::new(scratch.fresh("journal"))),
        ..ServeConfig::default()
    };
    Server::bind_with_telemetry(
        cfg,
        Box::new(move |_stream| predictor(&model, &state)),
        Arc::new(Telemetry::new()),
    )
}

/// Resets the peak-RSS high-water mark to the current RSS, so a later
/// reading covers only what ran after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory (`VmHWM`) in MiB, when the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host facts the report carries.
pub struct Host {
    pub cores: usize,
    pub rustc: String,
    pub git_rev: String,
}

pub fn host() -> Host {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // A checkout without its own `.git` has no revision to report (a git
    // call there would describe whatever repository encloses it).
    let git_rev = if Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Host {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        git_rev: git_rev.unwrap_or_else(|| "unknown".into()),
    }
}
