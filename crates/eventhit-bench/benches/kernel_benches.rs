//! Single-core kernel benchmarks: end-to-end inference frames/sec on the
//! naive reference kernels, the blocked/unrolled exact lane, and the int8
//! quantized fast lane.
//!
//! Everything runs on a 1-worker pool so the numbers are *per core* —
//! the parallel layer's scaling is `parallel_benches`' job. Two workloads
//! are measured, the same two the serving stack runs hot:
//!
//! * `score_records` — minibatched scoring of the held-out test split;
//! * `run_lanes` — two multi-stream marshalling lanes drained end to end.
//!
//! The naive baseline routes the *same* pooled entry points through the
//! retained reference loops via `set_naive_kernels(true)`, so the only
//! difference measured is the kernel inner loop. Results are written to
//! `--out PATH` (default `BENCH_kernels.json` in the current directory;
//! `cargo bench` runs benches from the package directory).
//!
//! Flags (after `--`): `--out PATH` names the JSON file; `--smoke` cuts
//! repetitions for CI; with
//! `--enforce-floor` the process exits non-zero if the quantized lane is
//! slower than the exact lane (a sanity floor, deliberately far below
//! the ~2x speedups a healthy build shows over naive).

use std::time::Instant;

use eventhit_core::experiment::{ExperimentConfig, TaskRun};
use eventhit_core::infer::{score_records_lane_with, score_records_with};
use eventhit_core::multi::{run_lanes, StreamLane};
use eventhit_core::pipeline::Strategy;
use eventhit_core::streaming::OnlinePredictor;
use eventhit_core::tasks::task;
use eventhit_core::train::TrainConfig;
use eventhit_core::InferenceLane;
use eventhit_nn::matrix::set_naive_kernels;
use eventhit_parallel::Pool;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Frames/sec per core for one workload on all three kernel paths.
struct LaneRates {
    name: String,
    frames: usize,
    naive: f64,
    exact: f64,
    quantized: f64,
}

impl LaneRates {
    fn exact_speedup(&self) -> f64 {
        self.exact / self.naive.max(1e-12)
    }

    fn quantized_speedup(&self) -> f64 {
        self.quantized / self.naive.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"frames\":{},\"frames_per_sec_per_core\":{{\
             \"naive\":{:.1},\"exact\":{:.1},\"quantized\":{:.1}}},\
             \"speedup_exact_vs_naive\":{:.3},\"speedup_quantized_vs_naive\":{:.3}}}",
            self.name,
            self.frames,
            self.naive,
            self.exact,
            self.quantized,
            self.exact_speedup(),
            self.quantized_speedup(),
        )
    }

    fn print(&self) {
        println!(
            "{:<24} naive {:>9.0} f/s | exact {:>9.0} f/s ({:.2}x) | quantized {:>9.0} f/s ({:.2}x)",
            self.name,
            self.naive,
            self.exact,
            self.exact_speedup(),
            self.quantized,
            self.quantized_speedup(),
        );
    }
}

/// A model sized so the gate/product kernels dominate the forward pass
/// (MAC count grows with `hidden²` while the activation/overhead cost
/// grows with `hidden`), trained for a single epoch — the bench measures
/// inference.
fn bench_run() -> TaskRun {
    let cfg = ExperimentConfig {
        scale: 0.1,
        hidden_dim: 384,
        shared_dim: 192,
        // A decision-dense serving load: one anchor every 8 frames keeps
        // run_lanes in the scoring kernels instead of ring-buffer pushes.
        override_horizon: Some(8),
        train: TrainConfig {
            epochs: 1,
            ..Default::default()
        },
        ..ExperimentConfig::quick(9)
    };
    TaskRun::execute(&task("TA10").unwrap(), &cfg)
}

fn bench_score_records(run: &TaskRun, reps: usize) -> LaneRates {
    let records = &run.test_records;
    let batch = 16usize;
    let pool = Pool::new(1);

    set_naive_kernels(true);
    let t_naive = time_median(reps, || {
        score_records_with(&run.model, records, batch, &pool)
    });
    set_naive_kernels(false);
    let t_exact = time_median(reps, || {
        score_records_with(&run.model, records, batch, &pool)
    });
    let t_quant = time_median(reps, || {
        score_records_lane_with(&run.model, records, batch, InferenceLane::Quantized, &pool)
    });

    let frames = records.len();
    LaneRates {
        name: format!("score_records_{frames}rec"),
        frames,
        naive: frames as f64 / t_naive.max(1e-12),
        exact: frames as f64 / t_exact.max(1e-12),
        quantized: frames as f64 / t_quant.max(1e-12),
    }
}

fn bench_run_lanes(run: &TaskRun, reps: usize) -> LaneRates {
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };
    let quant_state = run.state_for_lane(InferenceLane::Quantized);
    let rows = run.features.rows();
    let from = run.window;
    let frames = 2 * (rows - from);
    let pool = Pool::new(1);

    let lanes_for = |lane: InferenceLane| -> Vec<StreamLane> {
        (0..2usize)
            .map(|stream_id| StreamLane {
                stream_id,
                predictor: match lane {
                    InferenceLane::Exact => {
                        OnlinePredictor::new(run.model.clone(), run.state.clone(), strategy)
                    }
                    InferenceLane::Quantized => OnlinePredictor::with_lane(
                        run.model.clone(),
                        quant_state.clone(),
                        strategy,
                        lane,
                    ),
                },
                features: run.features.clone(),
                from,
            })
            .collect()
    };

    set_naive_kernels(true);
    let t_naive = time_median(reps, || run_lanes(lanes_for(InferenceLane::Exact), &pool));
    set_naive_kernels(false);
    let t_exact = time_median(reps, || run_lanes(lanes_for(InferenceLane::Exact), &pool));
    let t_quant = time_median(reps, || {
        run_lanes(lanes_for(InferenceLane::Quantized), &pool)
    });

    LaneRates {
        name: "run_lanes_2streams".into(),
        frames,
        naive: frames as f64 / t_naive.max(1e-12),
        exact: frames as f64 / t_exact.max(1e-12),
        quantized: frames as f64 / t_quant.max(1e-12),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce_floor = args.iter().any(|a| a == "--enforce-floor");
    let reps = if smoke { 3 } else { 9 };
    let out = match args.iter().position(|a| a == "--out") {
        None => "BENCH_kernels.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("--out needs a path");
                std::process::exit(2);
            }
        },
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "single-core kernel benchmarks ({cores} cores available, {} mode)\n",
        if smoke { "smoke" } else { "full" }
    );

    let run = bench_run();
    let results = [bench_score_records(&run, reps), bench_run_lanes(&run, reps)];
    for r in &results {
        r.print();
    }

    let body: Vec<String> = results.iter().map(LaneRates::to_json).collect();
    let json = format!(
        "{{\"cores\":{cores},\"smoke\":{smoke},\"workers\":1,\"benchmarks\":[{}]}}\n",
        body.join(",")
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\ncould not write {out}: {e}"),
    }

    if enforce_floor {
        for r in &results {
            if r.quantized < r.exact {
                eprintln!(
                    "FLOOR VIOLATION: {} quantized lane ({:.0} f/s) slower than exact ({:.0} f/s)",
                    r.name, r.quantized, r.exact
                );
                std::process::exit(1);
            }
        }
        println!("floor ok: quantized lane at least as fast as exact on every workload");
    }
}
