//! Per-layer costs for the traced run: isolated replays that push the
//! workload's own inputs through each layer's public function, the
//! server's in-situ stage series read over `MetricsQuery`, and the ledger
//! that reconciles them with the end-to-end time.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use eventhit_core::infer::score_records_lane;
use eventhit_core::{ConformalState, EventHit, InferenceLane};
use eventhit_durable::{DurableStore, SessionEvent};
use eventhit_nn::matrix::Matrix;
use eventhit_serve::admission::FrameQueue;
use eventhit_serve::convert::decision_to_wire;
use eventhit_serve::protocol::{encode, try_decode, Message};
use eventhit_serve::MetricsInfo;
use eventhit_telemetry::Telemetry;
use eventhit_video::records::{EventLabel, Record};

use crate::report::median;
use crate::setup::{predictor, Scratch};
use crate::workload::{frame, DECK_FRAMES};

/// Wall time each isolated measurement may take.
const BUDGET: Duration = Duration::from_millis(250);

/// Median over repeated batches of `per` calls of the mean time per
/// call, in nanoseconds, plus the number of calls timed.
fn ns_per_op(per: usize, mut op: impl FnMut()) -> (f64, u64) {
    op(); // warm caches and lazy state
    let mut means = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || means.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..per {
            op();
        }
        means.push(t0.elapsed().as_nanos() as f64 / per as f64);
    }
    (median(&means), (means.len() * per) as u64)
}

/// The inputs the replays share: one of the workload's streams.
pub struct Replay<'a> {
    pub model: &'a EventHit,
    pub state: &'a ConformalState,
    pub pool: &'a [Vec<f32>],
    pub stream: u32,
    pub batch: usize,
    pub window: usize,
    pub horizon: usize,
}

impl Replay<'_> {
    fn row(&self, r: usize) -> &[f32] {
        frame(self.pool, self.stream, r, DECK_FRAMES)
    }

    fn dim(&self) -> usize {
        self.pool[0].len()
    }

    /// The workload's batch `k` of the replayed stream.
    fn batch_data(&self, k: usize) -> Vec<f32> {
        (k * self.batch..(k + 1) * self.batch)
            .flat_map(|r| self.row(r).iter().copied())
            .collect()
    }
}

/// A measured value and the number of operations behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub value: f64,
    pub samples: u64,
}

/// Isolated per-layer costs.
#[derive(Debug, Clone, Default)]
pub struct Isolated {
    pub forward_us: Cost,
    pub forward_b32_us_per_rec: Cost,
    pub push_ns_per_frame: Cost,
    pub anchor_us: Cost,
    pub telemetry_ns_per_frame: Cost,
    pub add_ns: Cost,
    pub add_ns_2t: Cost,
    pub submit_ns_per_frame: Cost,
    pub reply_ns: Cost,
    pub queue_ns_per_frame: Cost,
    pub append_us: Cost,
}

pub fn isolated(r: &Replay, scratch: &Scratch) -> std::io::Result<Isolated> {
    let (forward_us, forward_b32_us_per_rec) = nn(r);
    let plain = streaming(r, None);
    let traced = streaming(r, Some(Arc::new(Telemetry::new())));
    let (add_ns, add_ns_2t) = telemetry();
    let (submit_ns_per_frame, reply_ns) = protocol(r);
    Ok(Isolated {
        forward_us,
        forward_b32_us_per_rec,
        push_ns_per_frame: plain.non_anchor,
        anchor_us: plain.anchor,
        telemetry_ns_per_frame: Cost {
            value: traced.per_frame.value - plain.per_frame.value,
            samples: traced.per_frame.samples.min(plain.per_frame.samples),
        },
        add_ns,
        add_ns_2t,
        submit_ns_per_frame,
        reply_ns,
        queue_ns_per_frame: admission(r),
        append_us: durable_append(r, scratch)?,
    })
}

/// One exact forward through `score_records_lane`, and the per-record
/// cost of a 32-record batch.
fn nn(r: &Replay) -> (Cost, Cost) {
    let records: Vec<Record> = (0..64)
        .map(|i| {
            let at = i * r.horizon;
            let rows: Vec<Vec<f32>> = (at..at + r.window).map(|x| r.row(x).to_vec()).collect();
            Record {
                anchor: (at + r.window - 1) as u64,
                covariates: Matrix::from_rows(&rows),
                labels: vec![EventLabel::absent(); r.state.num_events()],
            }
        })
        .collect();
    let mut i = 0;
    let (one, n1) = ns_per_op(8, || {
        let rec = std::slice::from_ref(&records[i % records.len()]);
        black_box(score_records_lane(r.model, rec, 1, InferenceLane::Exact));
        i += 1;
    });
    let (b32, n32) = ns_per_op(1, || {
        black_box(score_records_lane(
            r.model,
            &records[..32],
            32,
            InferenceLane::Exact,
        ));
    });
    (
        Cost {
            value: one / 1e3,
            samples: n1,
        },
        Cost {
            value: b32 / 32.0 / 1e3,
            samples: n32 * 32,
        },
    )
}

struct PushCosts {
    /// ns per non-anchor frame.
    non_anchor: Cost,
    /// µs per anchor frame (window assembly, forward, conformal heads).
    anchor: Cost,
    /// ns per frame over everything pushed.
    per_frame: Cost,
}

/// `push_frame` over the replayed stream, timing each anchor alone and
/// each run of `H - 1` non-anchor frames as one block.
fn streaming(r: &Replay, telemetry: Option<Arc<Telemetry>>) -> PushCosts {
    let mut p = predictor(r.model, r.state);
    if let Some(t) = telemetry {
        p.set_telemetry(t);
    }
    let mut next = 0usize;
    let mut rows = |n: usize| -> Vec<Vec<f32>> {
        let out = (next..next + n).map(|x| r.row(x).to_vec()).collect();
        next += n;
        out
    };
    for row in rows(r.window - 1) {
        assert!(p.push_frame(row).is_none(), "warm-up frames never anchor");
    }
    let (mut block_ns, mut anchor_ns) = (Vec::new(), Vec::new());
    let (mut total_ns, mut frames) = (0.0, 0u64);
    let start = Instant::now();
    while start.elapsed() < BUDGET || anchor_ns.len() < 50 {
        let anchor = rows(1).pop().expect("one row");
        let t0 = Instant::now();
        let decided = p.push_frame(anchor).is_some();
        let a = t0.elapsed().as_nanos() as f64;
        assert!(decided, "anchor cadence is M then every H frames");
        let block = rows(r.horizon - 1);
        let t0 = Instant::now();
        for row in block {
            black_box(p.push_frame(row));
        }
        let b = t0.elapsed().as_nanos() as f64;
        anchor_ns.push(a);
        block_ns.push(b / (r.horizon - 1) as f64);
        total_ns += a + b;
        frames += r.horizon as u64;
    }
    let anchors = anchor_ns.len() as u64;
    PushCosts {
        non_anchor: Cost {
            value: median(&block_ns),
            samples: anchors * (r.horizon as u64 - 1),
        },
        anchor: Cost {
            value: median(&anchor_ns) / 1e3,
            samples: anchors,
        },
        per_frame: Cost {
            value: total_ns / frames as f64,
            samples: frames,
        },
    }
}

/// `Telemetry::add` on one thread, and per-call latency with two threads
/// adding to one recorder at once.
fn telemetry() -> (Cost, Cost) {
    let t = Telemetry::new();
    let (value, samples) = ns_per_op(1000, || t.add("perfbench.add", 1));
    let one = Cost { value, samples };
    const CALLS: u32 = 100_000;
    let shared = Telemetry::new();
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let barrier = Barrier::new(2);
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let t0 = Instant::now();
                        for _ in 0..CALLS {
                            shared.add("perfbench.add", 1);
                        }
                        t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("adder thread"))
                .collect()
        });
        rounds.push(per_thread.iter().sum::<f64>() / 2.0);
    }
    let two = Cost {
        value: median(&rounds),
        samples: 5 * 2 * u64::from(CALLS),
    };
    (one, two)
}

/// `encode` + `try_decode` of the workload's `SubmitFrames` (per frame),
/// and of its replies as the stream produces them (per reply).
fn protocol(r: &Replay) -> (Cost, Cost) {
    let dim = r.dim() as u32;
    let submit = Message::SubmitFrames {
        stream_id: r.stream,
        dim,
        data: r.batch_data(0),
    };
    let round_trip = |m: &Message| {
        let bytes = encode(m);
        black_box(try_decode(&bytes).expect("own encoding decodes"));
    };
    let (s, sn) = ns_per_op(16, || round_trip(&submit));
    // The reply mix: one reply per batch over enough batches to include
    // decisions at the stream's own cadence.
    let mut p = predictor(r.model, r.state);
    let batches = (8 * r.horizon).div_ceil(r.batch).max(1);
    let replies: Vec<Message> = (0..batches)
        .map(|k| {
            let decisions = (k * r.batch..(k + 1) * r.batch)
                .filter_map(|x| p.push_frame(r.row(x).to_vec()))
                .map(|d| decision_to_wire(&d))
                .collect();
            Message::Decisions {
                stream_id: r.stream,
                decisions,
            }
        })
        .collect();
    let (rp, rn) = ns_per_op(1, || {
        for m in &replies {
            round_trip(m);
        }
    });
    (
        Cost {
            value: s / r.batch as f64,
            samples: sn * r.batch as u64,
        },
        Cost {
            value: rp / replies.len() as f64,
            samples: rn * replies.len() as u64,
        },
    )
}

/// The server's admission path per frame: split the decoded batch into
/// per-row vectors, `FrameQueue::try_enqueue`, and drain.
fn admission(r: &Replay) -> Cost {
    let data = r.batch_data(0);
    let dim = r.dim();
    let mut q = FrameQueue::new(8192);
    let (ns, n) = ns_per_op(8, || {
        let rows: Vec<Vec<f32>> = data.chunks(dim).map(<[f32]>::to_vec).collect();
        q.try_enqueue(rows).expect("an empty queue holds one batch");
        while let Some(row) = q.pop() {
            black_box(row);
        }
    });
    Cost {
        value: ns / r.batch as f64,
        samples: n * r.batch as u64,
    }
}

/// `DurableStore::append` (write + `sync_data`) of the workload's
/// `FramesPushed` event, each append timed alone.
fn durable_append(r: &Replay, scratch: &Scratch) -> std::io::Result<Cost> {
    let dir = scratch.fresh("append");
    let (mut store, _) = DurableStore::open(&dir).map_err(std::io::Error::other)?;
    let event = SessionEvent::FramesPushed {
        stream_id: r.stream,
        dim: r.dim() as u32,
        data: r.batch_data(0),
    };
    let mut us = Vec::new();
    let start = Instant::now();
    while (start.elapsed() < BUDGET || us.len() < 20) && us.len() < 2000 {
        let t0 = Instant::now();
        store.append(&event).map_err(std::io::Error::other)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    Ok(Cost {
        value: median(&us),
        samples: us.len() as u64,
    })
}

/// Server-side numbers read over `MetricsQuery`, as means over every
/// retained window.
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    pub read_wait_us: Cost,
    pub reply_write_us: Cost,
    pub decision_us: Cost,
    pub inference_us: Cost,
    pub commit_us: Cost,
    pub appends: u64,
    pub append_bytes: u64,
    pub snapshots: u64,
    pub rejects: u64,
    /// Submits and frames of the drives the numbers cover.
    pub submits: u64,
    pub frames: u64,
}

fn series_mean_us(info: &MetricsInfo, name: &str, label: &str) -> Cost {
    let (count, sum) = info.series_for(name, label).map_or((0, 0.0), |s| {
        s.windows
            .iter()
            .fold((0, 0.0), |(c, t), w| (c + w.count, t + w.sum))
    });
    Cost {
        value: if count == 0 {
            0.0
        } else {
            sum / count as f64 * 1e6
        },
        samples: count,
    }
}

fn counter(info: &MetricsInfo, name: &str) -> u64 {
    info.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

pub fn in_situ(info: &MetricsInfo, submits: u64, frames: u64) -> InSitu {
    InSitu {
        read_wait_us: series_mean_us(info, "serve.stage_seconds", "session_read"),
        reply_write_us: series_mean_us(info, "serve.stage_seconds", "reply_write"),
        decision_us: series_mean_us(info, "serve.decision_seconds", ""),
        inference_us: series_mean_us(info, "stream.stage_seconds", "inference"),
        commit_us: series_mean_us(info, "durable.commit_seconds", ""),
        appends: counter(info, "durable.appends"),
        append_bytes: counter(info, "durable.append_bytes"),
        snapshots: counter(info, "durable.snapshot_builds"),
        rejects: counter(info, "serve.rejected"),
        submits,
        frames,
    }
}

/// One ledger line: a layer's share of the end-to-end time per frame.
pub struct Line {
    pub layer: &'static str,
    pub ns_per_frame: f64,
}

/// Splits the end-to-end ns/frame into layer costs built from the
/// isolated replays (and the in-situ reply write and commit costs, which
/// need a live socket and journal). `decisions_per_frame` weights the
/// anchor cost; `durable` adds the journal line. The last line is the
/// unattributed remainder.
pub fn ledger(
    e2e_ns_per_frame: f64,
    iso: &Isolated,
    situ: Option<&InSitu>,
    batch: usize,
    decisions_per_frame: f64,
    durable: bool,
) -> Vec<Line> {
    let b = batch as f64;
    let mut lines = vec![Line {
        layer: "streaming",
        ns_per_frame: iso.push_ns_per_frame.value * (1.0 - decisions_per_frame)
            + iso.anchor_us.value * 1e3 * decisions_per_frame,
    }];
    if let Some(s) = situ {
        lines.push(Line {
            layer: "telemetry",
            ns_per_frame: iso.telemetry_ns_per_frame.value,
        });
        lines.push(Line {
            layer: "protocol",
            ns_per_frame: iso.submit_ns_per_frame.value + iso.reply_ns.value / b,
        });
        lines.push(Line {
            layer: "admission",
            ns_per_frame: iso.queue_ns_per_frame.value,
        });
        lines.push(Line {
            layer: "server.reply_write",
            ns_per_frame: s.reply_write_us.value * 1e3 / b,
        });
        if durable && s.submits > 0 {
            let per_submit = s.appends as f64 / s.submits as f64;
            lines.push(Line {
                layer: "durable",
                ns_per_frame: s.commit_us.value * 1e3 * per_submit / b,
            });
        }
    }
    let attributed: f64 = lines.iter().map(|l| l.ns_per_frame).sum();
    lines.push(Line {
        layer: "unattributed",
        ns_per_frame: e2e_ns_per_frame - attributed,
    });
    lines
}
