//! The four workloads and the seed-derived inputs they feed.
//!
//! Every workload runs TA10 (M=10, H=200, D=5) at scale 0.3 on the exact
//! lane with the Fixed sampling policy and EHCR at c=0.95, α=0.9. Inputs
//! are pure functions of the seed: it fixes training, the stream ids, and
//! through `fleet::stream_row` each stream's row offset into the shared
//! feature pool.

use eventhit_core::Strategy;
use eventhit_nn::matrix::Matrix;
use eventhit_rng::{rngs::StdRng, Rng, SeedableRng};
use eventhit_serve::fleet;

pub const TASK: &str = "TA10";
pub const SCALE: f64 = 0.3;
pub const STRATEGY: Strategy = Strategy::Ehcr {
    c: 0.95,
    alpha: 0.9,
};

/// Frames of a stream before its rows repeat. `ServeClient::submit` takes
/// each batch by value, so a stream replays a prebuilt deck of this many
/// frames (a multiple of every batch size) and each submit sends a copy
/// of one prebuilt batch; no rows are looked up while timing.
pub const DECK_FRAMES: usize = 8192;

/// lanes-inproc: streams per `run_lanes` call, frames per stream per
/// call, and the number of distinct calls before the inputs repeat.
pub const LANE_STREAMS: usize = 8;
pub const LANE_CALL_FRAMES: usize = 200;
pub const LANE_DECK_CALLS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LanesInproc,
    ServeBulk,
    ServeChatty,
    ServeDurable,
}

/// How a serve workload loads the server: closed loop, one client thread
/// per connection, each round-robining its streams with one outstanding
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeShape {
    pub conns: usize,
    pub streams_per_conn: usize,
    pub batch: usize,
    pub shards: u32,
    pub workers: usize,
    pub durable: bool,
}

impl ServeShape {
    pub fn streams(&self) -> usize {
        self.conns * self.streams_per_conn
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LanesInproc,
        Workload::ServeBulk,
        Workload::ServeChatty,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LanesInproc => "lanes-inproc",
            Workload::ServeBulk => "serve-bulk",
            Workload::ServeChatty => "serve-chatty",
            Workload::ServeDurable => "serve-durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: which layer it isolates.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LanesInproc => {
                "run_lanes over 8 streams on one worker, no sockets or telemetry: \
                 encoder and streaming cost undiluted"
            }
            Workload::ServeBulk => {
                "256-frame submits over 2x16 streams: per-frame serving work \
                 (telemetry, row copies, queue, decode) dominates"
            }
            Workload::ServeChatty => {
                "8-frame submits over 2x16 streams with staggered anchors: the \
                 per-request wire path dominates, the encoder shows in 1 of 25 submits"
            }
            Workload::ServeDurable => {
                "4 shards with journals, 32-frame submits: commit-before-reply \
                 fsync, the router and per-shard logs"
            }
        }
    }

    /// The serving shape, or `None` for the in-process workload.
    pub fn serve(self) -> Option<ServeShape> {
        let shape = |batch, shards, workers, durable| ServeShape {
            conns: 2,
            streams_per_conn: 16,
            batch,
            shards,
            workers,
            durable,
        };
        match self {
            Workload::LanesInproc => None,
            Workload::ServeBulk => Some(shape(256, 1, 2, false)),
            Workload::ServeChatty => Some(shape(8, 1, 2, false)),
            Workload::ServeDurable => Some(shape(32, 4, 1, true)),
        }
    }
}

/// `n` distinct nonzero stream ids drawn from the seed. `phase` keeps the
/// ids of a traced run's phases apart while staying seed-determined.
pub fn stream_ids(seed: u64, phase: u64, n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0000 ^ phase);
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    while ids.len() < n {
        let id: u32 = rng.random_range(1..u32::MAX);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// Frame `r` of stream `id`: its `fleet::stream_row`, replayed every
/// `cycle` frames.
pub fn frame(pool: &[Vec<f32>], id: u32, r: usize, cycle: usize) -> &[f32] {
    fleet::stream_row(pool, id, r % cycle)
}

/// One served stream's prebuilt batches, in submit order.
pub struct StreamDeck {
    pub id: u32,
    pub batches: Vec<Vec<f32>>,
    /// Batches sent before the connection's round-robin starts.
    pub lead: usize,
}

impl StreamDeck {
    pub fn build(pool: &[Vec<f32>], id: u32, batch: usize) -> StreamDeck {
        let batches = (0..DECK_FRAMES / batch)
            .map(|k| {
                (k * batch..(k + 1) * batch)
                    .flat_map(|r| frame(pool, id, r, DECK_FRAMES).iter().copied())
                    .collect()
            })
            .collect();
        StreamDeck {
            id,
            batches,
            lead: 0,
        }
    }
}

/// The decks of streams `ids`, with lead-ins that spread their anchors
/// over the rounds. A stream anchors every `p` = ⌈`horizon`/`batch`⌉
/// batches; the `j`-th of a connection's `n` streams leads with `j·p/n`
/// batches, so each round carries about `n/p` decisions instead of all
/// streams deciding in the same round every `p` rounds.
pub fn decks(
    pool: &[Vec<f32>],
    ids: &[u32],
    shape: &ServeShape,
    horizon: usize,
) -> Vec<StreamDeck> {
    let period = horizon.div_ceil(shape.batch);
    let n = shape.streams_per_conn;
    ids.iter()
        .enumerate()
        .map(|(i, &id)| StreamDeck {
            lead: (i % n) * period / n,
            ..StreamDeck::build(pool, id, shape.batch)
        })
        .collect()
}

/// The rows stream `id` was fed when it received `frames` frames.
pub fn fed_rows(pool: &[Vec<f32>], id: u32, frames: usize) -> Matrix {
    let dim = pool[0].len();
    let mut data = Vec::with_capacity(frames * dim);
    for r in 0..frames {
        data.extend_from_slice(frame(pool, id, r, DECK_FRAMES));
    }
    Matrix::from_vec(frames, dim, data)
}

/// lanes-inproc inputs: call `k` feeds stream `s` the rows
/// `[k·F, (k+1)·F)` of its sequence, and the deck holds
/// [`LANE_DECK_CALLS`] distinct calls.
pub fn lane_deck(pool: &[Vec<f32>], ids: &[u32]) -> Vec<Vec<Matrix>> {
    let cycle = LANE_CALL_FRAMES * LANE_DECK_CALLS;
    let dim = pool[0].len();
    (0..LANE_DECK_CALLS)
        .map(|k| {
            ids.iter()
                .map(|&id| {
                    let mut data = Vec::with_capacity(LANE_CALL_FRAMES * dim);
                    for r in k * LANE_CALL_FRAMES..(k + 1) * LANE_CALL_FRAMES {
                        data.extend_from_slice(frame(pool, id, r, cycle));
                    }
                    Matrix::from_vec(LANE_CALL_FRAMES, dim, data)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_seeded_and_distinct() {
        let a = stream_ids(7, 0, 64);
        assert_eq!(a, stream_ids(7, 0, 64));
        assert_ne!(a, stream_ids(8, 0, 64));
        assert_ne!(a[..32], stream_ids(7, 1, 32)[..]);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn deck_batches_follow_the_stream_rows() {
        let pool: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32, -(i as f32)]).collect();
        let deck = StreamDeck::build(&pool, 3, 8);
        assert_eq!(deck.batches.len(), DECK_FRAMES / 8);
        let fed = fed_rows(&pool, 3, 16);
        assert_eq!(deck.batches[1], fed.as_slice()[16..32]);
        for w in Workload::ALL {
            if let Some(s) = w.serve() {
                assert_eq!(DECK_FRAMES % s.batch, 0, "{}", w.name());
            }
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
