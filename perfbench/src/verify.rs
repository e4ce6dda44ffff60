//! The correctness gate: every decision the timed phase produced is
//! compared bit-for-bit with a `run_lanes` reference computed afterwards
//! from the same rows on two workers.

use std::collections::BTreeMap;

use eventhit_core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit_core::{ConformalState, EventHit};
use eventhit_parallel::Pool;
use eventhit_serve::convert::decision_from_wire;
use eventhit_serve::protocol::WireDecision;

use crate::drive::{lanes_for, LanesRun};
use crate::setup::predictor;
use crate::workload::fed_rows;

/// Streams per reference `run_lanes` call: bounds the rows held at once.
const REFERENCE_CHUNK: usize = 2;

/// Positions at which `got` and `want` differ, counting a length
/// mismatch as that many divergent decisions.
fn divergence(got: &[LaneDecision], want: &[LaneDecision]) -> u64 {
    let differing = got.iter().zip(want).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Divergent decisions of a served run: per chunk of streams, the served
/// decisions in `run_lanes` order against `run_lanes` over the rows each
/// stream was fed.
pub fn served(
    model: &EventHit,
    state: &ConformalState,
    pool_rows: &[Vec<f32>],
    fed: &BTreeMap<u32, usize>,
    decisions: &[(u32, WireDecision)],
) -> u64 {
    let pool = Pool::new(2);
    let ids: Vec<u32> = fed.keys().copied().collect();
    let mut by_stream: BTreeMap<u32, Vec<LaneDecision>> = BTreeMap::new();
    for (id, d) in decisions {
        by_stream.entry(*id).or_default().push(LaneDecision {
            stream_id: *id as usize,
            decision: decision_from_wire(d),
        });
    }
    // Decisions for a stream that was never fed cannot match anything.
    let mut diverged: u64 = by_stream
        .iter()
        .filter(|(id, _)| !fed.contains_key(id))
        .map(|(_, v)| v.len() as u64)
        .sum();
    for chunk in ids.chunks(REFERENCE_CHUNK) {
        let lanes: Vec<StreamLane> = chunk
            .iter()
            .map(|&id| StreamLane {
                stream_id: id as usize,
                predictor: predictor(model, state),
                features: fed_rows(pool_rows, id, fed[&id]),
                from: 0,
            })
            .collect();
        let want = run_lanes(lanes, &pool);
        let mut got: Vec<LaneDecision> = chunk
            .iter()
            .flat_map(|id| by_stream.remove(id).unwrap_or_default())
            .collect();
        got.sort_by_key(|d| (d.decision.anchor, d.stream_id));
        diverged += divergence(&got, &want);
    }
    diverged
}

/// Divergent decisions of an in-process run: each call against a
/// two-worker `run_lanes` over the same deck call.
pub fn lanes(
    model: &EventHit,
    state: &ConformalState,
    ids: &[u32],
    deck: &[Vec<eventhit_nn::matrix::Matrix>],
    run: &LanesRun,
) -> u64 {
    let pool = Pool::new(2);
    let mut reference: BTreeMap<usize, Vec<LaneDecision>> = BTreeMap::new();
    run.calls
        .iter()
        .map(|(idx, got)| {
            let want = reference
                .entry(*idx)
                .or_insert_with(|| run_lanes(lanes_for(model, state, ids, &deck[*idx]), &pool));
            divergence(got, want)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_core::streaming::HorizonDecision;
    use eventhit_core::DegradationTag;

    fn d(stream: usize, anchor: u64) -> LaneDecision {
        LaneDecision {
            stream_id: stream,
            decision: HorizonDecision {
                anchor,
                predictions: vec![],
                degradation: DegradationTag::None,
            },
        }
    }

    #[test]
    fn divergence_counts_mismatches_and_missing() {
        let want = [d(1, 9), d(2, 9), d(1, 209)];
        assert_eq!(divergence(&want, &want), 0);
        assert_eq!(divergence(&[d(1, 9), d(2, 9), d(1, 210)], &want), 1);
        assert_eq!(divergence(&want[..1], &want), 2);
    }
}
