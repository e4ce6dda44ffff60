//! The durable store: log lifecycle, crash recovery, and replay.
//!
//! [`DurableStore::open`] owns the session directory:
//!
//! ```text
//! <dir>/session.evlog          append-only event log
//! <dir>/snap-<events>.evsn     newest checkpoint (older ones pruned)
//! <dir>/model-<fp>.evht        weights persisted by a hot-reload
//! <dir>/state-<fp>.evcs        conformal state persisted by a hot-reload
//! ```
//!
//! Opening scans the log, truncates a torn final record (the footprint of
//! a crash mid-append), loads the newest valid snapshot, and hands back a
//! [`Recovery`] describing exactly what must be replayed. [`replay`] then
//! rebuilds live predictors: snapshot lanes are restored directly (and
//! verified by fingerprint), tail events are re-fed through the real
//! model — every recomputed decision checked against the fingerprint
//! logged before the crash, so a drifted environment fails with
//! [`DurableError::ReplayDiverged`] instead of silently emitting
//! different decisions.

use crate::event::SessionEvent;
use crate::log::{frame_record, scan, Tail};
use crate::snapshot::Snapshot;
use crate::state_io;
use crate::{decision_fingerprint, DurableError, DurableResult};
use eventhit_core::streaming::{HorizonDecision, OnlinePredictor, PredictorState};
use eventhit_core::{ConformalState, EventHit};
use eventhit_telemetry::{Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const LOG_FILE: &str = "session.evlog";

/// An open durable session directory with an append handle on its log.
///
/// Opened with [`DurableStore::open_with_telemetry`], the store reports
/// its own health: `durable.appends` / `durable.append_bytes` /
/// `durable.commit_seconds` for the append path, `durable.snapshot_builds`
/// / `durable.snapshot_prunes` for checkpoints, and
/// `durable.replay_records` / `durable.torn_bytes_truncated` for what
/// recovery found on disk.
pub struct DurableStore {
    dir: PathBuf,
    log: fs::File,
    events_applied: u64,
    telemetry: Arc<Telemetry>,
    /// The append path's series, resolved at open.
    appends: Counter,
    append_bytes: Counter,
    commit_seconds: Histogram,
}

/// What [`DurableStore::open`] found on disk — the inputs to [`replay`].
#[derive(Debug)]
pub struct Recovery {
    /// Newest valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Committed events logged *after* the snapshot (all events when
    /// there is no snapshot), in append order.
    pub tail: Vec<SessionEvent>,
    /// Whether the log ended mid-record and was truncated back to its
    /// last committed boundary.
    pub torn_tail: bool,
    /// Total committed events in the log after truncation.
    pub events_applied: u64,
}

impl DurableStore {
    /// Opens (or creates) a durable session directory. Scans the log,
    /// truncates a torn tail, loads the newest valid snapshot, and
    /// returns the store plus everything recovery needs.
    pub fn open(dir: impl AsRef<Path>) -> DurableResult<(DurableStore, Recovery)> {
        Self::open_with_telemetry(dir, Arc::new(Telemetry::disabled()))
    }

    /// [`DurableStore::open`] with a telemetry recorder. Recovery facts
    /// are recorded immediately (`durable.replay_records` events pending
    /// replay, `durable.torn_bytes_truncated` bytes dropped from a torn
    /// tail); the append and snapshot paths report through the same
    /// recorder for the store's lifetime.
    pub fn open_with_telemetry(
        dir: impl AsRef<Path>,
        telemetry: Arc<Telemetry>,
    ) -> DurableResult<(DurableStore, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);

        let bytes = match fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scanned = scan(&bytes)?;
        let torn_tail = scanned.tail == Tail::Torn;

        let mut events = Vec::with_capacity(scanned.payloads.len());
        for payload in &scanned.payloads {
            events.push(SessionEvent::decode(payload)?);
        }

        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;
        if torn_tail {
            // Drop the half-written record so the next append starts on
            // a committed boundary.
            log.set_len(scanned.valid_bytes)?;
        }

        let snapshot = Snapshot::load_latest(&dir)?;
        let skip = snapshot.as_ref().map_or(0, |s| s.events_applied);
        if skip > events.len() as u64 {
            return Err(DurableError::Format(
                "snapshot claims more events than the log holds",
            ));
        }
        let tail = events.split_off(skip as usize);
        let events_applied = skip + tail.len() as u64;

        if !tail.is_empty() {
            telemetry.add("durable.replay_records", tail.len() as u64);
        }
        if torn_tail {
            telemetry.add(
                "durable.torn_bytes_truncated",
                bytes.len() as u64 - scanned.valid_bytes,
            );
        }

        Ok((
            DurableStore {
                dir,
                log,
                events_applied,
                appends: telemetry.counter("durable.appends", ""),
                append_bytes: telemetry.counter("durable.append_bytes", ""),
                commit_seconds: telemetry.histogram("durable.commit_seconds", ""),
                telemetry,
            },
            Recovery {
                snapshot,
                tail,
                torn_tail,
                events_applied,
            },
        ))
    }

    /// Appends one event, flushing it to disk before returning — after
    /// `append` returns, the event survives a crash. Each append counts
    /// under `durable.appends` / `durable.append_bytes`, and the
    /// write-plus-sync interval lands in the `durable.commit_seconds`
    /// histogram.
    pub fn append(&mut self, event: &SessionEvent) -> DurableResult<()> {
        let rec = frame_record(&event.encode());
        let commit_start = self.telemetry.now();
        self.log.write_all(&rec)?;
        self.log.sync_data()?;
        self.commit_seconds
            .observe(self.telemetry.now() - commit_start);
        self.appends.add(1);
        self.append_bytes.add(rec.len() as u64);
        self.events_applied += 1;
        Ok(())
    }

    /// Total committed events (snapshot-covered + appended).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// The session directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Publishes a checkpoint (atomically; older snapshots pruned).
    /// Builds count under `durable.snapshot_builds`, pruned older files
    /// under `durable.snapshot_prunes`.
    pub fn write_snapshot(&self, snapshot: &Snapshot) -> DurableResult<PathBuf> {
        let (path, pruned) = snapshot.write_with_prune_count(&self.dir)?;
        self.telemetry.add("durable.snapshot_builds", 1);
        if pruned > 0 {
            self.telemetry.add("durable.snapshot_prunes", pruned);
        }
        Ok(path)
    }

    /// Persists a hot-reload's weights and conformal state beside the
    /// log; returns the fingerprint to record in the
    /// [`SessionEvent::ModelReloaded`] event.
    pub fn save_reload(&self, model: &mut EventHit, state: &ConformalState) -> DurableResult<u64> {
        state_io::save_reload(&self.dir, model, state)
    }

    /// Loads a persisted reload pair by fingerprint.
    pub fn load_reload(&self, fingerprint: u64) -> DurableResult<(EventHit, ConformalState)> {
        state_io::load_reload(&self.dir, fingerprint)
    }
}

/// A lane rebuilt by [`replay`], ready to continue serving.
pub struct ReplayedLane {
    /// The live predictor, restored to its pre-crash state.
    pub predictor: OnlinePredictor,
    /// Feature dimension of the lane's frames.
    pub dim: u32,
    /// Total frames the lane has accepted — the stream's `next_seq`.
    pub frames: u64,
    /// Total decisions whose emission was committed to the log.
    pub decisions: u64,
}

/// The hot-reloaded model active at the crash, rebuilt from disk.
pub struct ReloadedModel {
    /// The reloaded weights.
    pub model: EventHit,
    /// The conformal state refitted for those weights.
    pub state: ConformalState,
    /// The weight fingerprint the pair is keyed by.
    pub fingerprint: u64,
}

/// Everything [`replay`] rebuilds.
pub struct Replayed {
    /// Live lanes keyed by stream id.
    pub lanes: BTreeMap<u32, ReplayedLane>,
    /// The active hot-reload, if one happened before the crash.
    pub reload: Option<ReloadedModel>,
}

/// Rebuilds live lane state from a [`Recovery`].
///
/// `make_lane` constructs a fresh boot predictor for a stream id — the
/// same factory the serving layer uses. Snapshot lanes are restored
/// directly and verified against their recorded state fingerprint; tail
/// events are re-applied through the real model, each recomputed
/// decision checked against its logged fingerprint.
///
/// Decisions recomputed during replay whose emission was never committed
/// (a crash can land between the `FramesPushed` append and the
/// `DecisionEmitted` append) are *discarded*: the frames count toward
/// `next_seq`, but the decision is not retransmitted. Clients observe an
/// at-most-once decision stream across a crash; see DESIGN.md §14.
pub fn replay(
    dir: &Path,
    recovery: &Recovery,
    make_lane: &mut dyn FnMut(u32) -> OnlinePredictor,
) -> DurableResult<Replayed> {
    let mut reload: Option<ReloadedModel> = None;
    let mut lanes: BTreeMap<u32, ReplayedLane> = BTreeMap::new();
    let mut pending: BTreeMap<u32, VecDeque<HorizonDecision>> = BTreeMap::new();

    if let Some(snap) = &recovery.snapshot {
        if let Some(fp) = snap.reload_fingerprint {
            let (model, state) = state_io::load_reload(dir, fp)?;
            reload = Some(ReloadedModel {
                model,
                state,
                fingerprint: fp,
            });
        }
        for ls in &snap.lanes {
            let mut predictor = make_lane(ls.stream_id);
            if let Some(r) = &reload {
                predictor.reload_model(r.model.clone(), r.state.clone())?;
            }
            let st = PredictorState {
                rows: ls.rows.clone(),
                frames_seen: ls.frames_seen,
                countdown: ls.countdown,
            };
            predictor.restore_state(&st)?;
            if predictor.export_state().fingerprint() != ls.state_fingerprint {
                return Err(DurableError::SnapshotDiverged {
                    stream_id: ls.stream_id,
                });
            }
            lanes.insert(
                ls.stream_id,
                ReplayedLane {
                    predictor,
                    dim: ls.dim,
                    frames: ls.frames,
                    decisions: ls.decisions,
                },
            );
        }
    }

    for event in &recovery.tail {
        match event {
            SessionEvent::StreamAdmitted { stream_id, dim } => {
                let mut predictor = make_lane(*stream_id);
                if let Some(r) = &reload {
                    predictor.reload_model(r.model.clone(), r.state.clone())?;
                }
                lanes.insert(
                    *stream_id,
                    ReplayedLane {
                        predictor,
                        dim: *dim,
                        frames: 0,
                        decisions: 0,
                    },
                );
            }
            SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            } => {
                let lane = lanes
                    .get_mut(stream_id)
                    .ok_or(DurableError::Format("frames logged for unknown stream"))?;
                if *dim != lane.dim {
                    return Err(DurableError::Format(
                        "frame batch dimension differs from its stream's",
                    ));
                }
                for row in data.chunks(*dim as usize) {
                    if let Some(d) = lane.predictor.push_frame(row.to_vec()) {
                        pending.entry(*stream_id).or_default().push_back(d);
                    }
                    lane.frames += 1;
                }
            }
            SessionEvent::DecisionEmitted {
                stream_id,
                anchor,
                fingerprint,
            } => {
                let diverged = DurableError::ReplayDiverged {
                    stream_id: *stream_id,
                    anchor: *anchor,
                };
                let lane = lanes
                    .get_mut(stream_id)
                    .ok_or(DurableError::Format("decision logged for unknown stream"))?;
                let recomputed = pending
                    .get_mut(stream_id)
                    .and_then(VecDeque::pop_front)
                    .ok_or(diverged)?;
                if recomputed.anchor != *anchor || decision_fingerprint(&recomputed) != *fingerprint
                {
                    return Err(DurableError::ReplayDiverged {
                        stream_id: *stream_id,
                        anchor: *anchor,
                    });
                }
                lane.decisions += 1;
            }
            SessionEvent::ModelReloaded { fingerprint } => {
                let (model, state) = state_io::load_reload(dir, *fingerprint)?;
                for lane in lanes.values_mut() {
                    lane.predictor.reload_model(model.clone(), state.clone())?;
                }
                reload = Some(ReloadedModel {
                    model,
                    state,
                    fingerprint: *fingerprint,
                });
            }
            SessionEvent::StreamClosed { stream_id } => {
                lanes.remove(stream_id);
                pending.remove(stream_id);
            }
        }
    }

    Ok(Replayed { lanes, reload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::LaneSnapshot;
    use eventhit_core::{task, ExperimentConfig, Strategy, TaskRun};
    use std::sync::OnceLock;

    const STRATEGY: Strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

    fn trained() -> &'static TaskRun {
        static RUN: OnceLock<TaskRun> = OnceLock::new();
        RUN.get_or_init(|| TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(71)))
    }

    fn boot_lane(_stream_id: u32) -> OnlinePredictor {
        let run = trained();
        OnlinePredictor::new(run.model.clone(), run.state.clone(), STRATEGY)
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("evstore-{tag}-{}", std::process::id()))
    }

    /// Feeds `rows` into the store + a live predictor the way the durable
    /// server does: log the batch first, then feed, then log decisions.
    fn serve_rows(
        store: &mut DurableStore,
        lane: &mut ReplayedLane,
        stream_id: u32,
        rows: &[Vec<f32>],
    ) -> Vec<HorizonDecision> {
        let dim = rows[0].len() as u32;
        let data: Vec<f32> = rows.iter().flatten().copied().collect();
        store
            .append(&SessionEvent::FramesPushed {
                stream_id,
                dim,
                data,
            })
            .unwrap();
        let mut out = Vec::new();
        for row in rows {
            if let Some(d) = lane.predictor.push_frame(row.clone()) {
                store
                    .append(&SessionEvent::DecisionEmitted {
                        stream_id,
                        anchor: d.anchor,
                        fingerprint: decision_fingerprint(&d),
                    })
                    .unwrap();
                lane.decisions += 1;
                out.push(d);
            }
            lane.frames += 1;
        }
        out
    }

    #[test]
    fn empty_dir_opens_clean() {
        let dir = tmp("empty");
        let (store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.tail.is_empty());
        assert!(!recovery.torn_tail);
        assert_eq!(store.events_applied(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_survive_reopen_and_torn_tail_is_truncated() {
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted {
                    stream_id: 3,
                    dim: 2,
                })
                .unwrap();
            store
                .append(&SessionEvent::StreamClosed { stream_id: 3 })
                .unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let log_path = dir.join(LOG_FILE);
        let committed = fs::metadata(&log_path).unwrap().len();
        let half = frame_record(&SessionEvent::StreamClosed { stream_id: 9 }.encode());
        let mut f = fs::OpenOptions::new().append(true).open(&log_path).unwrap();
        f.write_all(&half[..half.len() - 3]).unwrap();
        drop(f);

        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.tail.len(), 2);
        assert_eq!(fs::metadata(&log_path).unwrap().len(), committed);
        // The log is append-ready again.
        store
            .append(&SessionEvent::StreamAdmitted {
                stream_id: 4,
                dim: 2,
            })
            .unwrap();
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovery.tail.len(), 3);
        assert!(!recovery.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_restores_bit_identical_decisions() {
        let dir = tmp("replay");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let n = run.window + run.horizon * 4;
        let rows: Vec<Vec<f32>> = (0..n).map(|r| run.features.row(r).to_vec()).collect();
        let dim = rows[0].len() as u32;
        let cut = run.window + run.horizon + 2;

        // Uninterrupted reference.
        let mut reference = boot_lane(0);
        let expected: Vec<_> = rows
            .iter()
            .filter_map(|r| reference.push_frame(r.clone()))
            .collect();

        // Serve the prefix durably, snapshotting part-way, then "crash".
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
                .unwrap();
            let mut lane = ReplayedLane {
                predictor: boot_lane(0),
                dim,
                frames: 0,
                decisions: 0,
            };
            let mut got = serve_rows(&mut store, &mut lane, 0, &rows[..run.window + 1]);
            // Checkpoint here: recovery must replay only the tail after it.
            let st = lane.predictor.export_state();
            store
                .write_snapshot(&Snapshot {
                    events_applied: store.events_applied(),
                    reload_fingerprint: None,
                    lanes: vec![LaneSnapshot {
                        stream_id: 0,
                        dim,
                        frames: lane.frames,
                        decisions: lane.decisions,
                        frames_seen: st.frames_seen,
                        countdown: st.countdown,
                        rows: st.rows.clone(),
                        state_fingerprint: st.fingerprint(),
                    }],
                })
                .unwrap();
            got.extend(serve_rows(
                &mut store,
                &mut lane,
                0,
                &rows[run.window + 1..cut],
            ));
            assert!(!got.is_empty());
            assert_eq!(got, expected[..got.len()].to_vec());
        } // crash: store dropped without closing streams

        // Recover and finish the stream.
        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.snapshot.is_some());
        let replayed = replay(&dir, &recovery, &mut boot_lane).unwrap();
        let mut lane = replayed.lanes.into_values().next().unwrap();
        assert_eq!(lane.frames, cut as u64);
        let done_before = expected
            .iter()
            .take_while(|d| d.anchor < cut as u64)
            .count();
        assert_eq!(lane.decisions, done_before as u64);
        let after = serve_rows(&mut store, &mut lane, 0, &rows[cut..]);
        assert_eq!(after, expected[done_before..].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_detects_divergence() {
        let dir = tmp("diverge");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let dim = run.features.cols() as u32;
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store
            .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
            .unwrap();
        let mut lane = ReplayedLane {
            predictor: boot_lane(0),
            dim,
            frames: 0,
            decisions: 0,
        };
        let rows: Vec<Vec<f32>> = (0..run.window + 1)
            .map(|r| run.features.row(r).to_vec())
            .collect();
        let got = serve_rows(&mut store, &mut lane, 0, &rows);
        assert_eq!(got.len(), 1);
        // Tamper: log a decision that never happened.
        store
            .append(&SessionEvent::DecisionEmitted {
                stream_id: 0,
                anchor: 999,
                fingerprint: 0x1234,
            })
            .unwrap();
        let (_, recovery) = DurableStore::open(&dir).unwrap();
        assert!(matches!(
            replay(&dir, &recovery, &mut boot_lane),
            Err(DurableError::ReplayDiverged {
                stream_id: 0,
                anchor: 999
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_applies_model_reload_from_disk() {
        let dir = tmp("reload");
        let _ = fs::remove_dir_all(&dir);
        let run = trained();
        let other = TaskRun::execute(&task("TA10").unwrap(), &ExperimentConfig::quick(72));
        let dim = run.features.cols() as u32;
        let n = run.window + run.horizon * 3;
        let rows: Vec<Vec<f32>> = (0..n).map(|r| run.features.row(r).to_vec()).collect();
        let swap_at = run.window + 1;

        // Reference: same swap applied in-process, no durability.
        let mut reference = boot_lane(0);
        let mut expected = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if i == swap_at {
                reference
                    .reload_model(other.model.clone(), other.state.clone())
                    .unwrap();
            }
            if let Some(d) = reference.push_frame(row.clone()) {
                expected.push(d);
            }
        }

        // Durable run: crash right after the reload is logged.
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .append(&SessionEvent::StreamAdmitted { stream_id: 0, dim })
                .unwrap();
            let mut lane = ReplayedLane {
                predictor: boot_lane(0),
                dim,
                frames: 0,
                decisions: 0,
            };
            serve_rows(&mut store, &mut lane, 0, &rows[..swap_at]);
            let mut new_model = other.model.clone();
            let fp = store.save_reload(&mut new_model, &other.state).unwrap();
            store
                .append(&SessionEvent::ModelReloaded { fingerprint: fp })
                .unwrap();
        }

        let (mut store, recovery) = DurableStore::open(&dir).unwrap();
        let replayed = replay(&dir, &recovery, &mut boot_lane).unwrap();
        assert!(replayed.reload.is_some());
        let mut lane = replayed.lanes.into_values().next().unwrap();
        let done = expected
            .iter()
            .take_while(|d| d.anchor < swap_at as u64)
            .count();
        let after = serve_rows(&mut store, &mut lane, 0, &rows[swap_at..]);
        assert_eq!(after, expected[done..].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }
}
