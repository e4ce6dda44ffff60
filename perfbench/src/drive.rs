//! The timed phases: a closed-loop load over real loopback sockets, and
//! the in-process `run_lanes` loop. Both only replay prebuilt inputs.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use eventhit_core::multi::{run_lanes, LaneDecision, StreamLane};
use eventhit_core::{ConformalState, EventHit};
use eventhit_nn::matrix::Matrix;
use eventhit_parallel::Pool;
use eventhit_serve::protocol::WireDecision;
use eventhit_serve::{Response, ServeClient};

use crate::report::Event;
use crate::setup::predictor;
use crate::workload::{ServeShape, StreamDeck, LANE_CALL_FRAMES};

/// Untimed load before every timed phase, so connections, lanes and
/// caches are warm when timing starts. Its decisions are verified too.
pub const WARMUP_SECONDS: f64 = 1.0;

/// One client-side span: a call into the system, tagged with the trace
/// id the server's stage samples carry (0 for untraced calls).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when tracing, measured from a shared epoch.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                trace,
                start_ns: since(self.epoch, start),
                end_ns: since(self.epoch, end),
            });
        }
    }
}

fn since(epoch: Instant, t: Instant) -> u64 {
    (t - epoch).as_nanos() as u64
}

/// What a closed-loop drive observed across its connections.
pub struct ServeRun {
    /// Frames of the timed phase.
    pub frames: u64,
    /// Timed phase: from the end of the connections' common warm-up to
    /// the last reply, in ns since the epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Every accepted `SubmitFrames` round trip of the timed phase.
    pub events: Vec<Event>,
    /// Accepted submits, warm-up included.
    pub submits: u64,
    /// Every decision served, warm-up included, tagged with its stream.
    pub decisions: Vec<(u32, WireDecision)>,
    /// Frames each stream was fed (all accepted), warm-up included.
    pub fed: BTreeMap<u32, usize>,
    pub attempted: u64,
    pub failed: u64,
    /// First error any connection hit.
    pub error: Option<String>,
    pub spans: Vec<Span>,
}

impl ServeRun {
    pub fn frames_per_s(&self) -> f64 {
        self.frames as f64 / ((self.end_ns - self.start_ns) as f64 / 1e9).max(1e-9)
    }

    /// Frames fed to the server, warm-up included.
    pub fn fed_frames(&self) -> u64 {
        self.fed.values().map(|&n| n as u64).sum()
    }
}

struct ConnRun {
    frames: u64,
    start: Option<Instant>,
    events: Vec<Event>,
    submits: u64,
    decisions: Vec<(u32, WireDecision)>,
    fed: BTreeMap<u32, usize>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    tracer: Tracer,
}

/// Drives `decks` against the server at `addr` for [`WARMUP_SECONDS`]
/// and then `seconds` timed: one client thread per connection, each
/// owning `shape.streams_per_conn` decks, sending each deck's lead-in
/// and then one batch per stream in turn, waiting for every reply.
/// Traced drives use `submit_traced` and record client spans around every
/// connect, open, submit and close.
pub fn serve(
    addr: SocketAddr,
    shape: &ServeShape,
    decks: &[StreamDeck],
    dim: u32,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> ServeRun {
    assert_eq!(decks.len(), shape.streams(), "one deck per stream");
    let barrier = Barrier::new(shape.conns);
    let conns: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = decks
            .chunks(shape.streams_per_conn)
            .enumerate()
            .map(|(c, mine)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut run = ConnRun {
                        frames: 0,
                        start: None,
                        events: Vec::new(),
                        submits: 0,
                        decisions: Vec::new(),
                        fed: BTreeMap::new(),
                        attempted: 0,
                        failed: 0,
                        error: None,
                        tracer: Tracer::new(epoch, traced),
                    };
                    let conn = Conn {
                        addr,
                        id: c as u64,
                        decks: mine,
                        dim,
                        seconds,
                    };
                    if let Err(e) = conn.drive(barrier, &mut run) {
                        run.failed += 1;
                        run.error = Some(e.to_string());
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start_ns = conns
        .iter()
        .filter_map(|c| c.start)
        .min()
        .map_or(0, |s| since(epoch, s));
    let mut out = ServeRun {
        frames: 0,
        start_ns,
        end_ns: start_ns,
        events: Vec::new(),
        submits: 0,
        decisions: Vec::new(),
        fed: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        error: None,
        spans: Vec::new(),
    };
    for c in conns {
        out.frames += c.frames;
        out.submits += c.submits;
        out.end_ns = c.events.iter().map(|e| e.end_ns).fold(out.end_ns, u64::max);
        out.events.extend(c.events);
        out.decisions.extend(c.decisions);
        out.fed.extend(c.fed);
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.error = out.error.or(c.error);
        out.spans.extend(c.tracer.spans);
    }
    out
}

/// One client connection's share of a drive.
struct Conn<'a> {
    addr: SocketAddr,
    id: u64,
    decks: &'a [StreamDeck],
    dim: u32,
    seconds: f64,
}

impl Conn<'_> {
    fn drive(&self, barrier: &Barrier, run: &mut ConnRun) -> io::Result<()> {
        // Every connection reaches the barrier, even one that failed to
        // connect or open, or the others would wait forever.
        let opened = self.open(run);
        barrier.wait();
        let mut client = opened?;
        let start = Instant::now() + Duration::from_secs_f64(WARMUP_SECONDS);
        let deadline = start + Duration::from_secs_f64(self.seconds);
        run.start = Some(start);
        // Each stream's next batch; the lead-in batches go first, untimed.
        let mut next = vec![0usize; self.decks.len()];
        for (j, d) in self.decks.iter().enumerate() {
            while next[j] < d.lead {
                self.submit(&mut client, run, j, &mut next, start)?;
            }
        }
        'rounds: loop {
            for j in 0..self.decks.len() {
                if self.submit(&mut client, run, j, &mut next, start)? >= deadline {
                    break 'rounds;
                }
            }
        }
        for d in self.decks {
            let t0 = Instant::now();
            run.attempted += 1;
            let reply = client.close_stream(d.id)?;
            run.tracer.record("close", 0, t0, Instant::now());
            if let Response::Rejected(r) = reply {
                return Err(io::Error::other(format!("close {}: {r}", d.id)));
            }
        }
        Ok(())
    }

    /// Submits stream `j`'s next batch and waits for the reply, which
    /// is timed when the submit starts at or after `start`; returns when
    /// the reply came.
    fn submit(
        &self,
        client: &mut ServeClient,
        run: &mut ConnRun,
        j: usize,
        next: &mut [usize],
        start: Instant,
    ) -> io::Result<Instant> {
        let d = &self.decks[j];
        let data = d.batches[next[j] % d.batches.len()].clone();
        next[j] += 1;
        let frames = data.len() / self.dim as usize;
        run.attempted += 1;
        // Nonzero and unique per request across connections.
        let trace = (self.id + 1) << 40 | run.attempted;
        let t0 = Instant::now();
        let reply = if run.tracer.enabled {
            client.submit_traced(d.id, trace, self.dim, data)
        } else {
            client.submit(d.id, self.dim, data)
        };
        let t1 = Instant::now();
        let decisions = match reply? {
            Response::Ok(decisions) => decisions,
            Response::Rejected(r) => {
                return Err(io::Error::other(format!("submit to {}: {r}", d.id)));
            }
        };
        run.tracer.record("submit", trace, t0, t1);
        if t0 >= start {
            run.events.push(Event {
                end_ns: since(run.tracer.epoch, t1),
                frames: frames as u32,
                us: (t1 - t0).as_secs_f64() * 1e6,
                decision: !decisions.is_empty(),
            });
            run.frames += frames as u64;
        }
        run.submits += 1;
        *run.fed.entry(d.id).or_default() += frames;
        run.decisions
            .extend(decisions.into_iter().map(|x| (d.id, x)));
        Ok(t1)
    }

    fn open(&self, run: &mut ConnRun) -> io::Result<ServeClient> {
        let t0 = Instant::now();
        run.attempted += 1;
        let mut client = ServeClient::connect(self.addr)?;
        run.tracer.record("connect", 0, t0, Instant::now());
        for d in self.decks {
            let t0 = Instant::now();
            run.attempted += 1;
            let reply = client.open_stream(d.id)?;
            run.tracer.record("open", 0, t0, Instant::now());
            if let Response::Rejected(r) = reply {
                return Err(io::Error::other(format!("open {}: {r}", d.id)));
            }
        }
        Ok(client)
    }
}

/// What the in-process loop observed.
#[derive(Default)]
pub struct LanesRun {
    /// Frames of the timed phase.
    pub frames: u64,
    /// Time inside `run_lanes` only; lane construction is excluded.
    pub busy_s: f64,
    /// Timed phase, in ns since the epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Every timed `run_lanes` call (each returns decisions).
    pub events: Vec<Event>,
    /// Frames of every call, warm-up included.
    pub fed: u64,
    /// Per call, warm-up included: the deck index it replayed and the
    /// decisions it returned.
    pub calls: Vec<(usize, Vec<LaneDecision>)>,
    pub spans: Vec<Span>,
}

impl LanesRun {
    pub fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.busy_s.max(1e-9)
    }
}

/// Builds the lanes of one deck call.
pub fn lanes_for(
    model: &EventHit,
    state: &ConformalState,
    ids: &[u32],
    call: &[Matrix],
) -> Vec<StreamLane> {
    ids.iter()
        .zip(call)
        .map(|(&id, features)| StreamLane {
            stream_id: id as usize,
            predictor: predictor(model, state),
            features: features.clone(),
            from: 0,
        })
        .collect()
}

/// Calls `run_lanes` on one worker, call after call over the deck, for
/// [`WARMUP_SECONDS`] and then `seconds` of timed wall time.
pub fn lanes(
    model: &EventHit,
    state: &ConformalState,
    ids: &[u32],
    deck: &[Vec<Matrix>],
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> LanesRun {
    let pool = Pool::new(1);
    let mut tracer = Tracer::new(epoch, traced);
    let mut out = LanesRun::default();
    let frames = ids.len() * LANE_CALL_FRAMES;
    let start = Instant::now() + Duration::from_secs_f64(WARMUP_SECONDS);
    let deadline = start + Duration::from_secs_f64(seconds);
    out.start_ns = since(epoch, start);
    for k in 0.. {
        let idx = k % deck.len();
        let lanes = lanes_for(model, state, ids, &deck[idx]);
        let t0 = Instant::now();
        let decisions = run_lanes(lanes, &pool);
        let t1 = Instant::now();
        tracer.record("run_lanes", k as u64 + 1, t0, t1);
        if t0 >= start {
            let dt = (t1 - t0).as_secs_f64();
            out.busy_s += dt;
            out.events.push(Event {
                end_ns: since(epoch, t1),
                frames: frames as u32,
                us: dt * 1e6,
                decision: true,
            });
            out.frames += frames as u64;
            out.end_ns = since(epoch, t1);
        }
        out.fed += frames as u64;
        out.calls.push((idx, decisions));
        if t1 >= deadline {
            break;
        }
    }
    out.spans = tracer.spans;
    out
}
