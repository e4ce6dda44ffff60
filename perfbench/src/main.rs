//! `perfbench` — the EventHit repository benchmark.
//!
//! ```text
//! perfbench --workload <lanes-inproc|serve-bulk|serve-chatty|serve-durable>
//!           --seed N --seconds S --trace 0|1 [--out FILE]
//! ```
//!
//! One run trains TA10 from the seed (three times, reporting the median
//! set-up), builds every input from the seed, warms the workload up for
//! a second, measures it for `--seconds` (each end-to-end metric is the
//! median over ten equal slices of that time), and checks every decision
//! bit-for-bit against an in-process `run_lanes` reference. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` splits the time in two
//! phases (untraced, then traced with client spans and `submit_traced`)
//! and reports the per-layer metrics, the reconciled ledger and the
//! tracing overhead.
//!
//! Standard output ends with two lines: the self-describing report
//! (units, directions, sample counts, host, parameters, ledger, and the
//! ungated numbers) and the result object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1
//! when any operation failed or any decision diverged. Nothing is written
//! outside a scratch folder under the working directory, which is
//! removed, except the optional `--out` file (report plus every span).

mod drive;
mod layers;
mod report;
mod setup;
mod verify;
mod workload;

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use eventhit_core::streaming::HorizonDecision;
use eventhit_parallel::Pool;
use eventhit_serve::convert::decision_from_wire;
use eventhit_serve::{MetricsInfo, ServeClient, Server};

use drive::{ServeRun, Span};
use layers::{Cost, InSitu, Isolated, Line, Replay};
use report::{json_list, json_str, mean, median, num, result_line, slices, Better, Event, Metric};
use setup::{Prepared, Scratch};
use workload::{ServeShape, StreamDeck, Workload, LANE_CALL_FRAMES, LANE_STREAMS};

const USAGE: &str =
    "usage: perfbench --workload <lanes-inproc|serve-bulk|serve-chatty|serve-durable> \
                     --seed N --seconds S --trace 0|1 [--out FILE]";

/// Length of the probe that reads in-situ server or journal numbers for
/// a workload that does not run that layer itself.
const PROBE_SECONDS: f64 = 1.0;

/// The timed phase is cut into this many equal slices, and each
/// end-to-end metric is the median of its per-slice values: a few
/// seconds of host contention in a run then move it little.
const SLICES: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    match run(&args) {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}

/// Everything a run measured, before it is printed.
#[derive(Default)]
struct Outcome {
    /// The result line's metrics: end-to-end (`--trace 0`) or per-layer.
    metrics: Vec<Metric>,
    /// Reported but not part of the result line.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    divergent: u64,
    errors: Vec<String>,
    ledger: Vec<Line>,
    spans: Vec<Span>,
}

impl Outcome {
    fn count(&mut self, attempted: u64, failed: u64, divergent: u64, error: Option<String>) {
        self.attempted += attempted;
        self.failed += failed + divergent;
        self.divergent += divergent;
        self.errors.extend(error);
    }

    /// The end-to-end metrics of the timed phase `[start_ns, end_ns]`,
    /// each the median over [`SLICES`] slices: throughput (`rate` of a
    /// slice's events given its length in seconds), and the round-trip
    /// percentiles of every request and of those whose reply carried a
    /// decision. The decision p99 is reported ungated: on serve-chatty it
    /// rests on 1 submit in 25 and spread past a quarter of its median
    /// across seeds on a 2-vCPU shared host.
    fn end_to_end(
        &mut self,
        events: &[Event],
        (start_ns, end_ns): (u64, u64),
        rate: impl Fn(&[Event], f64) -> f64,
        latency: &str,
    ) {
        let slices = slices(events, start_ns, end_ns, SLICES);
        let seconds = end_ns.saturating_sub(start_ns) as f64 / 1e9 / SLICES as f64;
        let rates: Vec<f64> = slices.iter().map(|s| rate(s, seconds)).collect();
        let us = |keep: fn(&Event) -> bool| -> Vec<Vec<f64>> {
            slices
                .iter()
                .map(|s| s.iter().filter(|e| keep(e)).map(|e| e.us).collect())
                .collect()
        };
        let (all, decided) = (us(|_| true), us(|e| e.decision));
        self.metrics = vec![
            Metric::new("frames_per_s", "frames/s", Better::Higher, median(&rates))
                .samples(events.iter().map(|e| u64::from(e.frames)).sum())
                .source(format!("median over slices, {latency}")),
            Metric::percentile("submit_p50_us", "us", &all, 0.5, latency),
            Metric::percentile("submit_p99_us", "us", &all, 0.99, latency),
            Metric::percentile("decision_p50_us", "us", &decided, 0.5, latency),
        ];
        self.extra.push(Metric::percentile(
            "decision_p99_us",
            "us",
            &decided,
            0.99,
            latency,
        ));
    }
}

/// Decision and memory numbers every run reports. The relay share is a
/// property of the seed-trained model and the peak RSS follows the
/// training caches each lane's model clone carries, so across seeds both
/// spread far beyond any bound: they are per-layer numbers of the traced
/// run and ungated extras of the timed one.
fn outputs(relayed: u64, frames: u64, decisions: usize, rss: Option<f64>) -> [Metric; 2] {
    [
        Metric::new(
            "decisions.relay_frac",
            "frac",
            Better::Lower,
            relayed as f64 / frames.max(1) as f64,
        )
        .samples(decisions as u64)
        .source("frames the decisions relay over frames ingested"),
        Metric::new(
            "process.rss_peak_mb",
            "MiB",
            Better::Lower,
            rss.unwrap_or(0.0),
        )
        .source("VmHWM after the timed phase, reset after set-up"),
    ]
}

/// Runs the benchmark; `Ok(false)` when an operation failed or a
/// decision diverged (the result is still printed).
fn run(args: &Args) -> io::Result<bool> {
    let host = setup::host();
    let scratch = Scratch::new()?;
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed {}: set-up x{} ...",
        w.name(),
        args.seed,
        setup::SETUP_REPS
    );
    let prep = setup::prepare(w, args.seed, &scratch)?;
    let rss_reset = setup::reset_peak_rss();
    eprintln!("perfbench: measuring for {} s ...", args.seconds);
    let mut out = match w.serve() {
        None => lanes_workload(args, &prep, &scratch)?,
        Some(shape) => serve_workload(args, &shape, &prep, &scratch)?,
    };
    let timings = &prep.timings;
    let n = timings.len() as u64;
    let phase =
        |f: fn(&setup::SetupTiming) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let setup_s = Metric::new(
        "setup_s",
        "s",
        Better::Lower,
        phase(setup::SetupTiming::total),
    )
    .samples(n)
    .source("median of set-up repetitions");
    if args.trace {
        for (name, v) in [
            ("setup.train_s", phase(|t| t.train)),
            ("setup.calibrate_s", phase(|t| t.calibrate)),
            ("setup.bind_s", phase(|t| t.bind)),
        ] {
            out.metrics.push(
                Metric::new(name, "s", Better::Lower, v)
                    .samples(n)
                    .source("setup"),
            );
        }
        out.extra.push(setup_s);
    } else {
        out.metrics.push(setup_s);
    }
    if !prep.deterministic {
        out.count(
            0,
            1,
            0,
            Some("repeated set-ups trained different weights".into()),
        );
    }
    out.extra.push(
        Metric::new(
            "error_rate",
            "frac",
            Better::Lower,
            out.failed as f64 / out.attempted.max(1) as f64,
        )
        .samples(out.attempted)
        .source("failed or rejected operations plus divergent decisions, over attempted"),
    );
    let correct = out.failed == 0 && out.errors.is_empty();

    let report = report_line(args, &host, &prep, &out, rss_reset, correct);
    if let Some(path) = &args.out {
        let mut text = report.clone();
        text.push('\n');
        for s in &out.spans {
            let _ = writeln!(
                text,
                "{{\"span\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(s.name),
                s.trace,
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, text)?;
    }
    for m in out.metrics.iter().chain(&out.extra) {
        eprintln!("  {:<34} {:>22} {}", m.name, num(m.value), m.unit);
    }
    for e in &out.errors {
        eprintln!("perfbench: error: {e}");
    }
    if out.divergent > 0 {
        eprintln!(
            "perfbench: DECISION DIVERGENCE: {} decisions differ from run_lanes",
            out.divergent
        );
    }
    println!("{report}");
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    Ok(correct)
}

/// Frames the events carried.
fn frames(events: &[Event]) -> f64 {
    events.iter().map(|e| f64::from(e.frames)).sum()
}

/// Frames one decision relays to the cloud service.
fn relayed(d: &HorizonDecision) -> u64 {
    d.segments()
        .iter()
        .map(|&(_, s, e)| e.saturating_sub(s) + 1)
        .sum()
}

fn lanes_workload(args: &Args, prep: &Prepared, scratch: &Scratch) -> io::Result<Outcome> {
    let ids = workload::stream_ids(args.seed, 0, LANE_STREAMS);
    let deck = workload::lane_deck(&prep.pool, &ids);
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let drive = |seconds, traced| {
        drive::lanes(
            &prep.model,
            &prep.state,
            &ids,
            &deck,
            seconds,
            traced,
            epoch,
        )
    };
    let verify = |out: &mut Outcome, run: &drive::LanesRun| {
        let divergent = verify::lanes(&prep.model, &prep.state, &ids, &deck, run);
        out.count(run.calls.len() as u64, 0, divergent, None);
    };
    let outputs = |run: &drive::LanesRun, rss| {
        let decisions = run.calls.iter().flat_map(|(_, ds)| ds);
        let relay: u64 = decisions.clone().map(|d| relayed(&d.decision)).sum();
        outputs(relay, run.fed, decisions.count(), rss)
    };
    if !args.trace {
        let run = drive(args.seconds, false);
        let rss = setup::peak_rss_mb();
        verify(&mut out, &run);
        // In-process throughput counts the time inside `run_lanes` only.
        let busy =
            |s: &[Event], _| frames(s) / (s.iter().map(|e| e.us).sum::<f64>() / 1e6).max(1e-9);
        out.end_to_end(
            &run.events,
            (run.start_ns, run.end_ns),
            busy,
            "run_lanes call time",
        );
        out.extra.extend(outputs(&run, rss));
        return Ok(out);
    }
    let plain = drive(args.seconds / 2.0, false);
    let traced = drive(args.seconds / 2.0, true);
    let rss = setup::peak_rss_mb();
    verify(&mut out, &plain);
    verify(&mut out, &traced);
    // lanes-inproc has no wire batches: the protocol, queue and journal
    // replays use serve-bulk's.
    let replay = Replay {
        model: &prep.model,
        state: &prep.state,
        pool: &prep.pool,
        stream: ids[0],
        batch: 256,
        window: prep.window,
        horizon: prep.horizon,
    };
    let iso = layers::isolated(&replay, scratch)?;
    let server = probe(Workload::ServeChatty, args.seed, prep, scratch, &mut out)?;
    let journal = probe(Workload::ServeDurable, args.seed, prep, scratch, &mut out)?;
    let per_call = (LANE_STREAMS * LANE_CALL_FRAMES) as f64;
    let spans: Vec<f64> = traced
        .spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let decisions: usize = traced.calls.iter().map(|(_, ds)| ds.len()).sum();
    out.ledger = layers::ledger(
        mean(&spans) / per_call,
        &iso,
        None,
        256,
        decisions as f64 / traced.fed.max(1) as f64,
        false,
    );
    out.metrics = layer_metrics(
        &iso,
        (&server, "probe:serve-chatty"),
        (&journal, "probe:serve-durable"),
        &out.ledger,
        traced.frames_per_s() / plain.frames_per_s(),
    );
    out.metrics.extend(outputs(&traced, rss));
    out.spans = traced.spans;
    Ok(out)
}

/// Runs `phases` (decks, traced, seconds) in turn against `server`, then
/// reads the server's metrics over one more session.
fn serve_phases(
    server: &Server,
    shape: &ServeShape,
    phases: &[(&[StreamDeck], bool, f64)],
    dim: u32,
    epoch: Instant,
) -> io::Result<(Vec<ServeRun>, MetricsInfo)> {
    let addr = server.local_addr()?;
    let sessions = phases.len() * shape.conns + 1;
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_sessions(sessions, &Pool::new(shape.workers)));
        let runs: Vec<ServeRun> = phases
            .iter()
            .map(|&(decks, traced, seconds)| {
                drive::serve(addr, shape, decks, dim, seconds, traced, epoch)
            })
            .collect();
        let info = ServeClient::connect(addr).and_then(|mut c| c.metrics());
        // A connection that failed early never used its session: fill the
        // server's quota with empty sessions so it winds down.
        while !serving.is_finished() {
            drop(std::net::TcpStream::connect(addr));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        serving.join().expect("server thread panicked");
        Ok((runs, info?))
    })
}

fn serve_workload(
    args: &Args,
    shape: &ServeShape,
    prep: &Prepared,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let server = prep
        .server
        .as_ref()
        .expect("serve workloads bind at set-up");
    let dim = prep.pool[0].len() as u32;
    let n = shape.streams();
    let ids = workload::stream_ids(args.seed, 0, 2 * n);
    let decks = workload::decks(&prep.pool, &ids, shape, prep.horizon);
    let (first, second) = decks.split_at(n);
    let mut out = Outcome::default();
    let phases: Vec<(&[StreamDeck], bool, f64)> = if args.trace {
        vec![
            (first, false, args.seconds / 2.0),
            (second, true, args.seconds / 2.0),
        ]
    } else {
        vec![(first, false, args.seconds)]
    };
    let (runs, info) = serve_phases(server, shape, &phases, dim, Instant::now())?;
    let rss = setup::peak_rss_mb();
    for run in &runs {
        let divergent = verify::served(
            &prep.model,
            &prep.state,
            &prep.pool,
            &run.fed,
            &run.decisions,
        );
        out.count(run.attempted, run.failed, divergent, run.error.clone());
    }
    let last = runs.last().expect("at least one phase");
    let relay: u64 = last
        .decisions
        .iter()
        .map(|(_, d)| relayed(&decision_from_wire(d)))
        .sum();
    let outputs = outputs(relay, last.fed_frames(), last.decisions.len(), rss);
    if !args.trace {
        let wall = |s: &[Event], seconds| frames(s) / seconds;
        out.end_to_end(
            &last.events,
            (last.start_ns, last.end_ns),
            wall,
            "client round trip",
        );
        out.extra.extend(outputs);
        return Ok(out);
    }
    let (plain, traced) = (&runs[0], &runs[1]);
    let situ = layers::in_situ(
        &info,
        plain.submits + traced.submits,
        plain.fed_frames() + traced.fed_frames(),
    );
    let journal = if shape.durable {
        situ.clone()
    } else {
        probe(Workload::ServeDurable, args.seed, prep, scratch, &mut out)?
    };
    let replay = Replay {
        model: &prep.model,
        state: &prep.state,
        pool: &prep.pool,
        stream: ids[0],
        batch: shape.batch,
        window: prep.window,
        horizon: prep.horizon,
    };
    let iso = layers::isolated(&replay, scratch)?;
    let spans: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "submit")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    out.ledger = layers::ledger(
        mean(&spans) / shape.batch as f64,
        &iso,
        Some(&situ),
        shape.batch,
        traced.decisions.len() as f64 / traced.fed_frames().max(1) as f64,
        shape.durable,
    );
    let source = if shape.durable {
        "in-situ"
    } else {
        "probe:serve-durable"
    };
    out.metrics = layer_metrics(
        &iso,
        (&situ, "in-situ"),
        (&journal, source),
        &out.ledger,
        traced.frames_per_s() / plain.frames_per_s(),
    );
    out.metrics.extend(outputs);
    out.spans = traced.spans.clone();
    Ok(out)
}

/// Serves `w`'s shape for [`PROBE_SECONDS`] on a fresh server and reads
/// its in-situ numbers; its decisions are verified like the run's own.
fn probe(
    w: Workload,
    seed: u64,
    prep: &Prepared,
    scratch: &Scratch,
    out: &mut Outcome,
) -> io::Result<InSitu> {
    let shape = w.serve().expect("probes serve");
    let server = setup::bind(&shape, &prep.model, &prep.state, scratch)?;
    let ids = workload::stream_ids(seed, 2, shape.streams());
    let decks = workload::decks(&prep.pool, &ids, &shape, prep.horizon);
    let dim = prep.pool[0].len() as u32;
    let phase = [(decks.as_slice(), false, PROBE_SECONDS)];
    let (runs, info) = serve_phases(&server, &shape, &phase, dim, Instant::now())?;
    let run = &runs[0];
    let divergent = verify::served(
        &prep.model,
        &prep.state,
        &prep.pool,
        &run.fed,
        &run.decisions,
    );
    out.count(run.attempted, run.failed, divergent, run.error.clone());
    Ok(layers::in_situ(&info, run.submits, run.fed_frames()))
}

fn layer_metrics(
    iso: &Isolated,
    (server, server_src): (&InSitu, &str),
    (journal, journal_src): (&InSitu, &str),
    ledger: &[Line],
    overhead: f64,
) -> Vec<Metric> {
    let m = |name, unit, c: Cost, src: &str| {
        Metric::new(name, unit, Better::Lower, c.value)
            .samples(c.samples)
            .source(src)
    };
    let count = |name, unit, v: f64, n: u64, src: &str| {
        Metric::new(name, unit, Better::Lower, v)
            .samples(n)
            .source(src)
    };
    let unattributed = ledger.last().map_or(0.0, |l| l.ns_per_frame);
    vec![
        m("nn.forward_us", "us", iso.forward_us, "isolated"),
        m(
            "nn.forward_b32_us_per_rec",
            "us",
            iso.forward_b32_us_per_rec,
            "isolated",
        ),
        m(
            "streaming.push_ns_per_frame",
            "ns",
            iso.push_ns_per_frame,
            "isolated",
        ),
        m("streaming.anchor_us", "us", iso.anchor_us, "isolated"),
        m(
            "streaming.telemetry_ns_per_frame",
            "ns",
            iso.telemetry_ns_per_frame,
            "isolated",
        ),
        m("telemetry.add_ns", "ns", iso.add_ns, "isolated"),
        m("telemetry.add_ns_2t", "ns", iso.add_ns_2t, "isolated"),
        m(
            "protocol.submit_ns_per_frame",
            "ns",
            iso.submit_ns_per_frame,
            "isolated",
        ),
        m("protocol.reply_ns", "ns", iso.reply_ns, "isolated"),
        m(
            "admission.queue_ns_per_frame",
            "ns",
            iso.queue_ns_per_frame,
            "isolated",
        ),
        count(
            "admission.rejects",
            "count",
            server.rejects as f64,
            server.submits,
            server_src,
        ),
        m("server.read_wait_us", "us", server.read_wait_us, server_src),
        m(
            "server.reply_write_us",
            "us",
            server.reply_write_us,
            server_src,
        ),
        m("server.decision_us", "us", server.decision_us, server_src),
        m("server.inference_us", "us", server.inference_us, server_src),
        m("durable.append_us", "us", iso.append_us, "isolated"),
        m("durable.commit_us", "us", journal.commit_us, journal_src),
        count(
            "durable.appends_per_submit",
            "appends/submit",
            journal.appends as f64 / journal.submits.max(1) as f64,
            journal.submits,
            journal_src,
        ),
        count(
            "durable.bytes_per_frame",
            "B/frame",
            journal.append_bytes as f64 / journal.frames.max(1) as f64,
            journal.frames,
            journal_src,
        ),
        count(
            "durable.snapshots",
            "count",
            journal.snapshots as f64,
            journal.submits,
            journal_src,
        ),
        count(
            "ledger.unattributed",
            "ns/frame",
            unattributed,
            1,
            "traced spans minus layers",
        ),
        Metric::new("trace.overhead", "ratio", Better::Higher, overhead)
            .source("traced over untraced frames_per_s"),
    ]
}

fn report_line(
    args: &Args,
    host: &setup::Host,
    prep: &Prepared,
    out: &Outcome,
    rss_reset: bool,
    correct: bool,
) -> String {
    let mut params = format!(
        "\"task\":{},\"scale\":{},\"window_m\":{},\"horizon_h\":{},\"dim_d\":{},\
         \"lane\":\"exact\",\"sampling\":\"fixed\",\"strategy\":\"EHCR c=0.95 alpha=0.9\",\
         \"setup_reps\":{},\"deck_frames\":{},\"loop\":\"closed\"",
        json_str(workload::TASK),
        workload::SCALE,
        prep.window,
        prep.horizon,
        prep.pool[0].len(),
        prep.timings.len(),
        workload::DECK_FRAMES
    );
    let _ = match args.workload.serve() {
        Some(s) => write!(
            params,
            ",\"conns\":{},\"streams_per_conn\":{},\"batch\":{},\"shards\":{},\
             \"workers_per_shard\":{},\"durable\":{}",
            s.conns, s.streams_per_conn, s.batch, s.shards, s.workers, s.durable
        ),
        None => write!(
            params,
            ",\"streams\":{LANE_STREAMS},\"frames_per_call\":{LANE_CALL_FRAMES},\"workers\":1"
        ),
    };
    let ledger: Vec<String> = out
        .ledger
        .iter()
        .map(|l| {
            format!(
                "{{\"layer\":{},\"ns_per_frame\":{}}}",
                json_str(l.layer),
                num(l.ns_per_frame)
            )
        })
        .collect();
    let mut span_names: Vec<&str> = out.spans.iter().map(|s| s.name).collect();
    span_names.sort_unstable();
    span_names.dedup();
    let spans: Vec<String> = span_names
        .iter()
        .map(|&name| {
            let d: Vec<f64> = out
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect();
            format!(
                "{{\"name\":{},\"count\":{},\"mean_us\":{}}}",
                json_str(name),
                d.len(),
                num(mean(&d))
            )
        })
        .collect();
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"report\":{{\"benchmark\":\"eventhit-perfbench\",\"workload\":{},\"why\":{},\
         \"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"cores\":{},\"rustc\":{},\"git_rev\":{}}},\"params\":{{{}}},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"divergent_decisions\":{},\
         \"errors\":[{}],\"rss_reset\":{},\
         \"metrics\":{},\"ungated\":{},\"ledger\":[{}],\"spans\":[{}]}}}}",
        json_str(args.workload.name()),
        json_str(args.workload.why()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cores,
        json_str(&host.rustc),
        json_str(&host.git_rev),
        params,
        correct,
        out.attempted,
        out.failed,
        out.divergent,
        errors.join(","),
        rss_reset,
        json_list(&out.metrics),
        json_list(&out.extra),
        ledger.join(","),
        spans.join(",")
    )
}
