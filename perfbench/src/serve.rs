//! The serving workloads: `EventFront` with the default `ServiceConfig`,
//! in process on an ephemeral loopback port, over the Deezer stand-in at
//! scale 0.5.
//!
//! * `serve-lookup` — read-only CORE 40 %, FOLLOWERS 40 %, ANCHORED 20 %
//!   on a static graph. FOLLOWERS and ANCHORED pay per-query anchored
//!   state construction; CORE is a cheap lookup, so the wire and front
//!   path dominate it. The epoch never moves, so every reply is checked
//!   exactly.
//! * `serve-mixed` — INGEST 30 %, CORE 30 %, FOLLOWERS 25 %, SPECTRUM
//!   10 %, BEST (greedy, b = 2) 5 % on a churning graph: every in-order
//!   INGEST publishes an epoch, so the write path, admission and the
//!   queueing of cheap reads behind solves all show.
//!
//! Load comes from one generator thread over at most `nproc` binary-codec
//! connections (two on the reference host). A run first measures
//! closed-loop capacity with a fixed window of requests in flight, then
//! offers a fixed open-loop rate, timing each request from its scheduled
//! send.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avt_core::{AnchoredCoreState, AvtParams, Greedy, Metrics, SnapshotSolver};
use avt_datasets::Dataset;
use avt_graph::{CsrGraph, Graph, VertexId};
use avt_kcore::{CoreDecomposition, MaintainedCore};
use avt_serve::codec::WireVerb;
use avt_serve::{
    execute, Admission, BestAlgo, BinaryCodec, Codec, EpochFrame, EventFront, IngestEvent,
    LiveTimeline, OpClass, QueryCallback, Request, Response, Service, ServiceConfig, ServiceStats,
    SubmitError,
};

use crate::inputs::{self, Rng};
use crate::stats::{quantile, us};
use crate::trace::Tracer;
use crate::wire::{self, Conn};
use crate::{check, host, Opts, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Lookup,
    Mixed,
}

struct Config {
    scale: f64,
    /// Open-loop offered rate, about half the closed-loop capacity
    /// measured on the reference host (2 cores).
    lookup_qps: f64,
    mixed_qps: f64,
}

const FULL: Config = Config { scale: 0.5, lookup_qps: 200.0, mixed_qps: 150.0 };
const TINY: Config = Config { scale: 0.02, lookup_qps: 300.0, mixed_qps: 200.0 };

/// Requests in flight during the closed-loop capacity phase.
const WINDOW: usize = 32;
/// Admission lag window, in timestamp ticks (the server binary's
/// default).
const INGEST_LAG: u64 = 4;
/// Share of an untraced run spent measuring capacity; the rest is the
/// open loop.
const CAPACITY_SHARE: f64 = 0.3;
/// Share of the open loop whose latencies are left out: the TCP state of
/// fresh connections settles during it. Early on, replies often leave
/// without waiting on the client's next packet; later most wait (see
/// README), so counting the start moved the median from run to run.
/// Those replies are still checked.
const OPEN_WARMUP_SHARE: f64 = 0.3;
/// Capacity is the median completion rate over this many equal slices
/// of the closed-loop phase, so a short stall of the host moves it less.
const CAPACITY_SLICES: usize = 12;
/// Shares of a traced run: the wire phase, the in-process service phase,
/// and the layer replay (its untraced and traced passes).
const TRACE_WIRE_SHARE: f64 = 0.4;
const TRACE_SERVICE_SHARE: f64 = 0.3;
const TRACE_REPLAY_SHARE: f64 = 0.15;
/// Published ingest batches replayed through the write-path layers.
const WRITE_REPLAY_CAP: usize = 400;
/// A run whose generator sent its median request later than this behind
/// schedule fell behind: its latencies would measure the generator, so
/// the run is invalid. Tail lateness of several ms is normal scheduling
/// jitter with four busy threads on two cores, and is only reported.
const GEN_LATE_LIMIT_P50_US: f64 = 2_000.0;
/// How long outstanding requests may take to drain after a phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

const CODEC: BinaryCodec = BinaryCodec;

/// The workload's request stream.
struct Gen {
    rng: Rng,
    mix: Mix,
    n: u32,
    k: u32,
    /// The logical clock stamping INGEST events.
    clock: u64,
}

impl Gen {
    fn new(mix: Mix, seed: u64, n: usize, k: u32) -> Gen {
        Gen { rng: Rng::new(seed.rotate_left(32)), mix, n: n as u32, k, clock: 0 }
    }

    fn vertex(&mut self) -> VertexId {
        self.rng.below(u64::from(self.n)) as VertexId
    }

    fn next(&mut self) -> Request {
        let roll = self.rng.below(100);
        let k = self.k;
        match (self.mix, roll) {
            (Mix::Lookup, 0..=39) | (Mix::Mixed, 30..=59) => Request::Core(self.vertex()),
            (Mix::Lookup, 40..=79) | (Mix::Mixed, 60..=84) => {
                Request::Followers { k, anchor: self.vertex() }
            }
            (Mix::Lookup, _) => {
                Request::Anchored { k, anchors: vec![self.vertex(), self.vertex()] }
            }
            (Mix::Mixed, 0..=29) => self.ingest(),
            (Mix::Mixed, 85..=94) => Request::Spectrum,
            (Mix::Mixed, _) => Request::Best { k, b: 2, algo: BestAlgo::Greedy },
        }
    }

    /// Two edge insertions; a quarter of the writes are stamped 1-3 ticks
    /// behind the clock, inside the lag window, so admission folds them.
    fn ingest(&mut self) -> Request {
        let ts = if self.clock > 0 && self.rng.below(4) == 0 {
            self.clock.saturating_sub(1 + self.rng.below(3)).max(1)
        } else {
            self.clock += 1;
            self.clock
        };
        let mut edge = || {
            let u = self.rng.below(u64::from(self.n)) as VertexId;
            let v = (u + 1 + self.rng.below(u64::from(self.n) - 1) as VertexId) % self.n;
            (u, v)
        };
        Request::Ingest { ts, insertions: vec![edge(), edge()], deletions: vec![] }
    }
}

/// The largest anchorable k of a SPECTRUM reply: nonempty k-core and a
/// populated (k-1)-shell (the load generator's rule).
fn calibrate_k(shells: &[usize]) -> u32 {
    let core_size = |k: usize| shells.iter().skip(k).sum::<usize>();
    (2..shells.len()).rev().find(|&k| core_size(k) > 0 && shells[k - 1] > 0).map_or(2, |k| k as u32)
}

struct Server {
    timeline: Arc<LiveTimeline>,
    admission: Option<Arc<Admission>>,
    service: Arc<Service>,
    front: JoinHandle<io::Result<()>>,
    addr: SocketAddr,
}

impl Server {
    fn start(mix: Mix, scale: f64, seed: u64) -> Server {
        let initial = inputs::generate(Dataset::Deezer, scale, 1, seed).initial().clone();
        let timeline = Arc::new(LiveTimeline::new(initial));
        let (service, admission) = match mix {
            Mix::Lookup => (Service::start(Arc::clone(&timeline), ServiceConfig::default()), None),
            Mix::Mixed => {
                let admission = Arc::new(Admission::new(Arc::clone(&timeline), INGEST_LAG));
                let service = Service::start_with_admission(
                    Arc::clone(&timeline),
                    Arc::clone(&admission),
                    ServiceConfig::default(),
                );
                (service, Some(admission))
            }
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral loopback port");
        let addr = listener.local_addr().expect("a bound listener has an address");
        let service = Arc::new(service);
        let front = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || EventFront::default().run(listener, &service))
        };
        Server { timeline, admission, service, front, addr }
    }

    /// Shut the front down with its own verb, drain the pool, and publish
    /// whatever admission still stages. False when anything failed.
    fn stop(self) -> (Arc<LiveTimeline>, bool) {
        let bye = matches!(wire::call(self.addr, None), Ok(Ok(Response::Bye)));
        let front = matches!(self.front.join(), Ok(Ok(())));
        let drained = match Arc::try_unwrap(self.service) {
            Ok(service) => service.shutdown().worker_panics == 0,
            Err(_) => false,
        };
        let flushed = self.admission.is_none_or(|a| a.flush().is_ok());
        (self.timeline, bye && front && drained && flushed)
    }
}

/// One request of a phase: what was asked, when it was due, when it
/// went out, and the reply.
struct Sent {
    req: Request,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    reply: Option<Result<Response, String>>,
}

impl Sent {
    fn latency_us(&self) -> Option<f64> {
        self.done.map(|d| us(d.saturating_duration_since(self.due)))
    }
}

/// The generator: one thread, pipelined connections, request ids equal
/// to positions in `log`.
struct Driver {
    conns: Vec<Conn>,
    log: Vec<Sent>,
    outstanding: usize,
    replies: Vec<(u64, Result<Response, String>)>,
}

impl Driver {
    fn connect(addr: SocketAddr) -> io::Result<Driver> {
        let conns =
            (0..host::nproc().min(2)).map(|_| Conn::connect(addr)).collect::<Result<_, _>>()?;
        Ok(Driver { conns, log: Vec::new(), outstanding: 0, replies: Vec::new() })
    }

    fn send(&mut self, req: Request, due: Instant) {
        let id = self.log.len();
        let conn = id % self.conns.len();
        self.conns[conn].queue(id as u64, &req);
        self.log.push(Sent { req, due, sent: Instant::now(), done: None, reply: None });
        self.outstanding += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conns.iter_mut().try_for_each(Conn::flush)
    }

    /// Flush, collect every reply that has arrived; returns how many.
    fn pump(&mut self) -> io::Result<usize> {
        self.flush()?;
        for c in &mut self.conns {
            c.drain_replies(&mut self.replies)?;
        }
        let now = Instant::now();
        let mut completed = 0;
        for (id, reply) in self.replies.drain(..) {
            let Some(sent) = self.log.get_mut(id as usize) else { continue };
            if sent.done.is_none() {
                sent.done = Some(now);
                sent.reply = Some(reply);
                self.outstanding -= 1;
                completed += 1;
            }
        }
        Ok(completed)
    }

    /// Closed loop: keep `window` requests in flight for `seconds`;
    /// returns the median completions per second over the phase's
    /// `CAPACITY_SLICES` equal slices.
    fn closed_loop(&mut self, gen: &mut Gen, window: usize, seconds: f64) -> io::Result<f64> {
        let first = self.log.len();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        for _ in 0..window {
            self.send(gen.next(), start);
        }
        loop {
            let done = self.pump()?;
            let now = Instant::now();
            if now < end {
                for _ in 0..done {
                    self.send(gen.next(), now);
                }
                self.flush()?;
            } else if self.outstanding == 0 || now > end + DRAIN_LIMIT {
                break;
            }
            let timeout = if now < end { end - now } else { Duration::from_millis(50) };
            self.wait(timeout)?;
        }
        let slice = seconds / CAPACITY_SLICES as f64;
        let mut per_slice = [0usize; CAPACITY_SLICES];
        for s in &self.log[first..] {
            if let Some(done) = s.done {
                let i = ((done - start).as_secs_f64() / slice) as usize;
                if let Some(count) = per_slice.get_mut(i) {
                    *count += 1;
                }
            }
        }
        let rates: Vec<f64> = per_slice.iter().map(|&c| c as f64 / slice).collect();
        Ok(crate::stats::median(&rates))
    }

    /// Open loop: request `i` is due at `start + i / rate`, sent then
    /// whether or not earlier replies have come back.
    fn open_loop(&mut self, gen: &mut Gen, rate: f64, seconds: f64) -> io::Result<Range<usize>> {
        let first = self.log.len();
        let total = (rate * seconds).round().max(1.0) as usize;
        let start = Instant::now();
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let give_up = start + Duration::from_secs_f64(seconds) + DRAIN_LIMIT;
        let mut next = 0;
        loop {
            let now = Instant::now();
            while next < total && due(next) <= now {
                self.send(gen.next(), due(next));
                next += 1;
            }
            self.pump()?;
            if (next == total && self.outstanding == 0) || now > give_up {
                break;
            }
            let timeout = if next < total {
                due(next).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(50)
            };
            self.wait(timeout)?;
        }
        Ok(first..self.log.len())
    }

    fn wait(&self, timeout: Duration) -> io::Result<()> {
        wire::wait(&self.conns, timeout)
    }
}

/// In-process round trips through `Service::try_submit` at the open-loop
/// schedule: the service time plus queue wait, without front or TCP.
fn service_loop(service: &Service, gen: &mut Gen, rate: f64, seconds: f64) -> Vec<Sent> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<Response, String>)>();
    let total = (rate * seconds).round().max(1.0) as usize;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let give_up = start + Duration::from_secs_f64(seconds) + DRAIN_LIMIT;
    let mut log: Vec<Sent> = Vec::with_capacity(total);
    let mut outstanding = 0usize;
    loop {
        let now = Instant::now();
        while log.len() < total && due(log.len()) <= now {
            let id = log.len();
            let req = gen.next();
            let tx = tx.clone();
            let callback: QueryCallback =
                Box::new(move |reply| drop(tx.send((id, Instant::now(), reply))));
            let mut job = (req.clone(), callback);
            let accepted = loop {
                match service.try_submit(job.0, job.1) {
                    Ok(()) => break true,
                    Err(SubmitError::Full(r, done)) => {
                        job = (r, done);
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(SubmitError::Closed(..)) => break false,
                }
            };
            outstanding += usize::from(accepted);
            log.push(Sent { req, due: due(id), sent: Instant::now(), done: None, reply: None });
        }
        if (log.len() == total && outstanding == 0) || now > give_up {
            break;
        }
        let timeout = if log.len() < total {
            due(log.len()).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        if let Ok(first) = rx.recv_timeout(timeout) {
            for (id, at, reply) in std::iter::once(first).chain(rx.try_iter()) {
                log[id].done = Some(at);
                log[id].reply = Some(reply);
                outstanding -= 1;
            }
        }
    }
    log
}

/// Check every reply of `log` (in parallel, after the server stopped);
/// `true` marks a correct one.
fn verify(mix: Mix, log: &[Sent], timeline: &LiveTimeline) -> Vec<bool> {
    let epoch = timeline.current();
    let epochs = timeline.epochs_published();
    let n = epoch.frame.num_vertices();
    let stats = ServiceStats::default();
    let chunk = log.len().div_ceil(host::nproc()).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = log
            .chunks(chunk)
            .map(|part| {
                let (epoch, stats) = (&epoch, &stats);
                s.spawn(move || {
                    part.iter()
                        .map(|sent| match (&sent.reply, mix) {
                            (None, _) => false,
                            (Some(r), Mix::Lookup) => check::lookup_ok(&sent.req, r, epoch, stats),
                            (Some(r), Mix::Mixed) => check::mixed_ok(&sent.req, r, epochs, n),
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|p| p.join().expect("checker thread panicked")).collect()
    })
}

/// Latencies in µs of the correct replies among `log[range]`, per op
/// class and pooled.
fn latencies(
    log: &[Sent],
    ok: &[bool],
    range: Range<usize>,
) -> (BTreeMap<OpClass, Vec<f64>>, Vec<f64>) {
    let mut per_op: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::new();
    for i in range {
        if let (true, Some(lat)) = (ok[i], log[i].latency_us()) {
            per_op.entry(log[i].req.op_class()).or_default().push(lat);
            all.push(lat);
        }
    }
    (per_op, all)
}

/// The part of an open-loop phase whose latencies are reported.
fn settled(open: &Range<usize>) -> Range<usize> {
    open.start + (open.len() as f64 * OPEN_WARMUP_SHARE) as usize..open.end
}

/// How late the generator sent `log[range]` against its schedule: p99
/// in µs, and why the run is invalid if it fell behind.
fn gen_late(log: &[Sent], range: Range<usize>) -> (f64, Option<String>) {
    let late: Vec<f64> =
        log[range].iter().map(|s| us(s.sent.saturating_duration_since(s.due))).collect();
    let (p50, p99) = (quantile(&late, 0.5), quantile(&late, 0.99));
    let behind = (p50 > GEN_LATE_LIMIT_P50_US).then(|| {
        format!("generator fell behind its schedule: late p50 {p50:.0} us, p99 {p99:.0} us")
    });
    (p99, behind)
}

fn pct(per_op: &BTreeMap<OpClass, Vec<f64>>, op: OpClass, q: f64) -> f64 {
    per_op.get(&op).map_or(0.0, |v| quantile(v, q))
}

pub fn run(mix: Mix, opts: &Opts) -> Outcome {
    let config = if opts.tiny { &TINY } else { &FULL };
    let (server, setup_s) = crate::repeat_setup(
        || Server::start(mix, config.scale, opts.seed),
        |s: Server| drop(s.stop()),
    );
    let rate = match mix {
        Mix::Lookup => config.lookup_qps,
        Mix::Mixed => config.mixed_qps,
    };
    let result = if opts.trace {
        traced(mix, server, rate, opts)
    } else {
        measured(mix, server, rate, opts)
    };
    let mut outcome = result.unwrap_or_else(|e| {
        let mut o = Outcome::new(1, 1);
        o.invalid = Some(format!("generator i/o failed: {e}"));
        o
    });
    outcome.put("setup_s", setup_s);
    outcome
}

/// Connect the generator and calibrate k from the server's SPECTRUM.
fn connect(mix: Mix, server: &Server, seed: u64) -> io::Result<(Driver, Gen)> {
    let shells = match wire::call(server.addr, Some(&Request::Spectrum))? {
        Ok(Response::Spectrum { shells, .. }) => shells,
        other => return Err(io::Error::other(format!("unexpected SPECTRUM reply {other:?}"))),
    };
    let gen = Gen::new(mix, seed, server.timeline.num_vertices(), calibrate_k(&shells));
    Ok((Driver::connect(server.addr)?, gen))
}

fn measured(mix: Mix, server: Server, rate: f64, opts: &Opts) -> io::Result<Outcome> {
    let (mut driver, mut gen) = connect(mix, &server, opts.seed)?;
    let capacity = driver.closed_loop(&mut gen, WINDOW, opts.seconds * CAPACITY_SHARE)?;
    let open = driver.open_loop(&mut gen, rate, opts.seconds * (1.0 - CAPACITY_SHARE))?;
    let log = std::mem::take(&mut driver.log);
    drop(driver);
    let (timeline, clean) = server.stop();

    let ok = verify(mix, &log, &timeline);
    let final_ok = mix == Mix::Lookup || check::cores_ok(&timeline.current());
    let wrong = ok.iter().filter(|&&b| !b).count() as u64;
    let mut outcome = Outcome::new(log.len() as u64 + 1, wrong + u64::from(!(clean && final_ok)));

    let (per_op, all) = latencies(&log, &ok, settled(&open));
    let (late, behind) = gen_late(&log, open);
    outcome.put("throughput_per_s", capacity);
    outcome.put("p50_us", quantile(&all, 0.5));
    outcome.detail("p99_us", quantile(&all, 0.99), "us");
    outcome.detail("capacity_qps", capacity, "req/s");
    outcome.detail("offered_qps", rate, "req/s");
    outcome.detail("core_p50_us", pct(&per_op, OpClass::Core, 0.5), "us");
    outcome.detail("core_p99_us", pct(&per_op, OpClass::Core, 0.99), "us");
    outcome.detail("followers_p50_us", pct(&per_op, OpClass::Followers, 0.5), "us");
    outcome.detail("followers_p99_us", pct(&per_op, OpClass::Followers, 0.99), "us");
    match mix {
        Mix::Lookup => {
            outcome.detail("anchored_p50_us", pct(&per_op, OpClass::Anchored, 0.5), "us")
        }
        Mix::Mixed => {
            outcome.detail("best_p50_us", pct(&per_op, OpClass::Best, 0.5), "us");
            outcome.detail("best_p90_us", pct(&per_op, OpClass::Best, 0.9), "us");
            outcome.detail("ingest_p50_us", pct(&per_op, OpClass::Ingest, 0.5), "us");
            outcome.detail("ingest_p99_us", pct(&per_op, OpClass::Ingest, 0.99), "us");
        }
    }
    outcome.detail("k", f64::from(gen.k), "count");
    outcome.detail("epochs_published", timeline.epochs_published() as f64, "count");
    outcome.detail("gen_late_p99_us", late, "us");
    outcome.invalid = behind;
    Ok(outcome)
}

/// Span names per op class, built once so both replay passes do the
/// same work.
struct Names {
    execute: Vec<String>,
    decode: Vec<String>,
    encode: Vec<String>,
}

impl Names {
    fn new() -> Names {
        let per_op = |prefix: &str| {
            OpClass::ALL.iter().map(|op| format!("{prefix}.{}", op.wire_name())).collect()
        };
        Names {
            execute: per_op("serve.execute"),
            decode: per_op("serve.codec_decode_request"),
            encode: per_op("serve.codec_encode_response"),
        }
    }
}

/// What one layer replay pass produced.
#[derive(Default)]
struct LayerReplay {
    wall_s: f64,
    checked: u64,
    wrong: u64,
    metrics: Metrics,
    anchors_committed: u64,
}

/// Replay `requests` through the layers beneath the service on one
/// fixed epoch: codec decode, `execute`, codec encode, and the avt-kcore
/// and avt-core calls `execute` makes for the expensive verbs.
fn layer_replay(
    requests: &[Request],
    epoch: &EpochFrame,
    ingest_reply: &Result<Response, String>,
    names: &Names,
    tr: &mut Tracer,
    root: Option<usize>,
) -> LayerReplay {
    let begin = Instant::now();
    let frame = epoch.frame.as_ref();
    let stats = ServiceStats::default();
    let mut out = LayerReplay::default();
    let mut wire_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    for (id, req) in requests.iter().enumerate() {
        let op = req.op_class().index();
        wire_bytes.clear();
        CODEC.encode_request(id as u64, req, &mut wire_bytes);
        let decoded = tr.time(&names.decode[op], root, || CODEC.decode_request(&wire_bytes));
        out.checked += 1;
        out.wrong += u64::from(decoded.verb != WireVerb::Query(req.clone()));
        let reply = match req {
            Request::Ingest { .. } => ingest_reply.clone(),
            _ => tr.time(&names.execute[op], root, || execute(req, epoch, epoch.t as u64, &stats)),
        };
        reply_bytes.clear();
        tr.time(&names.encode[op], root, || {
            CODEC.encode_response(id as u64, &reply, &mut reply_bytes)
        });
        match req {
            Request::Followers { k, anchor } => {
                tr.time("kcore.decompose", root, || CoreDecomposition::compute(frame));
                let mut state =
                    tr.time("core.state_new", root, || AnchoredCoreState::new(frame, *k));
                tr.time("core.followers_of", root, || state.followers_of(*anchor));
                out.metrics += state.metrics();
            }
            Request::Anchored { k, anchors } => {
                let mut unique = anchors.clone();
                unique.sort_unstable();
                unique.dedup();
                let state = tr.time("core.state_with_anchors", root, || {
                    AnchoredCoreState::with_anchors(frame, *k, &unique)
                });
                out.metrics += state.metrics();
            }
            Request::Best { k, b, .. } => {
                let report = tr.time("core.best_solve", root, || {
                    Greedy::default().solve_snapshot(epoch.t, frame, AvtParams::new(*k, *b))
                });
                out.metrics += report.metrics;
                out.anchors_committed += report.anchors.len() as u64;
            }
            _ => {}
        }
    }
    out.wall_s = begin.elapsed().as_secs_f64();
    out
}

/// Counts and timings of the write-path replay.
#[derive(Default)]
struct WriteReplay {
    checked: u64,
    wrong: u64,
    applied_ratio: f64,
    maintain_visited: u64,
}

/// Replay the run's INGEST requests, in send order, through a fresh
/// admission buffer; then replay the batches it published through a
/// fresh timeline, the CSR frame derivation and K-order maintenance.
fn write_replay(
    ingests: &[(u64, Vec<IngestEvent>)],
    initial: &Graph,
    tr: &mut Tracer,
) -> WriteReplay {
    let mut out = WriteReplay::default();
    let root = tr.begin("serve.write", None);
    let timeline = Arc::new(LiveTimeline::new(initial.clone()));
    let admission = Admission::new(Arc::clone(&timeline), INGEST_LAG);
    for (ts, events) in ingests {
        out.checked += 1;
        out.wrong += u64::from(
            tr.time("serve.admission_ingest", root, || admission.ingest(*ts, events)).is_err(),
        );
    }
    out.wrong += u64::from(admission.flush().is_err());
    let w = admission.snapshot();
    let offered: usize = ingests.iter().map(|(_, e)| e.len()).sum();
    let applied = (w.events_accepted + w.events_folded).saturating_sub(w.events_dropped);
    out.applied_ratio = if offered > 0 { applied as f64 / offered as f64 } else { 0.0 };

    let history = timeline.freeze();
    let publish = LiveTimeline::new(initial.clone());
    let mut frame = CsrGraph::from_graph(initial);
    let mut maintained = MaintainedCore::new(initial.clone());
    for batch in history.batches() {
        out.checked += 1;
        let published =
            tr.time("serve.timeline_publish", root, || publish.apply_batch(batch.clone()));
        let derived = tr.time("graph.csr_apply_batch", root, || frame.apply_batch(batch));
        let repaired = tr.time("kcore.maintain_batch", root, || maintained.apply_batch(batch));
        match derived {
            Ok(next) if published.is_ok() && repaired.is_ok() => frame = next,
            _ => out.wrong += 1,
        }
    }
    out.maintain_visited = maintained.visited_vertices();
    out.checked += 1;
    out.wrong += u64::from(!check::cores_ok(&publish.current()));
    tr.end(root);
    out
}

fn traced(mix: Mix, server: Server, rate: f64, opts: &Opts) -> io::Result<Outcome> {
    let mut tr = Tracer::new(true);
    let (mut driver, mut gen) = connect(mix, &server, opts.seed)?;

    let wire_root = tr.begin("serve.wire", None);
    let open = driver.open_loop(&mut gen, rate, opts.seconds * TRACE_WIRE_SHARE)?;
    tr.end(wire_root);
    let wire_log = std::mem::take(&mut driver.log);
    drop(driver);

    let service_root = tr.begin("serve.service", None);
    let service_log =
        service_loop(&server.service, &mut gen, rate, opts.seconds * TRACE_SERVICE_SHARE);
    tr.end(service_root);
    let (timeline, clean) = server.stop();

    let wire_ok = verify(mix, &wire_log, &timeline);
    let service_ok = verify(mix, &service_log, &timeline);
    for (i, s) in wire_log.iter().enumerate() {
        if let Some(done) = s.done {
            let request = tr.record("wire.request", wire_root, Some(i as u64), s.due, done);
            tr.record("wire.send", request, Some(i as u64), s.due, s.sent);
        }
    }
    for (i, s) in service_log.iter().enumerate() {
        if let Some(done) = s.done {
            tr.record("service.request", service_root, Some(i as u64), s.due, done);
        }
    }

    // The layer replay: an untraced pass sized by the time budget, then a
    // traced pass over the same requests.
    let epoch = timeline.current();
    let ingest_reply = wire_log
        .iter()
        .find_map(|s| s.reply.clone().filter(|r| matches!(r, Ok(Response::Ingest { .. }))))
        .unwrap_or_else(|| Err("no ingest in this workload".to_string()));
    let names = Names::new();
    let budget = Duration::from_secs_f64(opts.seconds * TRACE_REPLAY_SHARE);
    let mut requests = Vec::new();
    let begin = Instant::now();
    while requests.is_empty() || begin.elapsed() < budget {
        let chunk: Vec<Request> = (0..16).map(|_| gen.next()).collect();
        layer_replay(&chunk, &epoch, &ingest_reply, &names, &mut Tracer::new(false), None);
        requests.extend(chunk);
    }
    let plain =
        layer_replay(&requests, &epoch, &ingest_reply, &names, &mut Tracer::new(false), None);
    let replay_root = tr.begin("serve.layers", None);
    let layers_pass = layer_replay(&requests, &epoch, &ingest_reply, &names, &mut tr, replay_root);
    tr.end(replay_root);

    let ingests: Vec<(u64, Vec<IngestEvent>)> = wire_log
        .iter()
        .chain(&service_log)
        .filter_map(|s| match &s.req {
            Request::Ingest { ts, insertions, deletions } => Some((
                *ts,
                insertions
                    .iter()
                    .map(|&(u, v)| IngestEvent { insert: true, u, v })
                    .chain(deletions.iter().map(|&(u, v)| IngestEvent { insert: false, u, v }))
                    .collect(),
            )),
            _ => None,
        })
        .take(WRITE_REPLAY_CAP)
        .collect();
    let writes = write_replay(&ingests, timeline.freeze().initial(), &mut tr);

    let wrong_replies = wire_ok.iter().chain(&service_ok).filter(|&&b| !b).count() as u64;
    let final_ok = mix == Mix::Lookup || check::cores_ok(&timeline.current());
    let attempted = (wire_log.len() + service_log.len()) as u64
        + plain.checked
        + layers_pass.checked
        + writes.checked
        + 1;
    let failed = wrong_replies
        + plain.wrong
        + layers_pass.wrong
        + writes.wrong
        + u64::from(!(clean && final_ok));
    let mut outcome = Outcome::new(attempted, failed);

    let (wire_lat, _) = latencies(&wire_log, &wire_ok, settled(&open));
    let (service_lat, _) = latencies(&service_log, &service_ok, 0..service_log.len());
    let p = |name: &str, q: f64| quantile(&tr.durations_us(name), q);
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: String, v: f64| {
        layers.insert(name, v);
    };
    for op in
        [OpClass::Core, OpClass::Followers, OpClass::Anchored, OpClass::Spectrum, OpClass::Best]
    {
        let verb = op.wire_name();
        put(format!("serve.execute_us.{verb}.p50"), p(&names.execute[op.index()], 0.5));
    }
    for op in [OpClass::Core, OpClass::Followers, OpClass::Best, OpClass::Ingest] {
        let verb = op.wire_name();
        put(format!("serve.service_us.{verb}.p50"), pct(&service_lat, op, 0.5));
        put(format!("serve.service_us.{verb}.p99"), pct(&service_lat, op, 0.99));
    }
    for op in [
        OpClass::Core,
        OpClass::Followers,
        OpClass::Anchored,
        OpClass::Spectrum,
        OpClass::Best,
        OpClass::Ingest,
    ] {
        let verb = op.wire_name();
        put(format!("serve.codec_decode_request_us.{verb}.p50"), p(&names.decode[op.index()], 0.5));
        put(
            format!("serve.codec_encode_response_us.{verb}.p50"),
            p(&names.encode[op.index()], 0.5),
        );
    }
    for op in [OpClass::Core, OpClass::Followers, OpClass::Anchored, OpClass::Best, OpClass::Ingest]
    {
        let residual = match (wire_lat.get(&op), service_lat.get(&op)) {
            (Some(w), Some(s)) => quantile(w, 0.5) - quantile(s, 0.5),
            _ => 0.0,
        };
        put(format!("serve.wire_residual_us.{}.p50", op.wire_name()), residual);
    }
    for (metric, span) in [
        ("graph.csr_apply_batch_us", "graph.csr_apply_batch"),
        ("kcore.maintain_batch_us", "kcore.maintain_batch"),
        ("serve.admission_ingest_us", "serve.admission_ingest"),
        ("serve.timeline_publish_us", "serve.timeline_publish"),
    ] {
        put(format!("{metric}.p50"), p(span, 0.5));
        put(format!("{metric}.p99"), p(span, 0.99));
    }
    for (metric, span) in [
        ("kcore.decompose_us.p50", "kcore.decompose"),
        ("core.state_new_us.p50", "core.state_new"),
        ("core.state_with_anchors_us.p50", "core.state_with_anchors"),
        ("core.followers_of_us.p50", "core.followers_of"),
        ("core.best_solve_us.p50", "core.best_solve"),
    ] {
        put(metric.to_string(), p(span, 0.5));
    }
    put("kcore.maintain_visited".into(), writes.maintain_visited as f64);
    put("serve.admission_applied_ratio".into(), writes.applied_ratio);
    let (late, behind) = gen_late(&wire_log, open);
    put("bench.gen_late_p99_us".into(), late);
    put("bench.trace_overhead_frac".into(), (layers_pass.wall_s - plain.wall_s) / plain.wall_s);
    put("bench.span_coverage_frac".into(), tr.coverage(replay_root));
    let mut counted: BTreeMap<&str, f64> = BTreeMap::new();
    crate::insert_core_counts(&mut counted, &layers_pass.metrics, layers_pass.anchors_committed);
    layers.extend(counted.into_iter().map(|(k, v)| (k.to_string(), v)));

    outcome.layers = layers;
    outcome.spans = Some(tr);
    outcome.invalid = behind;
    Ok(outcome)
}
