//! `loadgen`: TCP load generator for `avt-serve`, closed- and open-loop.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7171] [--codec text|binary] [--seed 42]
//!         [--clients 4] [--requests 200]            # closed loop
//!         [--offered-qps Q] [--connections 256]     # open loop
//!         [--quick] [--shutdown] [--scrape]
//! ```
//!
//! Two measurement modes:
//!
//! * **Closed loop** (default): `--clients` threads, each with one
//!   connection, each issuing `--requests` queries back to back and
//!   timing each round trip. Simple, but the classic *coordinated
//!   omission* trap: a slow reply delays every later request, so the
//!   client unconsciously stops measuring exactly when the server
//!   struggles.
//! * **Open loop** (`--offered-qps`): requests fire on a fixed arrival
//!   schedule — request *i* is due at `start + i/Q` — multiplexed
//!   nonblockingly over `--connections` pipelined connections from one
//!   thread (the same `epoll` machinery the server's event loop uses;
//!   Linux only). Latency is measured from the *scheduled* send time, so
//!   queueing the server causes shows up in the tail instead of silently
//!   stretching the schedule, and the report states achieved-vs-offered
//!   QPS so saturation is visible. `--requests` is the *total* request
//!   count in this mode (default: five seconds' worth).
//!
//! Both modes speak either wire format (`--codec`): the newline text
//! protocol or the length-prefixed binary one, through the same
//! [`avt_serve::Codec`] trait the server uses. The request mix is
//! deterministic (core lookups, spectra, follower and anchored-core
//! queries, Greedy-vs-OLAK best-anchor solves) and the degree threshold
//! `k` is calibrated from the server's own `SPECTRUM` reply.
//!
//! **Write-heavy mixes.** `--ingest-mix F` turns fraction `F` of the
//! request stream into `INGEST` writes: small timestamped edge-event
//! batches drawn from the same deterministic RNG, stamped from one
//! process-wide logical clock shared by every client thread and
//! connection. `--ooo-frac G` makes fraction `G` of those writes
//! *stragglers* — stamped a few ticks behind the clock, so they exercise
//! the server's fold/reject admission paths. Admission verdicts
//! (accepted, folded, rejected) are all successful replies; the final
//! `STATS` probe prints the server's writer counters, including
//! epoch-publish latency percentiles.
//!
//! **Telemetry scraping.** `--scrape` polls the server's `METRICS` verb
//! on a side connection while the run is in flight, then prints the
//! server-side view after it: the parsed registry (asserting
//! `avt_requests_total` covers every request this run completed), a
//! per-op stage-breakdown table (queue wait vs execute vs encode,
//! p50/p99 µs from the `avt_stage_us` summaries), and the flight
//! recorder's `TRACE 10` — the slowest requests with their stage
//! splits. A scrape that fails to parse, or a registry that missed
//! requests, fails the run.
//!
//! `--quick` is the CI smoke setting (2 clients × 40 requests);
//! `--shutdown` sends the shutdown verb after the run so a scripted
//! `avt-serve … & loadgen --quick --shutdown; wait` tears the server down
//! cleanly. Connection attempts retry for a few seconds, so the generator
//! can be launched in parallel with the server.
//!
//! Exit status: 0 when every request completed with > 0 successful
//! queries and zero protocol errors; 1 otherwise.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avt_serve::codec::{Codec, TextCodec};
use avt_serve::protocol::{BestAlgo, OpClass, Request, Response};
use avt_serve::BinaryCodec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "\
usage: loadgen [options]

options:
  --addr HOST:PORT  server address               (default 127.0.0.1:7171)
  --codec KIND      wire format: text | binary   (default text)
  --clients N       closed loop: concurrent connections      (default 4)
  --requests R      closed loop: queries per client          (default 200)
                    open loop: total queries                 (default 5s worth)
  --offered-qps Q   open loop: fixed arrival rate across all connections
                    (enables open-loop mode; Linux only)
  --connections N   open loop: multiplexed connections       (default 256)
  --seed N          request-mix seed             (default 42)
  --ingest-mix F    fraction of requests that are INGEST writes, 0..=1
                    (default 0: read-only mix)
  --ooo-frac G      fraction of INGEST writes stamped behind the logical
                    clock (out-of-order stragglers), 0..=1  (default 0)
  --quick           CI smoke: 2 clients x 40 requests (explicit flags
                    override it, in any order)
  --shutdown        send the shutdown verb to the server after the run
  --scrape          poll METRICS during the run and report the server-side
                    stage breakdown plus TRACE 10 after it; fails the run
                    unless avt_requests_total covers every completed
                    request
";

static TEXT: TextCodec = TextCodec;
static BINARY: BinaryCodec = BinaryCodec;

struct Args {
    addr: String,
    clients: usize,
    requests: Option<usize>,
    seed: u64,
    shutdown: bool,
    codec: &'static (dyn Codec + 'static),
    offered_qps: Option<f64>,
    connections: usize,
    quick: bool,
    mix: IngestMix,
    scrape: bool,
}

/// The write-mix knobs, threaded to every request picker.
#[derive(Debug, Clone, Copy)]
struct IngestMix {
    /// Fraction of requests that are `INGEST` writes (0 = read-only).
    frac: f64,
    /// Fraction of those writes stamped behind the logical clock.
    ooo: f64,
}

/// The process-wide logical clock stamping `INGEST` events: every client
/// thread and open-loop connection draws from the same sequence, so the
/// server sees one coherent (if racy) timestamp stream — exactly the
/// out-of-order arrival pattern the admission window exists for.
static INGEST_CLOCK: AtomicU64 = AtomicU64::new(0);

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let quick = raw.iter().any(|a| a == "--quick");
    let shutdown = raw.iter().any(|a| a == "--shutdown");
    let scrape = raw.iter().any(|a| a == "--scrape");
    let mut args = Args {
        addr: "127.0.0.1:7171".into(),
        clients: if quick { 2 } else { 4 },
        requests: None,
        seed: 42,
        shutdown,
        codec: &TEXT,
        offered_qps: None,
        connections: 256,
        quick,
        mix: IngestMix { frac: 0.0, ooo: 0.0 },
        scrape,
    };
    let mut it = raw.iter().filter(|a| *a != "--quick" && *a != "--shutdown" && *a != "--scrape");
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.into());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))?;
        match flag.as_str() {
            "--addr" => args.addr = value.clone(),
            "--codec" => {
                args.codec = match value.as_str() {
                    "text" => &TEXT,
                    "binary" => &BINARY,
                    other => return Err(format!("--codec must be text or binary, got {other}")),
                }
            }
            "--clients" => args.clients = value.parse().map_err(|e| format!("--clients: {e}"))?,
            "--requests" => {
                args.requests = Some(value.parse().map_err(|e| format!("--requests: {e}"))?)
            }
            "--offered-qps" => {
                args.offered_qps = Some(value.parse().map_err(|e| format!("--offered-qps: {e}"))?)
            }
            "--connections" => {
                args.connections = value.parse().map_err(|e| format!("--connections: {e}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ingest-mix" => {
                args.mix.frac = value.parse().map_err(|e| format!("--ingest-mix: {e}"))?
            }
            "--ooo-frac" => args.mix.ooo = value.parse().map_err(|e| format!("--ooo-frac: {e}"))?,
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    let closed_requests = args.requests.unwrap_or(if args.quick { 40 } else { 200 });
    if args.clients == 0 || closed_requests == 0 || args.connections == 0 {
        return Err("--clients, --requests, and --connections must be at least 1".into());
    }
    if let Some(q) = args.offered_qps {
        if q <= 0.0 || !q.is_finite() {
            return Err("--offered-qps must be positive".into());
        }
    }
    for (flag, v) in [("--ingest-mix", args.mix.frac), ("--ooo-frac", args.mix.ooo)] {
        if !(0.0..=1.0).contains(&v) || !v.is_finite() {
            return Err(format!("{flag} must be in 0..=1"));
        }
    }
    Ok(args)
}

/// One synchronous protocol connection over any codec: write a request
/// frame, read the matching reply frame.
struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    codec: &'static (dyn Codec + 'static),
    next_id: u64,
}

impl Client {
    /// Connect with retries — the server may still be binding when a
    /// scripted run launches both sides together.
    fn connect(
        addr: &str,
        patience: Duration,
        codec: &'static (dyn Codec + 'static),
    ) -> Result<Client, String> {
        let deadline = Instant::now() + patience;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    // Never block forever on a stalled server: a reply
                    // that takes longer than this is a failed request,
                    // not a reason to hang the harness (or CI).
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .map_err(|e| format!("set read timeout: {e}"))?;
                    // Send each request frame at once; Nagle would hold
                    // it for the server's previous ack.
                    stream.set_nodelay(true).map_err(|e| format!("set nodelay: {e}"))?;
                    return Ok(Client { stream, rbuf: Vec::new(), codec, next_id: 0 });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
            }
        }
    }

    /// Read until one whole frame is buffered, then consume it.
    fn read_frame(&mut self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(len) = self.codec.decode_frame(&self.rbuf)? {
                return Ok(self.rbuf.drain(..len).collect());
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut wire = Vec::new();
        self.codec.encode_request(id, request, &mut wire);
        self.stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        let frame = self.read_frame()?;
        let (got, reply) = self.codec.decode_response(&frame)?;
        if let Some(got) = got {
            if got != id {
                return Err(format!("reply id {got} for request id {id}"));
            }
        }
        reply
    }

    /// Send the shutdown verb; expect the `bye` acknowledgement.
    fn shutdown(&mut self) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut wire = Vec::new();
        self.codec.encode_shutdown(id, &mut wire);
        self.stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        let frame = self.read_frame()?;
        match self.codec.decode_response(&frame)? {
            (_, Ok(Response::Bye)) => Ok(()),
            (_, other) => Err(format!("unexpected shutdown reply {other:?}")),
        }
    }
}

/// Pick the degree threshold the expensive queries run at: the largest
/// anchorable `k` (nonempty k-core, populated (k-1)-shell), favouring
/// depth so `BEST` has real work; 2 when the spectrum offers nothing.
fn calibrate_k(shells: &[usize]) -> u32 {
    let core_size = |k: usize| shells.iter().skip(k).sum::<usize>();
    (2..shells.len())
        .rev()
        .find(|&k| core_size(k) > 0 && shells[k - 1] > 0)
        .map(|k| k as u32)
        .unwrap_or(2)
}

struct ClientOutcome {
    ok: u64,
    errors: u64,
    /// Each success tagged with its verb, so the report can break the
    /// percentiles down per [`OpClass`] as well as overall.
    latencies_us: Vec<(OpClass, u64)>,
}

/// One `INGEST` write: a couple of edge events on random endpoints,
/// stamped from the shared logical clock — or, with probability
/// `mix.ooo`, a few ticks behind it (a straggler for the fold/reject
/// paths). Conflicting events (duplicate insert, delete of an absent
/// edge) are fine: the server's sanitizer nets them out, they are not
/// errors.
fn pick_ingest(rng: &mut SmallRng, n: usize, mix: IngestMix) -> Request {
    if n < 2 {
        return Request::Info; // a one-vertex graph has no edges to churn
    }
    let ts = if rng.gen_range(0.0..1.0) < mix.ooo {
        // Behind the clock but usually inside the server's lag window.
        INGEST_CLOCK.load(Ordering::Relaxed).saturating_sub(rng.gen_range(1..4u64)).max(1)
    } else {
        INGEST_CLOCK.fetch_add(1, Ordering::Relaxed) + 1
    };
    fn edge(rng: &mut SmallRng, n: usize) -> (u32, u32) {
        let u = rng.gen_range(0..n) as u32;
        let v = (u + 1 + rng.gen_range(0..(n as u32 - 1))) % n as u32;
        (u, v)
    }
    // Mostly inserts with an occasional delete, so the graph churns
    // rather than saturating.
    if rng.gen_range(0..4u32) == 0 {
        Request::Ingest { ts, insertions: vec![], deletions: vec![edge(rng, n)] }
    } else {
        Request::Ingest { ts, insertions: vec![edge(rng, n), edge(rng, n)], deletions: vec![] }
    }
}

/// The deterministic request mix, by weight out of 100 (after the
/// `--ingest-mix` coin decides read vs write).
fn pick_request(rng: &mut SmallRng, n: usize, k: u32, mix: IngestMix) -> Request {
    if mix.frac > 0.0 && rng.gen_range(0.0..1.0) < mix.frac {
        return pick_ingest(rng, n, mix);
    }
    let roll = rng.gen_range(0..100u32);
    let vertex = rng.gen_range(0..n) as u32;
    match roll {
        0..=39 => Request::Core(vertex),
        40..=49 => Request::Spectrum,
        50..=69 => Request::Followers { k, anchor: vertex },
        70..=79 => {
            let second = rng.gen_range(0..n) as u32;
            Request::Anchored { k, anchors: vec![vertex, second] }
        }
        80..=89 => Request::Best { k, b: 2, algo: BestAlgo::Greedy },
        _ => Request::Best { k, b: 2, algo: BestAlgo::Olak },
    }
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: &str,
    codec: &'static (dyn Codec + 'static),
    requests: usize,
    n: usize,
    k: u32,
    seed: u64,
    mix: IngestMix,
) -> Result<ClientOutcome, String> {
    let mut client = Client::connect(addr, Duration::from_secs(10), codec)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut outcome =
        ClientOutcome { ok: 0, errors: 0, latencies_us: Vec::with_capacity(requests) };
    for _ in 0..requests {
        let request = pick_request(&mut rng, n, k, mix);
        let op = request.op_class();
        let start = Instant::now();
        match client.call(&request) {
            Ok(_) => {
                // Only successful round trips feed the percentiles —
                // a failed request measured nothing (mirrors the
                // server-side ServiceStats::note_error design).
                outcome.latencies_us.push((op, start.elapsed().as_micros() as u64));
                outcome.ok += 1;
            }
            Err(message) => {
                outcome.errors += 1;
                eprintln!("loadgen: request {request:?} failed: {message}");
                // A failed round trip (timeout, torn read) leaves the
                // connection possibly desynchronized — a late reply would
                // pair with the *next* request. Reconnect to restore the
                // frame-in/frame-out pairing before continuing.
                client = Client::connect(addr, Duration::from_secs(5), codec)?;
            }
        }
    }
    Ok(outcome)
}

/// The open-loop engine: a fixed arrival schedule multiplexed over many
/// pipelined nonblocking connections from one thread. Linux only — it
/// reuses the server's `epoll` wrapper.
#[cfg(target_os = "linux")]
mod open_loop {
    use super::{
        pick_request, Codec, Duration, IngestMix, Instant, OpClass, Read, TcpStream, Write,
    };
    use avt_serve::Poller;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    pub struct Config<'a> {
        pub addr: &'a str,
        pub codec: &'static (dyn Codec + 'static),
        pub connections: usize,
        pub total: usize,
        pub offered_qps: f64,
        pub seed: u64,
        pub n: usize,
        pub k: u32,
        pub mix: IngestMix,
    }

    pub struct Outcome {
        pub completed: u64,
        pub errors: u64,
        /// Latency of each success, measured from the request's
        /// *scheduled* send time and tagged with its verb.
        pub latencies_us: Vec<(OpClass, u64)>,
        pub wall: Duration,
    }

    struct OConn {
        stream: TcpStream,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
        /// Global request indices in flight, in send order (how ordered
        /// codecs pair replies; binary replies carry the index as id).
        sent: VecDeque<u64>,
        interest: (bool, bool),
    }

    pub fn run(cfg: &Config<'_>) -> Result<Outcome, String> {
        let mut conns = Vec::with_capacity(cfg.connections);
        let deadline = Instant::now() + Duration::from_secs(30);
        for _ in 0..cfg.connections {
            let stream = loop {
                match TcpStream::connect(cfg.addr) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => return Err(format!("connect {}: {e}", cfg.addr)),
                }
            };
            stream.set_nonblocking(true).map_err(|e| format!("set nonblocking: {e}"))?;
            stream.set_nodelay(true).map_err(|e| format!("set nodelay: {e}"))?;
            conns.push(OConn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                sent: VecDeque::new(),
                interest: (true, false),
            });
        }
        let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
        for (token, conn) in conns.iter().enumerate() {
            use std::os::unix::io::AsRawFd;
            poller
                .register(conn.stream.as_raw_fd(), token as u64, true, false)
                .map_err(|e| format!("register: {e}"))?;
        }

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let start = Instant::now();
        let sched = |i: usize| start + Duration::from_secs_f64(i as f64 / cfg.offered_qps);
        let grace = sched(cfg.total.saturating_sub(1)) + Duration::from_secs(60);
        let mut next_send = 0usize;
        let mut completed = 0u64;
        let mut errors = 0u64;
        let mut latencies_us = Vec::with_capacity(cfg.total);
        // Verb of request `i`, filled in send order: replies only carry
        // the index, and the per-op table needs the class back.
        let mut ops: Vec<OpClass> = Vec::with_capacity(cfg.total);
        let mut events = Vec::new();
        let mut touched: Vec<usize> = Vec::new();

        while completed + errors < cfg.total as u64 {
            // Enqueue every request whose scheduled instant has passed —
            // even if the socket is backed up. That is the whole point:
            // the schedule does not wait for the server.
            let now = Instant::now();
            while next_send < cfg.total && sched(next_send) <= now {
                let idx = next_send as u64;
                next_send += 1;
                let request = pick_request(&mut rng, cfg.n, cfg.k, cfg.mix);
                ops.push(request.op_class());
                let conn = &mut conns[idx as usize % cfg.connections];
                cfg.codec.encode_request(idx, &request, &mut conn.wbuf);
                conn.sent.push_back(idx);
                touched.push(idx as usize % cfg.connections);
            }
            for token in touched.drain(..) {
                flush(&mut conns[token])?;
                update_interest(&poller, &mut conns, token)?;
            }

            let timeout = if next_send < cfg.total {
                sched(next_send).saturating_duration_since(Instant::now()).as_millis().min(100)
                    as i32
            } else {
                100
            };
            poller.wait(&mut events, timeout).map_err(|e| format!("epoll wait: {e}"))?;
            for ev in &events {
                let token = ev.token as usize;
                if ev.readable {
                    drain_replies(
                        &mut conns[token],
                        cfg,
                        &sched,
                        &ops,
                        &mut completed,
                        &mut errors,
                        &mut latencies_us,
                    )?;
                }
                if ev.writable {
                    flush(&mut conns[token])?;
                }
                update_interest(&poller, &mut conns, token)?;
            }
            if Instant::now() > grace {
                return Err(format!(
                    "open-loop run stalled: {completed} completed, {errors} errors of {} \
                     ({} still unsent)",
                    cfg.total,
                    cfg.total - next_send
                ));
            }
        }
        Ok(Outcome { completed, errors, latencies_us, wall: start.elapsed() })
    }

    fn flush(conn: &mut OConn) -> Result<(), String> {
        while !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => return Err("server closed the connection mid-write".into()),
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    fn update_interest(poller: &Poller, conns: &mut [OConn], token: usize) -> Result<(), String> {
        use std::os::unix::io::AsRawFd;
        let conn = &mut conns[token];
        let want = (true, !conn.wbuf.is_empty());
        if want != conn.interest {
            poller
                .modify(conn.stream.as_raw_fd(), token as u64, want.0, want.1)
                .map_err(|e| format!("epoll modify: {e}"))?;
            conn.interest = want;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn drain_replies(
        conn: &mut OConn,
        cfg: &Config<'_>,
        sched: &impl Fn(usize) -> Instant,
        ops: &[OpClass],
        completed: &mut u64,
        errors: &mut u64,
        latencies_us: &mut Vec<(OpClass, u64)>,
    ) -> Result<(), String> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return Err("server closed a connection".into()),
                Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while let Some(len) = cfg.codec.decode_frame(&conn.rbuf)? {
            let frame: Vec<u8> = conn.rbuf.drain(..len).collect();
            let (id, reply) = cfg.codec.decode_response(&frame)?;
            // Binary replies name their request; ordered text replies
            // pair with the oldest in-flight index on this connection.
            let idx = match id {
                Some(id) => {
                    conn.sent.retain(|&s| s != id);
                    id
                }
                None => conn.sent.pop_front().ok_or("reply with nothing in flight")?,
            };
            let now = Instant::now();
            match reply {
                Ok(_) => {
                    *completed += 1;
                    let us = now.saturating_duration_since(sched(idx as usize)).as_micros() as u64;
                    latencies_us.push((ops[idx as usize], us));
                }
                Err(message) => {
                    *errors += 1;
                    eprintln!("loadgen: open-loop request {idx} failed: {message}");
                }
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // Calibration connection: dimensions + spectrum → vertex range and k.
    let mut probe = match Client::connect(&args.addr, Duration::from_secs(10), args.codec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n, k) = match (probe.call(&Request::Info), probe.call(&Request::Spectrum)) {
        (Ok(Response::Info { n, t, epochs, .. }), Ok(Response::Spectrum { shells, .. })) => {
            let k = calibrate_k(&shells);
            eprintln!(
                "# loadgen: server at t={t} (epochs={epochs}), n={n}, querying at k={k}, \
                 codec={}",
                args.codec.name()
            );
            (n, k)
        }
        (info, spectrum) => {
            eprintln!("loadgen: calibration failed: {info:?} / {spectrum:?}");
            return ExitCode::FAILURE;
        }
    };

    // The scrape sidecar: its own connection polling METRICS while the
    // run is hot, so the registry is exercised *under* load, not only
    // after it. Every poll must parse — a torn exposition fails the run.
    let scraper = args.scrape.then(|| {
        let addr = args.addr.clone();
        let codec = args.codec;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || -> Result<u64, String> {
            let mut client = Client::connect(&addr, Duration::from_secs(10), codec)?;
            let mut polls = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                match client.call(&Request::Metrics) {
                    Ok(Response::Metrics { text }) => {
                        parse_metrics(&text)?;
                        polls += 1;
                    }
                    Ok(other) => return Err(format!("METRICS answered {other:?}")),
                    Err(e) => return Err(format!("METRICS poll: {e}")),
                }
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(polls)
        });
        (stop, handle)
    });

    let (ok, errors, latencies, transport_failures);
    if let Some(offered_qps) = args.offered_qps {
        // --- Open loop ---
        #[cfg(not(target_os = "linux"))]
        {
            let _ = offered_qps;
            eprintln!("loadgen: open-loop mode needs epoll (Linux only)");
            return ExitCode::FAILURE;
        }
        #[cfg(target_os = "linux")]
        {
            let total = args.requests.unwrap_or((offered_qps * 5.0).ceil() as usize).max(1);
            let cfg = open_loop::Config {
                addr: &args.addr,
                codec: args.codec,
                connections: args.connections,
                total,
                offered_qps,
                seed: args.seed,
                n,
                k,
                mix: args.mix,
            };
            match open_loop::run(&cfg) {
                Ok(outcome) => {
                    let achieved = outcome.completed as f64 / outcome.wall.as_secs_f64().max(1e-9);
                    outcomes_report_open(&cfg, &outcome, achieved);
                    ok = outcome.completed;
                    errors = outcome.errors;
                    latencies = outcome.latencies_us;
                    transport_failures = 0;
                }
                Err(e) => {
                    eprintln!("loadgen: open-loop run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        // --- Closed loop ---
        let requests = args.requests.unwrap_or(if args.quick { 40 } else { 200 });
        let started = Instant::now();
        let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.clients)
                .map(|i| {
                    let addr = &args.addr;
                    let codec = args.codec;
                    let seed = args.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mix = args.mix;
                    scope.spawn(move || run_client(addr, codec, requests, n, k, seed, mix))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = started.elapsed();

        let mut total_ok = 0u64;
        let mut total_errors = 0u64;
        let mut all_latencies: Vec<(OpClass, u64)> = Vec::new();
        let mut failures = 0usize;
        for outcome in outcomes {
            match outcome {
                Ok(o) => {
                    total_ok += o.ok;
                    total_errors += o.errors;
                    all_latencies.extend(o.latencies_us);
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("loadgen: client failed: {e}");
                }
            }
        }
        let qps = total_ok as f64 / wall.as_secs_f64().max(1e-9);
        let mut values: Vec<u64> = all_latencies.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        let mut pct =
            |p: f64| percentile_of(&mut values, p).map_or("-".into(), |v: u64| v.to_string());
        println!(
            "loadgen: clients={} requests={requests} served={total_ok} errors={total_errors} \
             wall_ms={} qps={qps:.0} p50us={} p95us={} p99us={}",
            args.clients,
            wall.as_millis(),
            pct(50.0),
            pct(95.0),
            pct(99.0),
        );
        ok = total_ok;
        errors = total_errors;
        latencies = all_latencies;
        transport_failures = failures;
    }
    // The client-side view per verb: the closed loop measures round
    // trips, the open loop measures from scheduled send — either way the
    // table shows which classes carry the tail.
    println!("loadgen: client per-op: ops={}", client_op_table(&latencies));

    // The telemetry view: stop the in-run poller, then take one final
    // scrape off the probe connection and hold the registry to account —
    // it must cover every request this run completed.
    let mut scrape_failed = false;
    if let Some((stop, handle)) = scraper {
        stop.store(true, Ordering::Relaxed);
        match handle.join().expect("scraper thread panicked") {
            Ok(polls) => eprintln!("# loadgen: scraped METRICS {polls} times during the run"),
            Err(e) => {
                scrape_failed = true;
                eprintln!("loadgen: in-run scrape failed: {e}");
            }
        }
    }
    if args.scrape {
        match probe.call(&Request::Metrics) {
            Ok(Response::Metrics { text }) => match parse_metrics(&text) {
                Ok(series) => {
                    let total = series
                        .iter()
                        .find(|(name, _)| name == "avt_requests_total")
                        .map_or(0, |&(_, v)| v);
                    println!(
                        "loadgen: server metrics: series={} avt_requests_total={total}",
                        series.len()
                    );
                    println!("loadgen: server stages (p50/p99 us): {}", stage_table(&series));
                    if total < ok {
                        scrape_failed = true;
                        eprintln!(
                            "loadgen: scrape check failed: avt_requests_total={total} < \
                             completed={ok}"
                        );
                    }
                }
                Err(e) => {
                    scrape_failed = true;
                    eprintln!("loadgen: METRICS parse failed: {e}");
                }
            },
            other => {
                scrape_failed = true;
                eprintln!("loadgen: final METRICS failed: {other:?}");
            }
        }
        match probe.call(&Request::Trace { n: 10 }) {
            Ok(Response::Trace { entries }) => {
                println!("loadgen: trace top{}: {}", entries.len(), trace_table(&entries));
            }
            other => {
                scrape_failed = true;
                eprintln!("loadgen: TRACE failed: {other:?}");
            }
        }
    }

    // Server-side view after the run (and optional teardown).
    match probe.call(&Request::Stats) {
        Ok(Response::Stats {
            epochs,
            served,
            errors: server_errors,
            p50_us,
            p99_us,
            per_op,
            writer,
        }) => {
            let opt = |v: Option<u64>| v.map_or("-".into(), |v: u64| v.to_string());
            let ops = per_op
                .iter()
                .map(|o| {
                    format!("{}:{}:{}:{}", o.op.wire_name(), o.count, opt(o.p50_us), opt(o.p99_us))
                })
                .collect::<Vec<_>>()
                .join(",");
            println!(
                "loadgen: server stats: epochs={epochs} served={served} errors={server_errors} \
                 p50us={} p99us={} ops={}",
                opt(p50_us),
                opt(p99_us),
                if ops.is_empty() { "-".into() } else { ops },
            );
            // The writer block only exists on admission-backed servers;
            // publish percentiles are the epoch-publish latency the
            // write-heavy lanes are after.
            if let Some(w) = writer {
                println!(
                    "loadgen: server writer: batches={} accepted={} folded={} rejected={} \
                     dropped={} watermark={} lag={} publish_p50us={} publish_p99us={}",
                    w.batches_applied,
                    w.events_accepted,
                    w.events_folded,
                    w.events_rejected,
                    w.events_dropped,
                    w.watermark,
                    w.watermark_lag,
                    opt(w.publish_p50_us),
                    opt(w.publish_p99_us),
                );
            }
        }
        other => eprintln!("loadgen: STATS after run failed: {other:?}"),
    }
    // A failed teardown must fail the run: the scripted `avt-serve &…;
    // wait` pattern would otherwise hang on a server that never heard
    // the shutdown verb while loadgen reports success.
    let mut shutdown_failed = false;
    if args.shutdown {
        match probe.shutdown() {
            Ok(()) => eprintln!("# loadgen: shutdown acknowledged"),
            Err(e) => {
                shutdown_failed = true;
                eprintln!("loadgen: shutdown failed: {e}");
            }
        }
    }

    if ok > 0 && errors == 0 && transport_failures == 0 && !shutdown_failed && !scrape_failed {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "loadgen: FAILED (served={ok}, errors={errors}, failed clients={transport_failures}, \
             shutdown_failed={shutdown_failed}, scrape_failed={scrape_failed})"
        );
        ExitCode::FAILURE
    }
}

/// Parse a Prometheus text exposition into `(series name, value)` pairs.
/// Strict on shape — every non-comment line must be `name value` with an
/// integer value (all the server's metrics are µs or counts) — so a torn
/// or corrupted METRICS reply fails loudly rather than reading as zero.
fn parse_metrics(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut series = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("metrics line without a value: {line}"))?;
        if name.is_empty() {
            return Err(format!("metrics line without a name: {line}"));
        }
        let value: u64 = value.parse().map_err(|e| format!("metrics value in {line:?}: {e}"))?;
        series.push((name.to_string(), value));
    }
    Ok(series)
}

/// One label's value out of `a="x",b="y"`, unquoted.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels
        .split(',')
        .filter_map(|part| part.split_once('='))
        .find(|&(k, _)| k == key)
        .map(|(_, v)| v.trim_matches('"'))
}

/// Per-stage `[p50, p99]` cells keyed by stage name, one row per op.
type StageRows = Vec<(String, Vec<(String, [Option<u64>; 2])>)>;

/// The queue-wait-vs-service breakdown per op, from the `avt_stage_us`
/// summaries: one `op[stage=p50/p99,...]` column per class with traffic.
fn stage_table(series: &[(String, u64)]) -> String {
    // op -> stage -> [p50, p99], in first-seen (render = stage-name) order.
    let mut ops: StageRows = Vec::new();
    for (name, value) in series {
        let Some(labels) =
            name.strip_prefix("avt_stage_us{").and_then(|rest| rest.strip_suffix('}'))
        else {
            continue;
        };
        let (Some(op), Some(stage), Some(q)) = (
            label_value(labels, "op"),
            label_value(labels, "stage"),
            label_value(labels, "quantile"),
        ) else {
            continue;
        };
        let slot = match q {
            "0.5" => 0,
            "0.99" => 1,
            _ => continue,
        };
        let row = match ops.iter_mut().find(|(o, _)| o == op) {
            Some(row) => row,
            None => {
                ops.push((op.to_string(), Vec::new()));
                ops.last_mut().expect("just pushed")
            }
        };
        let cell = match row.1.iter_mut().find(|(s, _)| s == stage) {
            Some(cell) => cell,
            None => {
                row.1.push((stage.to_string(), [None, None]));
                row.1.last_mut().expect("just pushed")
            }
        };
        cell.1[slot] = Some(*value);
    }
    if ops.is_empty() {
        return "-".into();
    }
    let fmt = |v: Option<u64>| v.map_or("-".into(), |v: u64| v.to_string());
    ops.iter()
        .map(|(op, stages)| {
            let cols = stages
                .iter()
                .map(|(stage, [p50, p99])| format!("{stage}={}/{}", fmt(*p50), fmt(*p99)))
                .collect::<Vec<_>>()
                .join(",");
            format!("{op}[{cols}]")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The flight-recorder report: `op:total_us[stage=us+...]` per entry.
fn trace_table(entries: &[avt_serve::TraceEntry]) -> String {
    if entries.is_empty() {
        return "-".into();
    }
    entries
        .iter()
        .map(|e| {
            let stages = e
                .stages
                .iter()
                .map(|(stage, us)| format!("{stage}={us}"))
                .collect::<Vec<_>>()
                .join("+");
            format!("{}:{}us[{stages}]", e.op, e.total_us)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Nearest-rank percentile of `samples` (sorted in place): exact over
/// the client's own samples, unlike the server's bucketed histograms.
/// `None` on empty.
fn percentile_of(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The client-side per-verb latency table: one `verb:count:p50:p95:p99`
/// column per class with traffic, in [`OpClass::ALL`] order. Measured at
/// the same point as the overall percentiles, so the columns decompose
/// them — the interesting read is cheap-verb (CORE) tails against
/// expensive-verb (BEST) tails.
fn client_op_table(tagged: &[(OpClass, u64)]) -> String {
    let mut cols = Vec::new();
    for op in OpClass::ALL {
        let mut vals: Vec<u64> =
            tagged.iter().filter(|&&(o, _)| o == op).map(|&(_, v)| v).collect();
        if vals.is_empty() {
            continue;
        }
        vals.sort_unstable();
        let count = vals.len();
        let p50 = percentile_of(&mut vals, 50.0).map_or("-".into(), |v: u64| v.to_string());
        let p95 = percentile_of(&mut vals, 95.0).map_or("-".into(), |v: u64| v.to_string());
        let p99 = percentile_of(&mut vals, 99.0).map_or("-".into(), |v: u64| v.to_string());
        cols.push(format!("{}:{count}:{p50}:{p95}:{p99}", op.wire_name()));
    }
    if cols.is_empty() {
        "-".into()
    } else {
        cols.join(",")
    }
}

/// Print the open-loop report: achieved-vs-offered is the saturation
/// signal, and the percentiles are from *scheduled* send times.
#[cfg(target_os = "linux")]
fn outcomes_report_open(cfg: &open_loop::Config<'_>, outcome: &open_loop::Outcome, achieved: f64) {
    let mut latencies: Vec<u64> = outcome.latencies_us.iter().map(|&(_, v)| v).collect();
    latencies.sort_unstable();
    let mut pct =
        |p: f64| percentile_of(&mut latencies, p).map_or("-".into(), |v: u64| v.to_string());
    println!(
        "loadgen: open-loop connections={} offered_qps={:.0} achieved_qps={achieved:.0} \
         requests={} completed={} errors={} wall_ms={} p50us={} p95us={} p99us={} \
         (latency from scheduled send)",
        cfg.connections,
        cfg.offered_qps,
        cfg.total,
        outcome.completed,
        outcome.errors,
        outcome.wall.as_millis(),
        pct(50.0),
        pct(95.0),
        pct(99.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_edge_cases() {
        assert_eq!(percentile_of(&mut [], 50.0), None);
        assert_eq!(percentile_of(&mut [7], 1.0), Some(7));
        assert_eq!(percentile_of(&mut [7], 99.0), Some(7));
        let mut two = [10, 20];
        assert_eq!(percentile_of(&mut two, 50.0), Some(10));
        assert_eq!(percentile_of(&mut two, 51.0), Some(20));
        // The rank comes from the observed count: p99 of three is the max.
        assert_eq!(percentile_of(&mut [30, 10, 20], 99.0), Some(30));
    }
}
