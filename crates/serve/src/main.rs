//! `avt-serve`: the online anchored-core query service.
//!
//! ```text
//! avt-serve [--addr 127.0.0.1:7171] [--workers 2] [--scale 0.02]
//!           [--epochs 30] [--epoch-ms 100] [--seed 42] [--spill DIR]
//!           [--max-connections N] [--ingest-lag T] [--slow-us N]
//! ```
//!
//! Starts a [`avt_serve::LiveTimeline`] on a churned dataset stream (the
//! real SNAP download when present under `$AVT_DATA_DIR`, the synthetic
//! stand-in otherwise), applies one churn batch every `--epoch-ms`
//! milliseconds on a writer thread, and serves queries on `--addr` until
//! a client sends a shutdown verb. One `epoll` event loop serves every
//! connection, so the server runs on Linux only. Both wire formats are
//! spoken on the one port — the newline text protocol and the
//! length-prefixed binary protocol — sniffed from each connection's
//! first byte. Prints
//! `avt-serve listening on <addr>` once the socket is bound (use
//! `--addr 127.0.0.1:0` for an ephemeral port and scrape that line).
//!
//! All writes — the scripted churn script and client `INGEST` requests
//! alike — funnel through one [`avt_serve::Admission`] watermark buffer,
//! so out-of-order arrivals within the `--ingest-lag` window fold into
//! the right epoch. Each published batch is repaired once, under the
//! timeline's writer lock, by the K-order maintenance of
//! [`avt_kcore::MaintainedCore::apply_batch`].
//!
//! Exit status: 0 on a clean drain, 1 if any query worker panicked, 2 on
//! usage errors.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use avt_datasets::Dataset;
use avt_graph::{FrameSource, MmapFrames};
use avt_serve::{Admission, EventFront, IngestEvent, LiveTimeline, Service, ServiceConfig};

const USAGE: &str = "\
usage: avt-serve [options]

options:
  --addr HOST:PORT  listen address (default 127.0.0.1:7171; port 0 = ephemeral,
                    the bound address is printed on stdout)
  --workers N       query worker threads          (default 2)
  --scale S         dataset scale in (0, 1]       (default 0.02)
  --epochs T        total epochs in the stream — the initial snapshot plus
                    T-1 churn batches             (default 30)
  --epoch-ms MS     milliseconds between batches  (default 100)
  --seed N          stream generation seed        (default 42)
  --spill DIR       on shutdown, spill the served history to DIR as a
                    .csrbin frame directory (offline audit/replay)
  --max-connections N  concurrent connection cap, at least 1 (default 8192)
  --ingest-lag T    out-of-order admission window in timestamp units:
                    a batch at ts publishes once the watermark passes
                    ts + T; older events are rejected as stale
                    (default 4)
  --slow-us N       flight-recorder slow threshold in µs — requests at or
                    over it are always retained (default 10000)

The service speaks the protocols documented in avt_serve::codec and
avt_serve::binary — text lines (INFO / SPECTRUM / CORE / ANCHORED /
FOLLOWERS / BEST / INGEST / STATS / METRICS / TRACE / SHUTDOWN) and the
pipelined binary framing — on the same port; drive it with `loadgen`
from avt-bench or plain netcat.
";

struct Args {
    addr: String,
    workers: usize,
    scale: f64,
    epochs: usize,
    epoch_ms: u64,
    seed: u64,
    spill: Option<std::path::PathBuf>,
    max_connections: usize,
    ingest_lag: u64,
    slow_us: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".into(),
        workers: 2,
        scale: 0.02,
        epochs: 30,
        epoch_ms: 100,
        seed: 42,
        spill: None,
        max_connections: EventFront::default().max_connections,
        ingest_lag: 4,
        slow_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.into());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))?;
        match flag.as_str() {
            "--addr" => args.addr = value,
            "--workers" => args.workers = value.parse().map_err(|e| format!("--workers: {e}"))?,
            "--scale" => args.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--epochs" => args.epochs = value.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--epoch-ms" => {
                args.epoch_ms = value.parse().map_err(|e| format!("--epoch-ms: {e}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--spill" => args.spill = Some(value.into()),
            "--max-connections" => {
                args.max_connections =
                    value.parse().map_err(|e| format!("--max-connections: {e}"))?
            }
            "--ingest-lag" => {
                args.ingest_lag = value.parse().map_err(|e| format!("--ingest-lag: {e}"))?
            }
            "--slow-us" => {
                args.slow_us = Some(value.parse().map_err(|e| format!("--slow-us: {e}"))?)
            }
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if args.epochs < 1 {
        return Err("--epochs must be at least 1".into());
    }
    if args.max_connections < 1 {
        return Err("--max-connections must be at least 1".into());
    }
    Ok(Args { workers: args.workers.max(1), ..args })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // The stream: initial snapshot starts the timeline, the batches feed
    // the writer thread — the same churn model the offline experiments
    // replay, applied live.
    let stream = Dataset::Deezer.load_or_generate(args.scale, args.epochs, args.seed);
    let batches = stream.batches().to_vec();
    eprintln!(
        "# stream: {} vertices, {} initial edges, {} churn batches (scale {}, seed {})",
        stream.num_vertices(),
        stream.initial().num_edges(),
        batches.len(),
        args.scale,
        args.seed
    );

    if let Some(us) = args.slow_us {
        avt_serve::set_slow_threshold_us(us);
    }

    let timeline = Arc::new(LiveTimeline::new(stream.initial().clone()));
    let admission = Arc::new(Admission::new(Arc::clone(&timeline), args.ingest_lag));
    let service = Service::start_with_admission(
        Arc::clone(&timeline),
        Arc::clone(&admission),
        ServiceConfig { workers: args.workers, ..Default::default() },
    );

    // Writer: one batch per tick until the script runs out or we shut
    // down, routed through the same admission buffer client INGESTs use
    // (ts = tick index). Admission only errors when a sanitized batch
    // fails to apply, so an error is a real bug worth crashing the
    // writer (and failing CI) over. If
    // clients push the watermark more than the lag window ahead of the
    // script, the late scripted events surface in the writer stats as
    // rejected — they are counted, never applied out of order.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let admission = Arc::clone(&admission);
        let stop = Arc::clone(&stop);
        let tick = Duration::from_millis(args.epoch_ms);
        std::thread::Builder::new()
            .name("avt-serve-writer".into())
            .spawn(move || {
                for (i, batch) in batches.into_iter().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(tick);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let events: Vec<IngestEvent> = batch
                        .insertions
                        .iter()
                        .map(|e| IngestEvent { insert: true, u: e.u, v: e.v })
                        .chain(batch.deletions.iter().map(|e| IngestEvent {
                            insert: false,
                            u: e.u,
                            v: e.v,
                        }))
                        .collect();
                    admission
                        .ingest(i as u64 + 1, &events)
                        .expect("sanitized batches apply cleanly");
                }
            })
            .expect("spawning the writer thread")
    };

    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            return ExitCode::from(2);
        }
    };
    let bound = listener.local_addr().expect("bound listener has an address");
    // Scrapeable by harnesses (stdout, immediately flushed by println).
    println!("avt-serve listening on {bound}");

    let serve_result = EventFront { max_connections: args.max_connections }.run(listener, &service);

    stop.store(true, Ordering::Relaxed);
    let writer_ok = writer.join().is_ok();
    // Publish everything still inside the lag window so the spill and
    // the final epoch count reflect every admitted batch.
    if let Err(e) = admission.flush() {
        eprintln!("warning: final admission flush failed: {e}");
    }

    if let Some(dir) = &args.spill {
        match MmapFrames::spill(&timeline.freeze(), dir) {
            Ok(frames) => {
                eprintln!("# spilled {} frames to {}", frames.num_frames(), dir.display())
            }
            Err(e) => eprintln!("warning: audit spill to {} failed: {e}", dir.display()),
        }
    }

    let stats = Arc::clone(service.stats());
    let report = service.shutdown();
    let writer_stats = admission.snapshot();
    let latency = stats.latency();
    println!(
        "avt-serve done: epochs={} served={} errors={} p50us={} p99us={} maintenance_visited={}",
        timeline.epochs_published(),
        stats.served(),
        stats.errors(),
        latency.percentile(50.0).map_or("-".into(), |v| v.to_string()),
        latency.percentile(99.0).map_or("-".into(), |v| v.to_string()),
        timeline.maintenance_visited(),
    );
    println!(
        "avt-serve writer: batches={} accepted={} folded={} rejected={} dropped={} \
         watermark={} publish_p50us={} publish_p99us={}",
        writer_stats.batches_applied,
        writer_stats.events_accepted,
        writer_stats.events_folded,
        writer_stats.events_rejected,
        writer_stats.events_dropped,
        writer_stats.watermark,
        writer_stats.publish_p50_us.map_or("-".into(), |v| v.to_string()),
        writer_stats.publish_p99_us.map_or("-".into(), |v| v.to_string()),
    );

    match serve_result {
        Err(e) => {
            eprintln!("listener failed: {e}");
            ExitCode::FAILURE
        }
        Ok(()) if report.worker_panics > 0 => {
            eprintln!("{} query worker(s) panicked", report.worker_panics);
            ExitCode::FAILURE
        }
        Ok(()) if !writer_ok => {
            eprintln!("writer thread panicked");
            ExitCode::FAILURE
        }
        Ok(()) => ExitCode::SUCCESS,
    }
}
