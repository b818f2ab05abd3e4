//! The thread-per-connection TCP front-end: what
//! [`crate::event_loop::EventFront`] runs off Linux.
//!
//! Every connection gets a handler thread doing plain blocking reads, but
//! the *protocol* work — codec sniffing, framing, pipelining, reply
//! ordering — all lives in the shared [`Conn`] state machine, so this
//! front speaks exactly what the epoll front
//! ([`crate::event_loop::EventFront`]) speaks: text or binary, picked by
//! the first byte. The differences are operational: a thread and stack
//! per socket (fine for tens of clients, the reason the epoll front
//! exists for thousands), and queries from one connection execute
//! *sequentially* through [`Service::query`] rather than overlapping in
//! the pool.
//!
//! Connection-level concerns: a connection cap,
//! an idle-poll read timeout so handlers notice a shutdown instead of
//! blocking in `read` forever, and the two connection verbs `QUIT` (close
//! this connection) and `SHUTDOWN` (drain and stop the whole front-end).
//!
//! Shutdown protocol: the handler that decodes a shutdown verb queues the
//! `bye` ack, raises the shared flag, and pokes the listener with a
//! loopback connect so the blocking `accept` wakes up; the accept loop
//! then stops accepting and [`TcpFront::run`] returns once every handler
//! has drained. The caller (the `avt-serve` binary) still owns the
//! [`Service`] and shuts it down afterwards.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use crate::conn::Conn;
use crate::executor::Service;
use crate::protocol::Request;

/// Front-end tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpFront {
    /// Concurrent connections before new ones are turned away with
    /// `ERR busy`.
    pub max_connections: usize,
    /// How long a handler blocks in `read` before re-checking the
    /// shutdown flag. Bounds shutdown latency with idle clients attached.
    pub idle_poll: Duration,
}

impl Default for TcpFront {
    fn default() -> Self {
        TcpFront { max_connections: 64, idle_poll: Duration::from_millis(250) }
    }
}

/// Accept one connection on `listener`, ready to serve. Both fronts take
/// their sockets from here. `TCP_NODELAY` goes on before the first byte:
/// without it a reply small enough to coalesce waits (Nagle) for the
/// client's next packet to acknowledge the previous one, which puts
/// milliseconds on every settled connection's round trip. A socket that
/// refuses the option counts as a failed accept.
pub(crate) fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl TcpFront {
    /// Serve `listener` until a client sends `SHUTDOWN` (or the listener
    /// fails). Blocks the calling thread; handler threads are scoped
    /// inside, so everything is joined by the time this returns.
    pub fn run(&self, listener: TcpListener, service: &Service) -> std::io::Result<()> {
        // The address the shutdown poke connects to: with a wildcard bind
        // (0.0.0.0 / ::) connecting to the *unspecified* address is not
        // portable, so poke loopback on the bound port instead.
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown = AtomicBool::new(false);
        let active = AtomicUsize::new(0);
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut accept_errors = 0u32;
            loop {
                let stream = match accept(&listener) {
                    Ok(stream) => {
                        accept_errors = 0;
                        stream
                    }
                    // A failed accept is usually one doomed connection
                    // (client reset mid-handshake) or transient pressure
                    // (fd exhaustion) — neither is a reason to drop every
                    // live client. Back off and keep serving; only a
                    // *persistently* failing listener is fatal.
                    Err(e) => {
                        accept_errors += 1;
                        if accept_errors >= 64 {
                            // Raise the flag before bailing so connection
                            // handlers drain on their next poll tick —
                            // otherwise the scope would wait on idle
                            // clients forever and the error never surface.
                            shutdown.store(true, Ordering::SeqCst);
                            break Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                if shutdown.load(Ordering::Relaxed) {
                    break Ok(());
                }
                if active.load(Ordering::Relaxed) >= self.max_connections {
                    let mut stream = stream;
                    let _ = stream.write_all(b"ERR busy: connection limit reached\n");
                    continue;
                }
                active.fetch_add(1, Ordering::Relaxed);
                let (shutdown, active) = (&shutdown, &active);
                let idle_poll = self.idle_poll;
                scope.spawn(move || {
                    let wants_shutdown = handle_connection(stream, service, shutdown, idle_poll);
                    active.fetch_sub(1, Ordering::Relaxed);
                    if wants_shutdown {
                        shutdown.store(true, Ordering::SeqCst);
                        // Wake the blocking accept so the loop observes the
                        // flag; a failed poke just means someone else
                        // already woke it (or the listener died).
                        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
                    }
                });
            }
        })
    }
}

/// Execute everything one ingest produced, sequentially, feeding replies
/// back through the state machine (which may in turn release parked
/// input). `Err` means the stream broke the protocol beyond recovery.
fn run_queries(
    conn: &mut Conn,
    first: crate::conn::Ingested,
    service: &Service,
) -> Result<bool, String> {
    let mut wants_shutdown = first.shutdown;
    for _ in 0..first.malformed {
        service.stats().note_error();
    }
    let mut queue: VecDeque<(u64, Request)> = first.queries.into();
    while let Some((seq, request)) = queue.pop_front() {
        let reply = service.query_traced(request, conn.span(seq));
        let released = conn.complete(seq, reply)?;
        wants_shutdown |= released.shutdown;
        for _ in 0..released.malformed {
            service.stats().note_error();
        }
        queue.extend(released.queries);
    }
    Ok(wants_shutdown)
}

/// Drive one connection. Returns true when this client requested a
/// service-wide shutdown.
fn handle_connection(
    mut stream: TcpStream,
    service: &Service,
    shutdown: &AtomicBool,
    idle_poll: Duration,
) -> bool {
    // The read timeout is the shutdown-latency bound, not a client
    // deadline: on timeout we re-check the flag and keep reading.
    if stream.set_read_timeout(Some(idle_poll)).is_err() {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut conn = Conn::new();
    let mut buf = [0u8; 8 * 1024];
    loop {
        let ingested = match stream.read(&mut buf) {
            Ok(0) => {
                conn.input_closed();
                crate::conn::Ingested::default()
            }
            Ok(n) => match conn.ingest(&buf[..n]) {
                Ok(ingested) => ingested,
                Err(_protocol) => {
                    // Flush what the peer is owed, then hang up: the
                    // stream is unparseable from here on.
                    let _ = writer.write_all(conn.pending_write());
                    return false;
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return false;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        // Re-check between bursts too: a client streaming back-to-back
        // queries never hits the timeout branch, and "drain" must not
        // mean "wait for every busy client to leave voluntarily".
        if shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let wants_shutdown = match run_queries(&mut conn, ingested, service) {
            Ok(wants_shutdown) => wants_shutdown,
            Err(_protocol) => {
                let _ = writer.write_all(conn.pending_write());
                return false;
            }
        };
        let pending = conn.pending_write();
        if !pending.is_empty() {
            if writer.write_all(pending).is_err() {
                return wants_shutdown;
            }
            let n = pending.len();
            conn.advance_write(n);
        }
        if wants_shutdown || conn.done() {
            return wants_shutdown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, TextCodec};
    use crate::executor::ServiceConfig;
    use crate::protocol::Response;
    use crate::timeline::LiveTimeline;
    use avt_graph::Graph;
    use std::io::{BufRead, BufReader};
    use std::sync::Arc;

    fn triangle_service() -> Service {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
        Service::start(Arc::new(LiveTimeline::new(g)), ServiceConfig::default())
    }

    /// Decode one text reply line through the codec (what a trait-driven
    /// client does), asserting it parsed.
    fn parse_reply(line: &str) -> Result<Response, String> {
        let mut framed = line.as_bytes().to_vec();
        framed.push(b'\n');
        let (id, reply) = TextCodec.decode_response(&framed).expect("well-formed reply line");
        assert_eq!(id, None, "text replies carry no wire id");
        reply
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: std::net::SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect to test server");
            let writer = stream.try_clone().unwrap();
            Client { reader: BufReader::new(stream), writer }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        }
    }

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(!client.nodelay().unwrap(), "sockets start with Nagle on");
        assert!(accept(&listener).unwrap().nodelay().unwrap());
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let service = triangle_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let front = scope.spawn(|| {
                TcpFront { idle_poll: Duration::from_millis(20), ..Default::default() }
                    .run(listener, &service)
                    .unwrap();
            });

            let mut client = Client::connect(addr);
            let reply = client.roundtrip("CORE 0");
            assert_eq!(parse_reply(&reply), Ok(Response::Core { t: 1, v: 0, core: 2 }), "{reply}");
            let reply = client.roundtrip("SPECTRUM");
            assert_eq!(parse_reply(&reply), Ok(Response::Spectrum { t: 1, shells: vec![0, 1, 3] }));
            // Garbage gets an ERR and the connection stays usable.
            assert!(client.roundtrip("FROBNICATE").starts_with("ERR "));
            assert!(client.roundtrip("CORE 99").starts_with("ERR "));
            assert!(client.roundtrip("INFO").starts_with("OK info"));

            // A second client sees the same service; QUIT only closes it.
            let mut second = Client::connect(addr);
            assert!(second.roundtrip("STATS").starts_with("OK stats"));
            second.writer.write_all(b"QUIT\n").unwrap();
            let mut eof = String::new();
            assert_eq!(second.reader.read_line(&mut eof).unwrap(), 0, "QUIT closes");

            assert_eq!(client.roundtrip("SHUTDOWN"), "OK bye");
            front.join().expect("front-end thread");
        });
        assert_eq!(service.shutdown().worker_panics, 0);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let service = triangle_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let front = scope.spawn(|| {
                TcpFront { idle_poll: Duration::from_millis(20), ..Default::default() }
                    .run(listener, &service)
                    .unwrap();
            });
            let mut client = Client::connect(addr);
            client.writer.write_all(b"\n\n").unwrap();
            // The next real request is answered first — blanks produced no
            // reply lines.
            assert!(client.roundtrip("INFO").starts_with("OK info"));
            client.roundtrip("SHUTDOWN");
            front.join().unwrap();
        });
        assert_eq!(service.shutdown().worker_panics, 0);
    }

    #[test]
    fn binary_clients_share_the_fallback_port() {
        use crate::binary::BinaryCodec;
        let service = triangle_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let front = scope.spawn(|| {
                TcpFront { idle_poll: Duration::from_millis(20), ..Default::default() }
                    .run(listener, &service)
                    .unwrap();
            });
            let codec = BinaryCodec;
            let mut stream = TcpStream::connect(addr).unwrap();
            // Pipeline two queries in one write, then the shutdown verb.
            let mut wire = Vec::new();
            codec.encode_request(11, &Request::Core(0), &mut wire);
            codec.encode_request(22, &Request::Info, &mut wire);
            codec.encode_shutdown(33, &mut wire);
            stream.write_all(&wire).unwrap();
            let mut bytes = Vec::new();
            stream.read_to_end(&mut bytes).unwrap();
            // Binary replies arrive in *completion* order and are matched
            // by id — collect them into a map, as a real client would.
            let mut got = std::collections::HashMap::new();
            let mut at = 0;
            while at < bytes.len() {
                let len = codec.decode_frame(&bytes[at..]).unwrap().expect("whole frames");
                let (id, reply) = codec.decode_response(&bytes[at..at + len]).unwrap();
                got.insert(id.expect("binary replies carry ids"), reply);
                at += len;
            }
            assert_eq!(got.len(), 3);
            assert_eq!(got[&11], Ok(Response::Core { t: 1, v: 0, core: 2 }));
            assert_eq!(got[&22], Ok(Response::Info { t: 1, n: 4, m: 4, epochs: 1 }));
            assert_eq!(got[&33], Ok(Response::Bye));
            front.join().unwrap();
        });
        assert_eq!(service.shutdown().worker_panics, 0);
    }
}
