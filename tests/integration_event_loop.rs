//! End-to-end tests of the TCP front, the nonblocking `epoll` loop: real
//! TCP sockets against a real [`Service`] over a real [`LiveTimeline`].
//! The front serves on Linux only, and so do these tests.
//!
//! What must hold:
//!
//! * **Pipelining is order-independent.** A binary client that writes a
//!   burst of requests in one syscall gets every reply, matched by id,
//!   even though slow queries (BEST) and fast ones (INFO) complete out
//!   of submission order.
//! * **A slow reader cannot wedge the server.** A client that pipelines
//!   far past the in-flight cap and only *then* starts reading still
//!   gets every reply; the server bounds its buffers by pausing parsing
//!   instead of ballooning.
//! * **Both wire formats share the port**, sniffed per connection; a
//!   text client and a binary client converse concurrently.
//! * **Errors stay per request, `QUIT` per connection.** A text client's
//!   bad requests each get an `ERR` line and its next request is still
//!   answered; blank lines get no reply; `QUIT` closes only its own
//!   connection.
//! * **The connection cap turns clients away, not the server down**: a
//!   client past it reads `ERR busy` and EOF while admitted ones are
//!   still answered.
//! * **The shutdown verb drains the front**: `run` returns, the worker
//!   pool reports no panics.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use avt::datasets::er::gnm;
use avt_serve::codec::Codec;
use avt_serve::{BinaryCodec, EventFront, LiveTimeline, Request, Response, Service, ServiceConfig};

/// Boot `front` over a service on an ephemeral port; returns the address
/// and the serving thread (joins once a client sends the shutdown verb,
/// yielding the front's verdict and the worker-panic count).
fn boot(
    front: EventFront,
    seed: u64,
) -> (SocketAddr, std::thread::JoinHandle<(std::io::Result<()>, usize)>) {
    let timeline = Arc::new(LiveTimeline::new(gnm(60, 240, seed)));
    let service = Service::start(timeline, ServiceConfig { workers: 2, ..Default::default() });
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let verdict = front.run(listener, &service);
        (verdict, service.shutdown().worker_panics)
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

/// Read frames off `stream` until `want` replies are decoded (or EOF).
fn read_replies(
    stream: &mut TcpStream,
    codec: &dyn Codec,
    want: usize,
) -> Vec<(Option<u64>, Result<Response, String>)> {
    let mut rbuf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while out.len() < want {
        while let Some(len) = codec.decode_frame(&rbuf).expect("well-formed reply stream") {
            let frame: Vec<u8> = rbuf.drain(..len).collect();
            out.push(codec.decode_response(&frame).expect("response frame"));
            if out.len() == want {
                return out;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed with {}/{want} replies read", out.len()),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("read: {e}"),
        }
    }
    out
}

/// Join the serving thread after a shutdown verb, asserting a clean
/// drain.
fn join_clean(handle: std::thread::JoinHandle<(std::io::Result<()>, usize)>) {
    let (verdict, panics) = handle.join().expect("serving thread");
    verdict.expect("front drained cleanly");
    assert_eq!(panics, 0, "query workers panicked");
}

/// Send the shutdown verb over an existing binary connection and join
/// the serving thread, asserting a clean drain.
fn shutdown_and_join(
    stream: &mut TcpStream,
    handle: std::thread::JoinHandle<(std::io::Result<()>, usize)>,
) {
    let codec = BinaryCodec;
    let mut wire = Vec::new();
    codec.encode_shutdown(999_999, &mut wire);
    stream.write_all(&wire).expect("write shutdown");
    let replies = read_replies(stream, &codec, 1);
    assert!(
        matches!(replies[0], (Some(999_999), Ok(Response::Bye))),
        "unexpected shutdown reply {replies:?}"
    );
    join_clean(handle);
}

/// A text-protocol client reading its replies a line at a time.
struct TextClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TextClient {
    fn connect(addr: SocketAddr) -> TextClient {
        let stream = connect(addr);
        let writer = stream.try_clone().expect("clone the socket");
        TextClient { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write request");
    }

    /// The next reply line without its newline; `None` at EOF.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("read reply") {
            0 => None,
            _ => Some(line.trim_end().to_string()),
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.send(format!("{request}\n").as_bytes());
        self.line().expect("a reply line, not EOF")
    }
}

#[test]
fn pipelined_burst_is_order_independent() {
    let (addr, handle) = boot(EventFront::default(), 7);
    let codec = BinaryCodec;
    let mut stream = connect(addr);

    // One write syscall carries the whole burst: a slow solve first,
    // then a fan of fast lookups — if replies were matched by arrival
    // order instead of id, the BEST reply would scramble everything.
    let mut wire = Vec::new();
    codec.encode_request(
        1_000,
        &Request::Best { k: 3, b: 2, algo: avt_serve::BestAlgo::Olak },
        &mut wire,
    );
    let lookups = 40u64;
    for i in 0..lookups {
        codec.encode_request(2_000 + i, &Request::Core(i as u32), &mut wire);
    }
    stream.write_all(&wire).expect("write burst");

    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for (id, reply) in read_replies(&mut stream, &codec, lookups as usize + 1) {
        by_id.insert(id.expect("binary replies carry ids"), reply.expect("query succeeds"));
    }
    assert!(matches!(by_id.get(&1_000), Some(Response::Best { .. })));
    for i in 0..lookups {
        match by_id.get(&(2_000 + i)) {
            // The id binds the reply to its request: the queried vertex
            // must round-trip.
            Some(Response::Core { v, .. }) => assert_eq!(*v as u64, i, "reply/request mismatch"),
            other => panic!("lookup {i}: unexpected reply {other:?}"),
        }
    }
    shutdown_and_join(&mut stream, handle);
}

#[test]
fn slow_reader_gets_every_reply_without_wedging_the_server() {
    let (addr, handle) = boot(EventFront::default(), 11);
    let codec = BinaryCodec;
    let mut stream = connect(addr);

    // Pipeline far past the server's in-flight cap (128) while refusing
    // to read. The server must pause parsing instead of buffering
    // unboundedly — and resume as we finally drain.
    let total = 2_000u64;
    let mut wire = Vec::new();
    for i in 0..total {
        codec.encode_request(i, &Request::Spectrum, &mut wire);
    }
    stream.write_all(&wire).expect("write flood");
    // Stay deliberately idle: everything past the cap sits in kernel +
    // server read buffers while replies back up toward our socket.
    std::thread::sleep(Duration::from_millis(300));

    let mut seen = vec![false; total as usize];
    for (id, reply) in read_replies(&mut stream, &codec, total as usize) {
        let id = id.expect("binary replies carry ids") as usize;
        assert!(!std::mem::replace(&mut seen[id], true), "duplicate reply {id}");
        assert!(matches!(reply, Ok(Response::Spectrum { .. })), "reply {id}: {reply:?}");
    }
    assert!(seen.iter().all(|&s| s), "missing replies");
    shutdown_and_join(&mut stream, handle);
}

#[test]
fn both_wire_formats_share_the_port() {
    let (addr, handle) = boot(EventFront::default(), 13);

    // Text client: classic newline protocol, replies in request order.
    let mut text = TextClient::connect(addr);
    text.send(b"INFO\nSPECTRUM\n");

    // Binary client on a second connection at the same time.
    let codec = BinaryCodec;
    let mut binary = connect(addr);
    let mut wire = Vec::new();
    codec.encode_request(5, &Request::Info, &mut wire);
    binary.write_all(&wire).expect("write binary");

    for expected in ["OK info", "OK spectrum"] {
        let line = text.line().expect("a reply line, not EOF");
        assert!(line.starts_with(expected), "unexpected text reply {line:?}");
    }

    let replies = read_replies(&mut binary, &codec, 1);
    assert!(
        matches!(&replies[0], (Some(5), Ok(Response::Info { .. }))),
        "unexpected binary reply {replies:?}"
    );
    shutdown_and_join(&mut binary, handle);
}

#[test]
fn text_shutdown_verb_drains_the_front_too() {
    let (addr, handle) = boot(EventFront::default(), 17);
    let mut text = connect(addr);
    text.write_all(b"SHUTDOWN\n").expect("write shutdown");
    let mut reply = String::new();
    text.read_to_string(&mut reply).expect("read bye");
    assert_eq!(reply, "OK bye\n");
    join_clean(handle);
}

#[test]
fn text_errors_blank_lines_and_quit_stay_per_connection() {
    let (addr, handle) = boot(EventFront::default(), 19);
    let mut client = TextClient::connect(addr);
    // An unknown verb and an out-of-range vertex (n = 60) each get an
    // ERR line, and the connection stays usable.
    assert!(client.roundtrip("FROBNICATE").starts_with("ERR "));
    assert!(client.roundtrip("CORE 99").starts_with("ERR "));
    // Blank lines get no reply: the next line read answers INFO.
    client.send(b"\n\n");
    assert!(client.roundtrip("INFO").starts_with("OK info"));

    // QUIT closes only its own connection.
    let mut second = TextClient::connect(addr);
    assert!(second.roundtrip("STATS").starts_with("OK stats"));
    second.send(b"QUIT\n");
    assert_eq!(second.line(), None, "QUIT closes the connection");
    assert!(client.roundtrip("SPECTRUM").starts_with("OK spectrum"));

    // A query written in one burst with the shutdown verb is answered,
    // in order, before the bye.
    client.send(b"CORE 0\nSHUTDOWN\n");
    assert!(client.line().expect("CORE reply").starts_with("OK core t=1 v=0 "));
    assert_eq!(client.line().as_deref(), Some("OK bye"));
    assert_eq!(client.line(), None, "the drained front closes the connection");
    join_clean(handle);
}

#[test]
fn connections_past_the_cap_are_turned_away() {
    let (addr, handle) = boot(EventFront { max_connections: 1 }, 23);
    let mut admitted = TextClient::connect(addr);
    // A round trip proves the loop has accepted this client.
    assert!(admitted.roundtrip("INFO").starts_with("OK info"));
    let mut refused = connect(addr);
    let mut reply = String::new();
    refused.read_to_string(&mut reply).expect("read to EOF");
    assert_eq!(reply, "ERR busy: connection limit reached\n");
    assert!(admitted.roundtrip("SPECTRUM").starts_with("OK spectrum"));
    assert_eq!(admitted.roundtrip("SHUTDOWN"), "OK bye");
    join_clean(handle);
}
