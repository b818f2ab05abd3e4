//! Per-connection protocol state machine, independent of any transport.
//!
//! [`Conn`] is pure bookkeeping over byte slices: bytes read off a socket
//! go in through [`Conn::ingest`], decoded [`Request`]s come out for the
//! caller to hand to the worker pool, completions come back through
//! [`Conn::complete`], and encoded reply bytes accumulate for the caller
//! to write when the socket allows. The epoll front
//! ([`crate::EventFront`]) drives one machine per socket, so protocol
//! behaviour (sniffing, pipelining, ordering, backpressure) is testable
//! without opening a single socket.
//!
//! # Codec sniffing
//!
//! The first byte of a connection picks the wire format: the binary
//! magic's first byte (`0xC5`, never valid ASCII) routes to
//! [`BinaryCodec`], anything else to [`TextCodec`]. One listen port
//! serves both.
//!
//! # Pipelining and ordering
//!
//! Every accepted request gets an internal sequence number. Unordered
//! codecs (binary) carry an explicit wire id, replies are written the
//! moment they complete. Ordered codecs (text) have no wire id — replies
//! must leave in request order, so out-of-turn completions are staged in
//! a [`BTreeMap`] until their predecessors finish.
//!
//! # Backpressure
//!
//! Three caps bound per-connection memory no matter how the peer behaves:
//! at most [`MAX_IN_FLIGHT`] submitted-unanswered requests (parsing
//! pauses, which makes [`Conn::want_read`] go false and the front stop
//! reading); a slow *reader* that lets [`PAUSE_WRITE_BYTES`] of replies
//! pile up also pauses parsing (so it cannot keep a firehose of cheap
//! pipelined queries pointed at the pool); and a frame that refuses to
//! end within [`MAX_BUFFERED_READ`] is fatal.

use std::collections::{BTreeMap, HashMap};

use avt_obs::{Span, Stage};

use crate::binary::{looks_binary, BinaryCodec};
use crate::codec::{Codec, TextCodec, WireVerb};
use crate::protocol::{OpClass, Request, Response};

/// Most submitted-but-unanswered requests one connection may hold.
pub const MAX_IN_FLIGHT: usize = 128;

/// Unparsed input bytes a connection may buffer before an unfinished
/// frame becomes a protocol error.
pub const MAX_BUFFERED_READ: usize = 1 << 20;

/// Pending reply bytes above which parsing (and thus reading) pauses
/// until the peer drains its replies.
pub const PAUSE_WRITE_BYTES: usize = 1 << 20;

static TEXT: TextCodec = TextCodec;
static BINARY: BinaryCodec = BinaryCodec;

/// What one [`Conn::ingest`]/[`Conn::pump`] call produced.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ingested {
    /// Accepted queries, in wire order: submit each to the pool and hand
    /// the outcome back to [`Conn::complete`] with the same sequence
    /// number.
    pub queries: Vec<(u64, Request)>,
    /// Requests rejected at the protocol layer (already answered with an
    /// error reply) — the caller should count these toward service error
    /// stats.
    pub malformed: usize,
    /// The client asked the whole service to stop. The shutdown ack is
    /// already queued on this connection.
    pub shutdown: bool,
}

/// One connection's protocol state. See the module docs.
pub struct Conn {
    codec: Option<&'static (dyn Codec + 'static)>,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Sequence numbers of submitted queries still unanswered.
    in_flight: usize,
    next_seq: u64,
    /// Wire id to echo per live sequence number.
    wire_ids: HashMap<u64, u64>,
    /// Lifecycle spans per live sequence number.
    /// The conn's clone charges decode/encode; the front hands another
    /// clone to the pool so workers can charge queue/execute time.
    spans: HashMap<u64, (OpClass, Span)>,
    /// Ordered codecs: next sequence number allowed to write, and
    /// finished-early replies (already encoded) waiting their turn.
    next_write_seq: u64,
    staged: BTreeMap<u64, Vec<u8>>,
    /// No further input is accepted; close once everything flushes.
    draining: bool,
}

impl Default for Conn {
    fn default() -> Self {
        Conn::new()
    }
}

impl Conn {
    /// A fresh connection that has not yet revealed its codec.
    pub fn new() -> Conn {
        Conn {
            codec: None,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: 0,
            next_seq: 0,
            wire_ids: HashMap::new(),
            spans: HashMap::new(),
            next_write_seq: 0,
            staged: BTreeMap::new(),
            draining: false,
        }
    }

    /// The sniffed codec's name, once the first byte has arrived.
    pub fn codec_name(&self) -> Option<&'static str> {
        self.codec.map(|c| c.name())
    }

    /// Submitted-but-unanswered queries.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Feed bytes read from the transport and decode whatever is now
    /// complete. `Err` means the peer broke the protocol beyond recovery:
    /// flush what is writable, then close.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<Ingested, String> {
        if !self.draining {
            self.rbuf.extend_from_slice(bytes);
        }
        self.pump()
    }

    /// Re-drain buffered input. Call after completions or writes free
    /// capacity — parsing that paused at a cap resumes here.
    pub fn pump(&mut self) -> Result<Ingested, String> {
        let mut out = Ingested::default();
        loop {
            if self.draining
                || self.in_flight >= MAX_IN_FLIGHT
                || self.pending_write().len() >= PAUSE_WRITE_BYTES
            {
                break;
            }
            let pending = &self.rbuf[self.rpos..];
            if pending.is_empty() {
                break;
            }
            let decode_start = std::time::Instant::now();
            let codec = *self.codec.get_or_insert_with(|| {
                if looks_binary(pending[0]) {
                    &BINARY
                } else {
                    &TEXT
                }
            });
            let len = match codec.decode_frame(pending)? {
                Some(len) => len,
                None if pending.len() > MAX_BUFFERED_READ => {
                    return Err(format!(
                        "frame still unfinished after {MAX_BUFFERED_READ} buffered bytes"
                    ));
                }
                None => break,
            };
            let frame = &self.rbuf[self.rpos..self.rpos + len];
            let wire = codec.decode_request(frame);
            self.rpos += len;
            match wire.verb {
                WireVerb::Nop => {}
                WireVerb::Quit => {
                    // No reply; finish what is in flight, then close.
                    self.draining = true;
                }
                WireVerb::Shutdown => {
                    let seq = self.alloc_seq(wire.id);
                    self.finish(seq, Ok(Response::Bye));
                    self.draining = true;
                    out.shutdown = true;
                }
                WireVerb::Malformed(message) => {
                    let seq = self.alloc_seq(wire.id);
                    self.finish(seq, Err(message));
                    out.malformed += 1;
                }
                WireVerb::Query(request) => {
                    let seq = self.alloc_seq(wire.id);
                    self.in_flight += 1;
                    let op = request.op_class();
                    let span = crate::obs::span_for(op, decode_start);
                    span.mark(Stage::Decode);
                    self.spans.insert(seq, (op, span));
                    out.queries.push((seq, request));
                }
            }
        }
        // Reclaim consumed input once it dominates the buffer.
        if self.rpos > 4096 && self.rpos * 2 >= self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        if self.draining {
            self.rbuf.clear();
            self.rpos = 0;
        }
        Ok(out)
    }

    /// Deliver the outcome of a query previously handed out by
    /// [`Conn::ingest`], by its sequence number. Encodes the reply
    /// (immediately, or staged for ordered codecs) and resumes any parsing
    /// that was paused on the in-flight cap — hence the [`Ingested`]
    /// return, which may carry freshly decoded queries.
    pub fn complete(
        &mut self,
        seq: u64,
        reply: Result<Response, String>,
    ) -> Result<Ingested, String> {
        debug_assert!(self.in_flight > 0, "completion without a submission");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.finish(seq, reply);
        if let Some((op, span)) = self.spans.remove(&seq) {
            span.mark(Stage::Encode);
            crate::obs::finish_span(op, span);
        }
        self.pump()
    }

    /// A clone of the lifecycle span for a still-in-flight query, for the
    /// front to attach to its pool submission ([`None`] for an unknown
    /// `seq`). The conn keeps its own clone to charge encode time when
    /// the completion comes back.
    pub fn span(&self, seq: u64) -> Option<Span> {
        self.spans.get(&seq).map(|(_, span)| span.clone())
    }

    /// Encoded reply bytes waiting for the transport.
    pub fn pending_write(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    /// Note that `n` bytes of [`Conn::pending_write`] reached the
    /// transport.
    pub fn advance_write(&mut self, n: usize) {
        self.wpos = (self.wpos + n).min(self.wbuf.len());
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > (64 << 10) {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Should the front keep reading from this peer right now?
    pub fn want_read(&self) -> bool {
        !self.draining
            && self.in_flight < MAX_IN_FLIGHT
            && self.pending_write().len() < PAUSE_WRITE_BYTES
    }

    /// Does this connection have bytes to write?
    pub fn want_write(&self) -> bool {
        !self.pending_write().is_empty()
    }

    /// Mark the peer as gone for input (EOF): in-flight work still
    /// completes, but nothing further will be parsed.
    pub fn input_closed(&mut self) {
        self.draining = true;
        self.rbuf.clear();
        self.rpos = 0;
    }

    /// True once the connection has said all it will say: draining, no
    /// in-flight work, nothing staged, nothing left to write.
    pub fn done(&self) -> bool {
        self.draining && self.in_flight == 0 && self.staged.is_empty() && !self.want_write()
    }

    fn alloc_seq(&mut self, wire_id: Option<u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wire_ids.insert(seq, wire_id.unwrap_or(seq));
        seq
    }

    /// Encode one finished reply. Ordered codecs stage out-of-turn
    /// completions; unordered ones write straight through.
    fn finish(&mut self, seq: u64, reply: Result<Response, String>) {
        let codec = self.codec.expect("finished a request before any bytes arrived");
        let wire_id = self.wire_ids.remove(&seq).unwrap_or(seq);
        if !codec.ordered() {
            codec.encode_response(wire_id, &reply, &mut self.wbuf);
            return;
        }
        if seq == self.next_write_seq {
            codec.encode_response(wire_id, &reply, &mut self.wbuf);
            self.next_write_seq += 1;
            // Release any successors that finished early.
            while let Some(bytes) = self.staged.remove(&self.next_write_seq) {
                self.wbuf.extend_from_slice(&bytes);
                self.next_write_seq += 1;
            }
        } else {
            let mut bytes = Vec::new();
            codec.encode_response(wire_id, &reply, &mut bytes);
            self.staged.insert(seq, bytes);
        }
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("codec", &self.codec_name())
            .field("buffered_read", &(self.rbuf.len() - self.rpos))
            .field("pending_write", &self.pending_write().len())
            .field("in_flight", &self.in_flight)
            .field("staged", &self.staged.len())
            .field("draining", &self.draining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireRequest;

    fn text_lines(conn: &mut Conn) -> Vec<String> {
        let text = String::from_utf8(conn.pending_write().to_vec()).unwrap();
        let n = conn.pending_write().len();
        conn.advance_write(n);
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn sniffs_text_from_the_first_byte() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"INFO\nCORE 3\n").unwrap();
        assert_eq!(conn.codec_name(), Some("text"));
        assert_eq!(out.queries, vec![(0, Request::Info), (1, Request::Core(3))]);
        assert_eq!(conn.in_flight(), 2);
    }

    #[test]
    fn sniffs_binary_from_the_magic_byte() {
        let mut conn = Conn::new();
        let mut wire = Vec::new();
        BINARY.encode_request(42, &Request::Spectrum, &mut wire);
        let out = conn.ingest(&wire).unwrap();
        assert_eq!(conn.codec_name(), Some("binary"));
        assert_eq!(out.queries, vec![(0, Request::Spectrum)]);
    }

    #[test]
    fn text_replies_keep_request_order() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"CORE 1\nCORE 2\nCORE 3\n").unwrap();
        assert_eq!(out.queries.len(), 3);
        // Complete out of order: 2, then 0, then 1.
        conn.complete(2, Ok(Response::Core { t: 1, v: 3, core: 3 })).unwrap();
        assert!(!conn.want_write(), "seq 2 must wait for 0 and 1");
        conn.complete(0, Ok(Response::Core { t: 1, v: 1, core: 1 })).unwrap();
        conn.complete(1, Err("nope".into())).unwrap();
        let lines = text_lines(&mut conn);
        assert_eq!(lines[0], "OK core t=1 v=1 core=1");
        assert_eq!(lines[1], "ERR nope");
        assert_eq!(lines[2], "OK core t=1 v=3 core=3");
    }

    #[test]
    fn binary_replies_flow_in_completion_order_with_their_ids() {
        let mut conn = Conn::new();
        let mut wire = Vec::new();
        BINARY.encode_request(1000, &Request::Core(1), &mut wire);
        BINARY.encode_request(2000, &Request::Core(2), &mut wire);
        let out = conn.ingest(&wire).unwrap();
        assert_eq!(out.queries.len(), 2);
        // Second request completes first and is written immediately.
        conn.complete(1, Ok(Response::Core { t: 1, v: 2, core: 2 })).unwrap();
        let first = conn.pending_write().to_vec();
        let len = BINARY.decode_frame(&first).unwrap().unwrap();
        let (id, reply) = BINARY.decode_response(&first[..len]).unwrap();
        assert_eq!(id, Some(2000), "reply carries the wire id, not arrival order");
        assert_eq!(reply, Ok(Response::Core { t: 1, v: 2, core: 2 }));
    }

    #[test]
    fn malformed_text_is_answered_inline_and_in_order() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"CORE 1\nFROBNICATE\nINFO\n").unwrap();
        assert_eq!(out.queries.len(), 2);
        assert_eq!(out.malformed, 1);
        conn.complete(0, Ok(Response::Core { t: 1, v: 1, core: 1 })).unwrap();
        conn.complete(2, Ok(Response::Info { t: 1, n: 4, m: 4, epochs: 1 })).unwrap();
        let lines = text_lines(&mut conn);
        assert!(lines[0].starts_with("OK core"));
        assert!(lines[1].starts_with("ERR "), "{}", lines[1]);
        assert!(lines[2].starts_with("OK info"));
    }

    #[test]
    fn blank_lines_produce_nothing() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"\n\n").unwrap();
        assert_eq!(out, Ingested::default());
        assert!(!conn.want_write());
        assert!(!conn.done());
    }

    #[test]
    fn quit_drains_without_a_reply() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"CORE 1\nQUIT\nCORE 9\n").unwrap();
        assert_eq!(out.queries.len(), 1, "input after QUIT is discarded");
        assert!(!out.shutdown);
        assert!(!conn.done(), "in-flight query still owed a reply");
        conn.complete(0, Ok(Response::Core { t: 1, v: 1, core: 1 })).unwrap();
        assert!(conn.want_write());
        let n = conn.pending_write().len();
        conn.advance_write(n);
        assert!(conn.done());
    }

    #[test]
    fn shutdown_acks_with_bye_on_both_codecs() {
        let mut conn = Conn::new();
        let out = conn.ingest(b"SHUTDOWN\n").unwrap();
        assert!(out.shutdown);
        assert_eq!(text_lines(&mut conn), vec!["OK bye"]);
        assert!(conn.done());

        let mut conn = Conn::new();
        let mut wire = Vec::new();
        BINARY.encode_shutdown(77, &mut wire);
        let out = conn.ingest(&wire).unwrap();
        assert!(out.shutdown);
        let bytes = conn.pending_write().to_vec();
        let len = BINARY.decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(BINARY.decode_response(&bytes[..len]), Ok((Some(77), Ok(Response::Bye))));
    }

    #[test]
    fn split_frames_reassemble_across_ingests() {
        let mut conn = Conn::new();
        let mut wire = Vec::new();
        BINARY.encode_request(5, &Request::Followers { k: 3, anchor: 9 }, &mut wire);
        let (a, b) = wire.split_at(7);
        assert_eq!(conn.ingest(a).unwrap(), Ingested::default());
        let out = conn.ingest(b).unwrap();
        assert_eq!(out.queries, vec![(0, Request::Followers { k: 3, anchor: 9 })]);
    }

    #[test]
    fn in_flight_cap_pauses_parsing_until_completions() {
        let mut conn = Conn::new();
        let mut wire = Vec::new();
        for i in 0..(MAX_IN_FLIGHT as u64 + 10) {
            BINARY.encode_request(i, &Request::Core(i as u32), &mut wire);
        }
        let out = conn.ingest(&wire).unwrap();
        assert_eq!(out.queries.len(), MAX_IN_FLIGHT, "cap holds");
        assert!(!conn.want_read(), "reading pauses at the cap");
        // Each completion releases exactly one parked request.
        let resumed = conn.complete(0, Err("x".into())).unwrap();
        assert_eq!(resumed.queries.len(), 1);
        assert_eq!(resumed.queries[0].0, MAX_IN_FLIGHT as u64, "next parked request in order");
        assert_eq!(conn.in_flight(), MAX_IN_FLIGHT, "refilled straight back to the cap");
        assert!(!conn.want_read(), "still at the cap until more completions land");
    }

    #[test]
    fn slow_reader_pauses_parsing() {
        let mut conn = Conn::new();
        // One completed huge reply the peer never drains...
        conn.ingest(b"SPECTRUM\n").unwrap();
        let shells = vec![777_777_777usize; PAUSE_WRITE_BYTES / 8];
        conn.complete(0, Ok(Response::Spectrum { t: 1, shells })).unwrap();
        assert!(conn.pending_write().len() >= PAUSE_WRITE_BYTES);
        // ...means further pipelined input stays unparsed.
        let out = conn.ingest(b"INFO\n").unwrap();
        assert_eq!(out.queries.len(), 0);
        assert!(!conn.want_read());
        // Draining the write side resumes parsing.
        let n = conn.pending_write().len();
        conn.advance_write(n);
        let out = conn.pump().unwrap();
        assert_eq!(out.queries, vec![(1, Request::Info)]);
    }

    #[test]
    fn garbage_binary_frames_are_fatal() {
        let mut conn = Conn::new();
        let mut wire = Vec::new();
        BINARY.encode_request(1, &Request::Info, &mut wire);
        wire[4] = 99; // bad version
        assert!(conn.ingest(&wire).is_err());
    }

    #[test]
    fn unbounded_text_line_is_fatal() {
        let mut conn = Conn::new();
        let garbage = vec![b'A'; crate::codec::MAX_TEXT_LINE + 1];
        assert!(conn.ingest(&garbage).is_err());
    }

    #[test]
    fn eof_with_work_in_flight_still_settles() {
        let mut conn = Conn::new();
        conn.ingest(b"CORE 1\n").unwrap();
        conn.input_closed();
        assert!(!conn.done());
        conn.complete(0, Ok(Response::Core { t: 1, v: 1, core: 1 })).unwrap();
        let n = conn.pending_write().len();
        conn.advance_write(n);
        assert!(conn.done());
    }

    #[test]
    fn wire_request_shape_is_stable() {
        // Guard the codec-facing surface the front relies on.
        let req = WireRequest { id: Some(3), verb: WireVerb::Quit };
        assert_eq!(req.id, Some(3));
    }
}
