//! The length-prefixed binary wire format: [`BinaryCodec`].
//!
//! The production format of the nonblocking front-end: framed, fixed-width
//! little-endian fields, and an explicit per-request id so one connection
//! can keep many requests in flight and pair replies in *completion*
//! order (the text format, by contrast, is ordered and unframed). Spec'd
//! here the way `.csrbin` is in `avt_graph::io` — this module's layout
//! tables are normative.
//!
//! # Frame layout
//!
//! Every message — request or response, either direction — is one frame:
//!
//! | offset | size | field | value |
//! |--------|------|-------|-------|
//! | 0 | 4 | magic | `C5 41 56 54` (`0xC5` then `"AVT"`) |
//! | 4 | 1 | version | `1` |
//! | 5 | 1 | opcode | see below |
//! | 6 | 2 | reserved | must be `0` |
//! | 8 | 8 | request id | u64 LE, chosen by the client, echoed by the reply |
//! | 16 | 4 | payload length | u32 LE, bytes after the 20-byte header |
//! | 20 | … | payload | opcode-specific, fixed-width LE |
//!
//! The first magic byte `0xC5` is deliberately not ASCII: the shared
//! listen port sniffs the first byte of a connection and routes
//! `0xC5` to this codec, anything else to the text codec.
//!
//! # Opcodes
//!
//! Request opcodes `0x01..=0x0A` are `OpClass::index() + 1`; connection
//! verbs sit at `0x10`/`0x11`. A success response echoes the request
//! opcode with the high bit set (`op | 0x80`); an error response is
//! `0xFF` regardless of what was asked.
//!
//! | opcode | message | payload |
//! |--------|---------|---------|
//! | `0x01` | `INFO` | — |
//! | `0x02` | `SPECTRUM` | — |
//! | `0x03` | `CORE` | u32 `v` |
//! | `0x04` | `ANCHORED` | u32 `k`, u32 `count`, `count` × u32 anchors |
//! | `0x05` | `FOLLOWERS` | u32 `k`, u32 `anchor` |
//! | `0x06` | `BEST` | u32 `k`, u32 `b`, u8 algo (0 greedy, 1 olak) |
//! | `0x07` | `STATS` | — |
//! | `0x08` | `INGEST` | u64 `ts`, u32 `icount`, `icount` × (u32 `u`, u32 `v`), u32 `dcount`, `dcount` × (u32 `u`, u32 `v`) |
//! | `0x09` | `METRICS` | — |
//! | `0x0A` | `TRACE` | u32 `n` |
//! | `0x10` | `QUIT` | — |
//! | `0x11` | `SHUTDOWN` | — |
//! | `0x81` | info reply | u64 `t`, u64 `n`, u64 `m`, u64 `epochs` |
//! | `0x82` | spectrum reply | u64 `t`, u32 `len`, `len` × u64 shells |
//! | `0x83` | core reply | u64 `t`, u32 `v`, u32 `core` |
//! | `0x84` | anchored reply | u64 `t`, u32 `k`, u64 `size`, u32 `len`, `len` × u32 followers |
//! | `0x85` | followers reply | u64 `t`, u32 `k`, u32 `anchor`, u32 `len`, `len` × u32 followers |
//! | `0x86` | best reply | u64 `t`, u32 `k`, u8 algo, u64 `visited`, u64 `probed`, u32 `alen`, u32 `flen`, anchors, followers |
//! | `0x87` | stats reply | u64 `epochs`, u64 `served`, u64 `errors`, u64 `p50`, u64 `p99`, u8 `ops`, `ops` × (u8 op, u64 count, u64 p50, u64 p99), [writer block, ending at publish u64 `p99`] |
//! | `0x88` | ingest reply | u64 `t`, u64 `accepted`, u64 `folded`, u64 `rejected`, u64 `watermark` |
//! | `0x89` | metrics reply | u32 `len`, `len` bytes of UTF-8 exposition text |
//! | `0x8A` | trace reply | u32 `count`, `count` × (u16 `oplen`, op bytes, u64 `total_us`, u8 `nstages`, `nstages` × (u16 `slen`, stage bytes, u64 `us`)) |
//! | `0x91` | bye (shutdown ack) | — |
//! | `0xFF` | error reply | UTF-8 message |
//!
//! The stats **writer block** is optional: it is simply absent (zero
//! further bytes) on read-only services, and otherwise a `1` byte
//! followed by u64 `batches`, u64 `accepted`, u64 `folded`, u64
//! `rejected`, u64 `dropped`, u64 `watermark`, u64 `lag`, u64 `p50` and
//! u64 `p99` (the epoch-publish percentiles), which end the payload.
//! Frames from pre-writer peers therefore still decode. A layout change
//! that both ends pick up together keeps version `1`: every peer encodes
//! and decodes through this crate's [`BinaryCodec`].
//!
//! Optional microsecond percentiles travel as u64 with `u64::MAX`
//! meaning "absent". A malformed *payload* (bad opcode, wrong length,
//! out-of-range counts) is answered with an error frame on the same id
//! and the connection lives on; a malformed *header* (bad magic, unknown
//! version, nonzero reserved bytes, oversize length) means the peer is
//! not speaking this protocol and the connection closes.

use crate::codec::{Codec, WireRequest, WireVerb};
use crate::protocol::{
    BestAlgo, OpClass, OpLatency, Request, Response, TraceEntry, WriterStats, MAX_ANCHORS,
    MAX_INGEST_EVENTS, MAX_TRACE,
};
use avt_graph::VertexId;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = [0xC5, b'A', b'V', b'T'];

/// Current format version.
pub const VERSION: u8 = 1;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 20;

/// Hard cap on one frame's payload (64 MiB): even a full-follower-list
/// reply on a millions-of-vertices graph fits, while a garbage length
/// field cannot make a peer buffer unboundedly.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// True when a connection whose first byte is `first` is speaking this
/// format (the shared-port sniff).
#[inline]
pub fn looks_binary(first: u8) -> bool {
    first == MAGIC[0]
}

const OP_QUIT: u8 = 0x10;
const OP_SHUTDOWN: u8 = 0x11;
const OP_OK_BIT: u8 = 0x80;
const OP_BYE: u8 = OP_SHUTDOWN | OP_OK_BIT;
const OP_ERR: u8 = 0xFF;

/// Absent-optional sentinel for microsecond fields.
const US_ABSENT: u64 = u64::MAX;

fn op_of(class: OpClass) -> u8 {
    class.index() as u8 + 1
}

fn class_of(op: u8) -> Option<OpClass> {
    OpClass::from_index((op as usize).checked_sub(1)?)
}

// --- little helpers -------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_us(out: &mut Vec<u8>, v: Option<u64>) {
    put_u64(out, v.unwrap_or(US_ABSENT));
}

/// Append a short string as u16 length + UTF-8 bytes (trace op/stage
/// names — never near the 64 KiB ceiling in practice).
fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("payload truncated at byte {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn opt_us(&mut self) -> Result<Option<u64>, String> {
        Ok(match self.u64()? {
            US_ABSENT => None,
            v => Some(v),
        })
    }

    fn u32_list(&mut self, len: usize) -> Result<Vec<u32>, String> {
        let bytes = self.take(len.checked_mul(4).ok_or("list length overflow")?)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    fn str16(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")) as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| "non-UTF-8 string in payload".to_string())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn finish(self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing payload byte(s)", self.bytes.len() - self.at))
        }
    }
}

/// The length-prefixed binary format. See the module docs for the
/// normative layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl BinaryCodec {
    /// Append a frame with the given opcode, id, and payload.
    fn frame(&self, opcode: u8, id: u64, payload: &[u8], out: &mut Vec<u8>) {
        debug_assert!(payload.len() <= MAX_PAYLOAD);
        out.reserve(HEADER_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(opcode);
        put_u16(out, 0); // reserved
        put_u64(out, id);
        put_u32(out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
}

fn request_payload(request: &Request) -> Vec<u8> {
    let mut p = Vec::new();
    match request {
        Request::Info | Request::Spectrum | Request::Stats | Request::Metrics => {}
        Request::Trace { n } => put_u32(&mut p, *n),
        Request::Core(v) => put_u32(&mut p, *v),
        Request::Anchored { k, anchors } => {
            put_u32(&mut p, *k);
            put_u32(&mut p, anchors.len() as u32);
            for &a in anchors {
                put_u32(&mut p, a);
            }
        }
        Request::Followers { k, anchor } => {
            put_u32(&mut p, *k);
            put_u32(&mut p, *anchor);
        }
        Request::Best { k, b, algo } => {
            put_u32(&mut p, *k);
            put_u32(&mut p, *b as u32);
            p.push(match algo {
                BestAlgo::Greedy => 0,
                BestAlgo::Olak => 1,
            });
        }
        Request::Ingest { ts, insertions, deletions } => {
            put_u64(&mut p, *ts);
            for pairs in [insertions, deletions] {
                put_u32(&mut p, pairs.len() as u32);
                for &(u, v) in pairs {
                    put_u32(&mut p, u);
                    put_u32(&mut p, v);
                }
            }
        }
    }
    p
}

fn response_payload(response: &Response) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let opcode = match response {
        Response::Info { t, n, m, epochs } => {
            put_u64(&mut p, *t as u64);
            put_u64(&mut p, *n as u64);
            put_u64(&mut p, *m as u64);
            put_u64(&mut p, *epochs);
            op_of(OpClass::Info) | OP_OK_BIT
        }
        Response::Spectrum { t, shells } => {
            put_u64(&mut p, *t as u64);
            put_u32(&mut p, shells.len() as u32);
            for &s in shells {
                put_u64(&mut p, s as u64);
            }
            op_of(OpClass::Spectrum) | OP_OK_BIT
        }
        Response::Core { t, v, core } => {
            put_u64(&mut p, *t as u64);
            put_u32(&mut p, *v);
            put_u32(&mut p, *core);
            op_of(OpClass::Core) | OP_OK_BIT
        }
        Response::Anchored { t, k, size, followers } => {
            put_u64(&mut p, *t as u64);
            put_u32(&mut p, *k);
            put_u64(&mut p, *size as u64);
            put_u32(&mut p, followers.len() as u32);
            for &f in followers {
                put_u32(&mut p, f);
            }
            op_of(OpClass::Anchored) | OP_OK_BIT
        }
        Response::Followers { t, k, anchor, followers } => {
            put_u64(&mut p, *t as u64);
            put_u32(&mut p, *k);
            put_u32(&mut p, *anchor);
            put_u32(&mut p, followers.len() as u32);
            for &f in followers {
                put_u32(&mut p, f);
            }
            op_of(OpClass::Followers) | OP_OK_BIT
        }
        Response::Best { t, k, algo, anchors, followers, visited, probed } => {
            put_u64(&mut p, *t as u64);
            put_u32(&mut p, *k);
            p.push(match algo {
                BestAlgo::Greedy => 0,
                BestAlgo::Olak => 1,
            });
            put_u64(&mut p, *visited);
            put_u64(&mut p, *probed);
            put_u32(&mut p, anchors.len() as u32);
            put_u32(&mut p, followers.len() as u32);
            for &a in anchors {
                put_u32(&mut p, a);
            }
            for &f in followers {
                put_u32(&mut p, f);
            }
            op_of(OpClass::Best) | OP_OK_BIT
        }
        Response::Stats { epochs, served, errors, p50_us, p99_us, per_op, writer } => {
            put_u64(&mut p, *epochs);
            put_u64(&mut p, *served);
            put_u64(&mut p, *errors);
            put_opt_us(&mut p, *p50_us);
            put_opt_us(&mut p, *p99_us);
            p.push(per_op.len() as u8);
            for o in per_op {
                p.push(o.op.index() as u8);
                put_u64(&mut p, o.count);
                put_opt_us(&mut p, o.p50_us);
                put_opt_us(&mut p, o.p99_us);
            }
            // Writer block: absent entirely on read-only services, so the
            // payload stays byte-identical to the pre-writer layout.
            if let Some(w) = writer {
                p.push(1);
                put_u64(&mut p, w.batches_applied);
                put_u64(&mut p, w.events_accepted);
                put_u64(&mut p, w.events_folded);
                put_u64(&mut p, w.events_rejected);
                put_u64(&mut p, w.events_dropped);
                put_u64(&mut p, w.watermark);
                put_u64(&mut p, w.watermark_lag);
                put_opt_us(&mut p, w.publish_p50_us);
                put_opt_us(&mut p, w.publish_p99_us);
            }
            op_of(OpClass::Stats) | OP_OK_BIT
        }
        Response::Ingest { t, accepted, folded, rejected, watermark } => {
            put_u64(&mut p, *t);
            put_u64(&mut p, *accepted);
            put_u64(&mut p, *folded);
            put_u64(&mut p, *rejected);
            put_u64(&mut p, *watermark);
            op_of(OpClass::Ingest) | OP_OK_BIT
        }
        Response::Metrics { text } => {
            let bytes = &text.as_bytes()[..text.len().min(MAX_PAYLOAD - 4)];
            put_u32(&mut p, bytes.len() as u32);
            p.extend_from_slice(bytes);
            op_of(OpClass::Metrics) | OP_OK_BIT
        }
        Response::Trace { entries } => {
            put_u32(&mut p, entries.len() as u32);
            for e in entries {
                put_str16(&mut p, &e.op);
                put_u64(&mut p, e.total_us);
                p.push(e.stages.len().min(u8::MAX as usize) as u8);
                for (stage, us) in e.stages.iter().take(u8::MAX as usize) {
                    put_str16(&mut p, stage);
                    put_u64(&mut p, *us);
                }
            }
            op_of(OpClass::Trace) | OP_OK_BIT
        }
        Response::Bye => OP_BYE,
    };
    (opcode, p)
}

/// Shared header scan: opcode, id, payload. `decode_frame` has already
/// vetted magic/version/reserved/length, so this only slices.
fn split_frame(frame: &[u8]) -> (u8, u64, &[u8]) {
    let opcode = frame[5];
    let id = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    (opcode, id, &frame[HEADER_BYTES..])
}

fn decode_request_payload(opcode: u8, payload: &[u8]) -> Result<Request, String> {
    let class = class_of(opcode).ok_or_else(|| format!("unknown request opcode {opcode:#04x}"))?;
    let mut c = Cursor::new(payload);
    let request = match class {
        OpClass::Info => Request::Info,
        OpClass::Spectrum => Request::Spectrum,
        OpClass::Core => Request::Core(c.u32()?),
        OpClass::Anchored => {
            let k = c.u32()?;
            let len = c.u32()? as usize;
            if len > MAX_ANCHORS {
                return Err(format!("at most {MAX_ANCHORS} anchors per request"));
            }
            Request::Anchored { k, anchors: c.u32_list(len)? }
        }
        OpClass::Followers => Request::Followers { k: c.u32()?, anchor: c.u32()? },
        OpClass::Best => {
            let k = c.u32()?;
            let b = c.u32()? as usize;
            if b > MAX_ANCHORS {
                return Err(format!("at most b = {MAX_ANCHORS} per request"));
            }
            let algo = match c.u8()? {
                0 => BestAlgo::Greedy,
                1 => BestAlgo::Olak,
                other => return Err(format!("unknown algorithm byte {other}")),
            };
            Request::Best { k, b, algo }
        }
        OpClass::Stats => Request::Stats,
        OpClass::Ingest => {
            let ts = c.u64()?;
            let mut lists = [Vec::new(), Vec::new()];
            for list in &mut lists {
                let len = c.u32()? as usize;
                if len > MAX_INGEST_EVENTS {
                    return Err(format!("at most {MAX_INGEST_EVENTS} events per request"));
                }
                *list = c
                    .u32_list(len.checked_mul(2).ok_or("event count overflow")?)?
                    .chunks_exact(2)
                    .map(|p| (p[0], p[1]))
                    .collect();
            }
            let [insertions, deletions] = lists;
            if insertions.len() + deletions.len() > MAX_INGEST_EVENTS {
                return Err(format!("at most {MAX_INGEST_EVENTS} events per request"));
            }
            Request::Ingest { ts, insertions, deletions }
        }
        OpClass::Metrics => Request::Metrics,
        OpClass::Trace => {
            let n = c.u32()?;
            if n as usize > MAX_TRACE {
                return Err(format!("at most {MAX_TRACE} trace entries per request"));
            }
            Request::Trace { n }
        }
    };
    c.finish()?;
    Ok(request)
}

fn decode_response_payload(opcode: u8, payload: &[u8]) -> Result<Response, String> {
    if opcode == OP_BYE {
        return if payload.is_empty() {
            Ok(Response::Bye)
        } else {
            Err("bye frame with payload".into())
        };
    }
    let class = class_of(opcode & !OP_OK_BIT)
        .filter(|_| opcode & OP_OK_BIT != 0)
        .ok_or_else(|| format!("unknown response opcode {opcode:#04x}"))?;
    let mut c = Cursor::new(payload);
    let response = match class {
        OpClass::Info => Response::Info {
            t: c.u64()? as usize,
            n: c.u64()? as usize,
            m: c.u64()? as usize,
            epochs: c.u64()?,
        },
        OpClass::Spectrum => {
            let t = c.u64()? as usize;
            let len = c.u32()? as usize;
            let mut shells = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                shells.push(c.u64()? as usize);
            }
            Response::Spectrum { t, shells }
        }
        OpClass::Core => Response::Core { t: c.u64()? as usize, v: c.u32()?, core: c.u32()? },
        OpClass::Anchored => {
            let t = c.u64()? as usize;
            let k = c.u32()?;
            let size = c.u64()? as usize;
            let len = c.u32()? as usize;
            Response::Anchored { t, k, size, followers: c.u32_list(len)? }
        }
        OpClass::Followers => {
            let t = c.u64()? as usize;
            let k = c.u32()?;
            let anchor = c.u32()?;
            let len = c.u32()? as usize;
            Response::Followers { t, k, anchor, followers: c.u32_list(len)? }
        }
        OpClass::Best => {
            let t = c.u64()? as usize;
            let k = c.u32()?;
            let algo = match c.u8()? {
                0 => BestAlgo::Greedy,
                1 => BestAlgo::Olak,
                other => return Err(format!("unknown algorithm byte {other}")),
            };
            let visited = c.u64()?;
            let probed = c.u64()?;
            let alen = c.u32()? as usize;
            let flen = c.u32()? as usize;
            let anchors: Vec<VertexId> = c.u32_list(alen)?;
            let followers: Vec<VertexId> = c.u32_list(flen)?;
            Response::Best { t, k, algo, anchors, followers, visited, probed }
        }
        OpClass::Stats => {
            let epochs = c.u64()?;
            let served = c.u64()?;
            let errors = c.u64()?;
            let p50_us = c.opt_us()?;
            let p99_us = c.opt_us()?;
            let ops = c.u8()? as usize;
            let mut per_op = Vec::with_capacity(ops);
            for _ in 0..ops {
                let op = OpClass::from_index(c.u8()? as usize)
                    .ok_or("unknown op index in stats reply")?;
                per_op.push(OpLatency {
                    op,
                    count: c.u64()?,
                    p50_us: c.opt_us()?,
                    p99_us: c.opt_us()?,
                });
            }
            // Absent block (pre-writer peers) decodes as `None`.
            let writer = if c.remaining() == 0 {
                None
            } else {
                if c.u8()? != 1 {
                    return Err("bad writer-block flag in stats reply".into());
                }
                Some(WriterStats {
                    batches_applied: c.u64()?,
                    events_accepted: c.u64()?,
                    events_folded: c.u64()?,
                    events_rejected: c.u64()?,
                    events_dropped: c.u64()?,
                    watermark: c.u64()?,
                    watermark_lag: c.u64()?,
                    publish_p50_us: c.opt_us()?,
                    publish_p99_us: c.opt_us()?,
                })
            };
            Response::Stats { epochs, served, errors, p50_us, p99_us, per_op, writer }
        }
        OpClass::Ingest => Response::Ingest {
            t: c.u64()?,
            accepted: c.u64()?,
            folded: c.u64()?,
            rejected: c.u64()?,
            watermark: c.u64()?,
        },
        OpClass::Metrics => {
            let len = c.u32()? as usize;
            let text = std::str::from_utf8(c.take(len)?)
                .map_err(|_| "non-UTF-8 metrics text".to_string())?
                .to_string();
            Response::Metrics { text }
        }
        OpClass::Trace => {
            let count = c.u32()? as usize;
            if count > MAX_TRACE {
                return Err(format!("at most {MAX_TRACE} trace entries per reply"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let op = c.str16()?;
                let total_us = c.u64()?;
                let nstages = c.u8()? as usize;
                let mut stages = Vec::with_capacity(nstages);
                for _ in 0..nstages {
                    let stage = c.str16()?;
                    stages.push((stage, c.u64()?));
                }
                entries.push(TraceEntry { op, total_us, stages });
            }
            Response::Trace { entries }
        }
    };
    c.finish()?;
    Ok(response)
}

impl Codec for BinaryCodec {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn ordered(&self) -> bool {
        false
    }

    fn encode_request(&self, id: u64, request: &Request, out: &mut Vec<u8>) {
        self.frame(op_of(request.op_class()), id, &request_payload(request), out);
    }

    fn encode_quit(&self, id: u64, out: &mut Vec<u8>) {
        self.frame(OP_QUIT, id, &[], out);
    }

    fn encode_shutdown(&self, id: u64, out: &mut Vec<u8>) {
        self.frame(OP_SHUTDOWN, id, &[], out);
    }

    fn encode_response(&self, id: u64, reply: &Result<Response, String>, out: &mut Vec<u8>) {
        match reply {
            Ok(response) => {
                let (opcode, payload) = response_payload(response);
                self.frame(opcode, id, &payload, out);
            }
            Err(message) => {
                let mut bytes = message.as_bytes();
                if bytes.len() > MAX_PAYLOAD {
                    bytes = &bytes[..MAX_PAYLOAD];
                }
                self.frame(OP_ERR, id, bytes, out);
            }
        }
    }

    fn decode_frame(&self, buf: &[u8]) -> Result<Option<usize>, String> {
        // Validate header fields as soon as their bytes arrive — a peer
        // that is not speaking this protocol is rejected on its first few
        // bytes, not after a 20-byte wait.
        let prefix = buf.len().min(4);
        if buf[..prefix] != MAGIC[..prefix] {
            return Err("bad frame magic (not the binary protocol)".into());
        }
        if buf.len() >= 5 && buf[4] != VERSION {
            return Err(format!("unknown binary protocol version {}", buf[4]));
        }
        if buf.len() >= 8 && buf[6..8] != [0, 0] {
            return Err("nonzero reserved header bytes".into());
        }
        if buf.len() < HEADER_BYTES {
            return Ok(None);
        }
        let payload = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
        if payload > MAX_PAYLOAD {
            return Err(format!("frame payload {payload} exceeds the {MAX_PAYLOAD}-byte cap"));
        }
        let total = HEADER_BYTES + payload;
        Ok((buf.len() >= total).then_some(total))
    }

    fn decode_request(&self, frame: &[u8]) -> WireRequest {
        let (opcode, id, payload) = split_frame(frame);
        let id = Some(id);
        let verb = match opcode {
            OP_QUIT => WireVerb::Quit,
            OP_SHUTDOWN => WireVerb::Shutdown,
            _ => match decode_request_payload(opcode, payload) {
                Ok(request) => WireVerb::Query(request),
                Err(message) => WireVerb::Malformed(message),
            },
        };
        WireRequest { id, verb }
    }

    fn decode_response(
        &self,
        frame: &[u8],
    ) -> Result<(Option<u64>, Result<Response, String>), String> {
        let (opcode, id, payload) = split_frame(frame);
        if opcode == OP_ERR {
            let message = String::from_utf8_lossy(payload).into_owned();
            return Ok((Some(id), Err(message)));
        }
        Ok((Some(id), Ok(decode_response_payload(opcode, payload)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Info,
            Request::Spectrum,
            Request::Core(17),
            Request::Anchored { k: 3, anchors: vec![1, 5, 9] },
            Request::Anchored { k: 2, anchors: vec![] },
            Request::Followers { k: 3, anchor: 14 },
            Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy },
            Request::Best { k: 4, b: 1, algo: BestAlgo::Olak },
            Request::Stats,
            Request::Ingest { ts: 42, insertions: vec![(0, 1), (2, 3)], deletions: vec![(4, 5)] },
            Request::Ingest { ts: 0, insertions: vec![], deletions: vec![] },
            Request::Metrics,
            Request::Trace { n: 10 },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Info { t: 4, n: 100, m: 250, epochs: 4 },
            Response::Spectrum { t: 1, shells: vec![0, 3, 7] },
            Response::Core { t: 2, v: 9, core: 3 },
            Response::Anchored { t: 3, k: 3, size: 12, followers: vec![2, 4, 10] },
            Response::Followers { t: 1, k: 3, anchor: 14, followers: vec![] },
            Response::Best {
                t: 7,
                k: 3,
                algo: BestAlgo::Olak,
                anchors: vec![6, 9],
                followers: vec![4, 5, 7, 8],
                visited: 321,
                probed: 45,
            },
            Response::Stats {
                epochs: 9,
                served: 100,
                errors: 1,
                p50_us: Some(40),
                p99_us: None,
                per_op: vec![OpLatency {
                    op: OpClass::Best,
                    count: 40,
                    p50_us: Some(800),
                    p99_us: None,
                }],
                writer: None,
            },
            Response::Stats {
                epochs: 12,
                served: 3,
                errors: 0,
                p50_us: None,
                p99_us: None,
                per_op: vec![],
                writer: Some(WriterStats {
                    batches_applied: 11,
                    events_accepted: 40,
                    events_folded: 3,
                    events_rejected: 2,
                    events_dropped: 1,
                    watermark: 14,
                    watermark_lag: 2,
                    publish_p50_us: Some(120),
                    publish_p99_us: None,
                }),
            },
            Response::Ingest { t: 5, accepted: 3, folded: 1, rejected: 0, watermark: 9 },
            Response::Metrics {
                text: "# TYPE avt_requests_total counter\navt_requests_total 42\n".into(),
            },
            Response::Metrics { text: String::new() },
            Response::Trace {
                entries: vec![
                    TraceEntry {
                        op: "best".into(),
                        total_us: 1_234,
                        stages: vec![("queue".into(), 200), ("execute".into(), 1_000)],
                    },
                    TraceEntry { op: "core".into(), total_us: 7, stages: vec![] },
                ],
            },
            Response::Trace { entries: vec![] },
            Response::Bye,
        ]
    }

    #[test]
    fn requests_round_trip_with_ids() {
        let codec = BinaryCodec;
        for (i, req) in requests().into_iter().enumerate() {
            let id = 0x0123_4567_89ab_cdef ^ i as u64;
            let mut wire = Vec::new();
            codec.encode_request(id, &req, &mut wire);
            assert_eq!(codec.decode_frame(&wire), Ok(Some(wire.len())));
            let decoded = codec.decode_request(&wire);
            assert_eq!(decoded, WireRequest { id: Some(id), verb: WireVerb::Query(req) });
        }
    }

    #[test]
    fn verbs_round_trip() {
        let codec = BinaryCodec;
        let mut wire = Vec::new();
        codec.encode_quit(7, &mut wire);
        assert_eq!(codec.decode_request(&wire), WireRequest { id: Some(7), verb: WireVerb::Quit });
        wire.clear();
        codec.encode_shutdown(9, &mut wire);
        assert_eq!(
            codec.decode_request(&wire),
            WireRequest { id: Some(9), verb: WireVerb::Shutdown }
        );
    }

    #[test]
    fn responses_round_trip_with_ids() {
        let codec = BinaryCodec;
        for (i, resp) in responses().into_iter().enumerate() {
            let id = 40 + i as u64;
            let mut wire = Vec::new();
            codec.encode_response(id, &Ok(resp.clone()), &mut wire);
            assert_eq!(codec.decode_frame(&wire), Ok(Some(wire.len())));
            assert_eq!(codec.decode_response(&wire), Ok((Some(id), Ok(resp))));
        }
        let mut wire = Vec::new();
        codec.encode_response(3, &Err("vertex 99 out of range".into()), &mut wire);
        assert_eq!(
            codec.decode_response(&wire),
            Ok((Some(3), Err("vertex 99 out of range".into())))
        );
    }

    #[test]
    fn framing_is_incremental_and_validates_early() {
        let codec = BinaryCodec;
        let mut wire = Vec::new();
        codec.encode_request(1, &Request::Core(5), &mut wire);
        // Every prefix: needs-more until the full frame is there.
        for cut in 0..wire.len() {
            assert_eq!(codec.decode_frame(&wire[..cut]), Ok(None), "cut at {cut}");
        }
        assert_eq!(codec.decode_frame(&wire), Ok(Some(wire.len())));
        // Text bytes are rejected on the very first byte.
        assert!(codec.decode_frame(b"INFO\n").is_err());
        // Wrong version / reserved bytes are fatal as soon as visible.
        let mut bad = wire.clone();
        bad[4] = 9;
        assert!(codec.decode_frame(&bad).is_err());
        let mut bad = wire.clone();
        bad[6] = 1;
        assert!(codec.decode_frame(&bad).is_err());
        // A payload length beyond the cap is fatal, not a long wait.
        let mut bad = wire.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(codec.decode_frame(&bad).is_err());
    }

    #[test]
    fn malformed_payloads_are_recoverable_with_the_id() {
        let codec = BinaryCodec;
        // Unknown opcode.
        let mut wire = Vec::new();
        codec.frame(0x6F, 77, &[], &mut wire);
        match codec.decode_request(&wire) {
            WireRequest { id: Some(77), verb: WireVerb::Malformed(m) } => {
                assert!(m.contains("opcode"), "{m}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Truncated CORE payload.
        let mut wire = Vec::new();
        codec.frame(op_of(OpClass::Core), 5, &[1, 2], &mut wire);
        assert!(matches!(
            codec.decode_request(&wire).verb,
            WireVerb::Malformed(m) if m.contains("truncated")
        ));
        // Trailing bytes.
        let mut wire = Vec::new();
        codec.frame(op_of(OpClass::Info), 5, &[0], &mut wire);
        assert!(matches!(
            codec.decode_request(&wire).verb,
            WireVerb::Malformed(m) if m.contains("trailing")
        ));
        // Anchor-count cap enforced before allocating.
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_u32(&mut payload, u32::MAX);
        let mut wire = Vec::new();
        codec.frame(op_of(OpClass::Anchored), 5, &payload, &mut wire);
        assert!(matches!(
            codec.decode_request(&wire).verb,
            WireVerb::Malformed(m) if m.contains("at most")
        ));
        // Ingest event cap enforced before allocating, too.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        let mut wire = Vec::new();
        codec.frame(op_of(OpClass::Ingest), 5, &payload, &mut wire);
        assert!(matches!(
            codec.decode_request(&wire).verb,
            WireVerb::Malformed(m) if m.contains("at most")
        ));
    }

    #[test]
    fn stats_without_a_writer_block_decodes_as_none() {
        // The pre-writer stats payload (nothing after the ops list) must
        // still decode — the block is optional on the wire.
        let codec = BinaryCodec;
        let mut payload = Vec::new();
        put_u64(&mut payload, 4); // epochs
        put_u64(&mut payload, 9); // served
        put_u64(&mut payload, 0); // errors
        put_opt_us(&mut payload, None);
        put_opt_us(&mut payload, None);
        payload.push(0); // no per-op entries — and no writer block at all
        let mut wire = Vec::new();
        codec.frame(op_of(OpClass::Stats) | OP_OK_BIT, 8, &payload, &mut wire);
        match codec.decode_response(&wire) {
            Ok((Some(8), Ok(Response::Stats { served, writer, .. }))) => {
                assert_eq!((served, writer), (9, None));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quiet_stats_payload_is_byte_identical_to_the_legacy_format() {
        // Without a writer block the payload must end right after the
        // per-op list, exactly as pre-writer peers sent it.
        let codec = BinaryCodec;
        let quiet = Response::Stats {
            epochs: 4,
            served: 9,
            errors: 0,
            p50_us: None,
            p99_us: None,
            per_op: vec![],
            writer: None,
        };
        let mut wire = Vec::new();
        codec.encode_response(8, &Ok(quiet), &mut wire);
        let mut legacy = Vec::new();
        put_u64(&mut legacy, 4);
        put_u64(&mut legacy, 9);
        put_u64(&mut legacy, 0);
        put_opt_us(&mut legacy, None);
        put_opt_us(&mut legacy, None);
        legacy.push(0); // empty per-op list, nothing after
        assert_eq!(&wire[HEADER_BYTES..], &legacy[..]);
    }

    #[test]
    fn sniff_byte_is_unambiguous() {
        assert!(looks_binary(MAGIC[0]));
        // Every text request starts with an ASCII letter (or whitespace);
        // none of those can be the magic byte.
        for b in 0x20u8..0x7F {
            assert!(!looks_binary(b));
        }
    }
}
