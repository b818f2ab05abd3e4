//! The transport-agnostic wire API: the [`Codec`] trait and the
//! newline-delimited [`TextCodec`].
//!
//! A codec translates between the protocol *domain* types
//! ([`Request`]/[`Response`]) and bytes on a stream, making the wire
//! format a swappable axis exactly like `GraphView` (graph substrate) and
//! `FrameSource` (frame delivery) are: the server front-ends and the
//! `loadgen` client are both written against this trait, never against a
//! concrete format.
//!
//! The contract has three layers:
//!
//! 1. **Framing** — [`Codec::decode_frame`] is incremental: given the
//!    unconsumed bytes of a read buffer it answers "how long is the first
//!    complete frame?" (`Ok(None)` = incomplete, keep reading; `Err` =
//!    the stream is unframeable and the connection must close). It never
//!    consumes anything itself, so partial reads cost nothing.
//! 2. **Requests** — [`Codec::encode_request`] /
//!    [`Codec::decode_request`]. Inbound frames decode to a
//!    [`WireRequest`]: a query, a connection verb (`QUIT`/`SHUTDOWN`), a
//!    recoverable [`WireVerb::Malformed`] (answer with an error, keep the
//!    connection), or a [`WireVerb::Nop`] (text blank keep-alive line).
//! 3. **Responses** — [`Codec::encode_response`] /
//!    [`Codec::decode_response`] carry the executor verdict
//!    (`Result<Response, String>`) both ways.
//!
//! **Request ids.** The binary format stamps every frame with a client
//! chosen id and allows many requests in flight per connection, answered
//! in completion order; ids are how replies re-pair. The text format has
//! no ids on the wire — [`Codec::ordered`] returns `true`, ids are
//! assigned sequentially by the connection on both sides, and the server
//! writes responses in request order. That one flag is the entire
//! difference the front-end sees between the two formats.

use crate::protocol::{
    BestAlgo, OpClass, OpLatency, Request, Response, TraceEntry, WriterStats, MAX_ANCHORS,
    MAX_INGEST_EVENTS, MAX_TRACE,
};
use avt_graph::VertexId;

/// Longest accepted text line (including the newline). A line this long
/// with no `\n` is not a text client — it is garbage or an attack, and
/// the connection closes rather than buffering without bound.
pub const MAX_TEXT_LINE: usize = 64 * 1024;

/// One decoded inbound wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// The wire-carried request id; `None` when the format is ordered
    /// (text) and the connection assigns ids sequentially.
    pub id: Option<u64>,
    /// What arrived.
    pub verb: WireVerb,
}

/// The kinds of inbound message a frame can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerb {
    /// A query for the executor.
    Query(Request),
    /// Close this connection (after pending replies drain).
    Quit,
    /// Drain and stop the whole service; acknowledged with
    /// [`Response::Bye`].
    Shutdown,
    /// Well-framed but unparseable: answer with this error message and
    /// keep the connection alive.
    Malformed(String),
    /// A frame that carries nothing (text blank keep-alive line).
    Nop,
}

/// A wire format for the anchored-core protocol.
///
/// Implementations are stateless and `Send + Sync`: one instance serves
/// every connection. All per-connection state (buffers, sequential ids,
/// response ordering) lives in [`crate::conn::Conn`].
pub trait Codec: Send + Sync {
    /// Short human name (`"text"` / `"binary"`), for logs and flags.
    fn name(&self) -> &'static str;

    /// `true` when the format carries no request ids and responses must
    /// be written in request order; `false` when frames carry ids and
    /// responses may complete out of order.
    fn ordered(&self) -> bool;

    /// Append the encoded form of query `request` with request id `id`
    /// to `out`. Ordered formats ignore `id`.
    fn encode_request(&self, id: u64, request: &Request, out: &mut Vec<u8>);

    /// Append an encoded `QUIT` verb.
    fn encode_quit(&self, id: u64, out: &mut Vec<u8>);

    /// Append an encoded `SHUTDOWN` verb.
    fn encode_shutdown(&self, id: u64, out: &mut Vec<u8>);

    /// Append the encoded response to request `id` — success or error —
    /// to `out`. Ordered formats ignore `id`.
    fn encode_response(&self, id: u64, reply: &Result<Response, String>, out: &mut Vec<u8>);

    /// Length in bytes of the first complete frame of `buf`, or
    /// `Ok(None)` when more bytes are needed. `Err` means the stream is
    /// not of this format (or violates its limits) and the connection
    /// must close.
    fn decode_frame(&self, buf: &[u8]) -> Result<Option<usize>, String>;

    /// Decode one complete inbound frame (exactly the bytes
    /// [`Codec::decode_frame`] measured).
    fn decode_request(&self, frame: &[u8]) -> WireRequest;

    /// Decode one complete response frame. Returns the request id it
    /// answers (`None` for ordered formats) and the verdict. The outer
    /// `Err` means the frame is not a response at all (protocol
    /// violation: the client should drop the connection).
    #[allow(clippy::type_complexity)]
    fn decode_response(
        &self,
        frame: &[u8],
    ) -> Result<(Option<u64>, Result<Response, String>), String>;
}

// ---------------------------------------------------------------------------
// The text format.
// ---------------------------------------------------------------------------

/// The newline-delimited text format: one request per line, one response
/// line per request, in order.
///
/// Replies read `OK <kind> key=value ...` or `ERR <message>`, vertex
/// lists comma-separated with `-` for empty, so `nc` is a working client
/// and every reply is eyeball-able. The nonblocking front-end sniffs it
/// by first byte (any byte but the binary magic), so both formats share
/// one listen port.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl Codec for TextCodec {
    fn name(&self) -> &'static str {
        "text"
    }

    fn ordered(&self) -> bool {
        true
    }

    fn encode_request(&self, _id: u64, request: &Request, out: &mut Vec<u8>) {
        out.extend_from_slice(text_request_line(request).as_bytes());
        out.push(b'\n');
    }

    fn encode_quit(&self, _id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(b"QUIT\n");
    }

    fn encode_shutdown(&self, _id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(b"SHUTDOWN\n");
    }

    fn encode_response(&self, _id: u64, reply: &Result<Response, String>, out: &mut Vec<u8>) {
        out.extend_from_slice(text_reply_line(reply).as_bytes());
        out.push(b'\n');
    }

    fn decode_frame(&self, buf: &[u8]) -> Result<Option<usize>, String> {
        match buf.iter().take(MAX_TEXT_LINE).position(|&b| b == b'\n') {
            Some(at) => Ok(Some(at + 1)),
            None if buf.len() >= MAX_TEXT_LINE => {
                Err(format!("text line exceeds {MAX_TEXT_LINE} bytes without a newline"))
            }
            None => Ok(None),
        }
    }

    fn decode_request(&self, frame: &[u8]) -> WireRequest {
        let line = match std::str::from_utf8(frame) {
            Ok(line) => line.trim(),
            Err(_) => {
                return WireRequest {
                    id: None,
                    verb: WireVerb::Malformed("request line is not UTF-8".into()),
                }
            }
        };
        let verb = match line.to_ascii_uppercase().as_str() {
            "" => WireVerb::Nop,
            "QUIT" => WireVerb::Quit,
            "SHUTDOWN" => WireVerb::Shutdown,
            _ => match parse_text_request_line(line) {
                Ok(request) => WireVerb::Query(request),
                Err(message) => WireVerb::Malformed(message),
            },
        };
        WireRequest { id: None, verb }
    }

    fn decode_response(
        &self,
        frame: &[u8],
    ) -> Result<(Option<u64>, Result<Response, String>), String> {
        let line = std::str::from_utf8(frame)
            .map_err(|_| "response line is not UTF-8".to_string())?
            .trim_end();
        if let Some(message) = line.strip_prefix("ERR ") {
            return Ok((None, Err(message.to_string())));
        }
        Ok((None, Ok(parse_text_response_line(line)?)))
    }
}

fn join_list<T: ToString>(items: &[T]) -> String {
    if items.is_empty() {
        return "-".into();
    }
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

fn parse_list<T: std::str::FromStr>(field: &str, value: &str) -> Result<Vec<T>, String> {
    if value == "-" {
        return Ok(Vec::new());
    }
    value.split(',').map(|x| x.parse().map_err(|_| format!("bad {field} element {x:?}"))).collect()
}

fn parse_num<T: std::str::FromStr>(field: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {field} value {value:?}"))
}

fn opt_us(v: Option<u64>) -> String {
    v.map_or("-".into(), |x| x.to_string())
}

fn parse_opt_us(field: &str, value: &str) -> Result<Option<u64>, String> {
    if value == "-" {
        Ok(None)
    } else {
        parse_num(field, value).map(Some)
    }
}

/// Render edge pairs as one flattened comma list (`u1,v1,u2,v2`, `-` when
/// empty) — the same list syntax every other text field uses.
fn join_pairs(pairs: &[(VertexId, VertexId)]) -> String {
    let flat: Vec<VertexId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    join_list(&flat)
}

fn parse_pairs(field: &str, value: &str) -> Result<Vec<(VertexId, VertexId)>, String> {
    let flat: Vec<VertexId> = parse_list(field, value)?;
    if !flat.len().is_multiple_of(2) {
        return Err(format!("{field} list must pair up (got {} elements)", flat.len()));
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

/// The text wire line for `request` (no trailing newline).
pub(crate) fn text_request_line(request: &Request) -> String {
    match request {
        Request::Info => "INFO".into(),
        Request::Spectrum => "SPECTRUM".into(),
        Request::Core(v) => format!("CORE {v}"),
        Request::Anchored { k, anchors } => format!("ANCHORED {k} {}", join_list(anchors)),
        Request::Followers { k, anchor } => format!("FOLLOWERS {k} {anchor}"),
        Request::Best { k, b, algo } => format!("BEST {k} {b} {}", algo.wire_name()),
        Request::Stats => "STATS".into(),
        Request::Ingest { ts, insertions, deletions } => {
            format!("INGEST {ts} {} {}", join_pairs(insertions), join_pairs(deletions))
        }
        Request::Metrics => "METRICS".into(),
        Request::Trace { n } => format!("TRACE {n}"),
    }
}

/// Parse one text request line. Keywords are case-insensitive; argument
/// counts and ranges are validated here so the executor only ever sees
/// well-formed requests.
pub(crate) fn parse_text_request_line(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let keyword = tokens.next().ok_or("empty request")?.to_ascii_uppercase();
    let args: Vec<&str> = tokens.collect();
    let want = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("{keyword} takes {n} argument(s), got {}", args.len()))
        }
    };
    let req = match keyword.as_str() {
        "INFO" => {
            want(0)?;
            Request::Info
        }
        "SPECTRUM" => {
            want(0)?;
            Request::Spectrum
        }
        "CORE" => {
            want(1)?;
            Request::Core(parse_num("vertex", args[0])?)
        }
        "ANCHORED" => {
            want(2)?;
            let k = parse_num("k", args[0])?;
            let anchors: Vec<VertexId> = parse_list("anchors", args[1])?;
            if anchors.len() > MAX_ANCHORS {
                return Err(format!("at most {MAX_ANCHORS} anchors per request"));
            }
            Request::Anchored { k, anchors }
        }
        "FOLLOWERS" => {
            want(2)?;
            Request::Followers {
                k: parse_num("k", args[0])?,
                anchor: parse_num("anchor", args[1])?,
            }
        }
        "BEST" => {
            want(3)?;
            let k = parse_num("k", args[0])?;
            let b: usize = parse_num("b", args[1])?;
            if b > MAX_ANCHORS {
                return Err(format!("at most b = {MAX_ANCHORS} per request"));
            }
            let algo = match args[2].to_ascii_lowercase().as_str() {
                "greedy" => BestAlgo::Greedy,
                "olak" => BestAlgo::Olak,
                other => return Err(format!("unknown algorithm {other:?} (greedy|olak)")),
            };
            Request::Best { k, b, algo }
        }
        "STATS" => {
            want(0)?;
            Request::Stats
        }
        "INGEST" => {
            want(3)?;
            let ts = parse_num("ts", args[0])?;
            let insertions = parse_pairs("insertions", args[1])?;
            let deletions = parse_pairs("deletions", args[2])?;
            if insertions.len() + deletions.len() > MAX_INGEST_EVENTS {
                return Err(format!("at most {MAX_INGEST_EVENTS} events per request"));
            }
            Request::Ingest { ts, insertions, deletions }
        }
        "METRICS" => {
            want(0)?;
            Request::Metrics
        }
        "TRACE" => {
            want(1)?;
            let n: u32 = parse_num("n", args[0])?;
            if n as usize > MAX_TRACE {
                return Err(format!("at most {MAX_TRACE} trace entries per request"));
            }
            Request::Trace { n }
        }
        other => return Err(format!("unknown request {other:?}")),
    };
    Ok(req)
}

/// Render the `ops=` field value: `op:count:p50:p99` entries joined by
/// commas (percentiles `-` when absent).
fn join_ops(per_op: &[OpLatency]) -> String {
    per_op
        .iter()
        .map(|o| {
            format!("{}:{}:{}:{}", o.op.wire_name(), o.count, opt_us(o.p50_us), opt_us(o.p99_us))
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Render the `writer=` field value: the counters colon-joined in
/// declaration order (percentiles `-` when absent).
fn join_writer(w: &WriterStats) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}:{}:{}:{}",
        w.batches_applied,
        w.events_accepted,
        w.events_folded,
        w.events_rejected,
        w.events_dropped,
        w.watermark,
        w.watermark_lag,
        opt_us(w.publish_p50_us),
        opt_us(w.publish_p99_us)
    )
}

fn parse_writer(value: &str) -> Result<WriterStats, String> {
    let parts: Vec<&str> = value.split(':').collect();
    let [applied, accepted, folded, rejected, dropped, watermark, lag, p50, p99] = parts[..] else {
        return Err(format!("malformed writer field {value:?}"));
    };
    Ok(WriterStats {
        batches_applied: parse_num("writer batches", applied)?,
        events_accepted: parse_num("writer accepted", accepted)?,
        events_folded: parse_num("writer folded", folded)?,
        events_rejected: parse_num("writer rejected", rejected)?,
        events_dropped: parse_num("writer dropped", dropped)?,
        watermark: parse_num("writer watermark", watermark)?,
        watermark_lag: parse_num("writer lag", lag)?,
        publish_p50_us: parse_opt_us("writer p50", p50)?,
        publish_p99_us: parse_opt_us("writer p99", p99)?,
    })
}

/// Escape a free-form string for a `key=value` text field: `%`, spaces,
/// tabs, carriage returns and newlines become `%XX`, so the value is one
/// whitespace-free token and the line-delimited framing survives a
/// multi-line payload (the `METRICS` exposition is full of newlines).
fn esc_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Invert [`esc_text`]. Only ASCII code points are ever escaped, so the
/// byte-to-char cast is exact.
fn unesc_text(field: &str, s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = it.next().and_then(|c| c.to_digit(16));
        let lo = it.next().and_then(|c| c.to_digit(16));
        match (hi, lo) {
            (Some(h), Some(l)) if h < 8 => out.push((h * 16 + l) as u8 as char),
            _ => return Err(format!("bad {field} escape in reply")),
        }
    }
    Ok(out)
}

/// Render the `entries=` field value: `op:total:stage~us:stage~us...`
/// entries joined by commas (`-` when empty). Op and stage names are
/// escaped, so the separators are unambiguous.
fn join_trace(entries: &[TraceEntry]) -> String {
    if entries.is_empty() {
        return "-".into();
    }
    entries
        .iter()
        .map(|e| {
            let mut s = format!("{}:{}", esc_text(&e.op), e.total_us);
            for (stage, us) in &e.stages {
                s.push_str(&format!(":{}~{us}", esc_text(stage)));
            }
            s
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_trace(value: &str) -> Result<Vec<TraceEntry>, String> {
    if value == "-" {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|entry| {
            let mut parts = entry.split(':');
            let op = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("malformed trace entry {entry:?}"))?;
            let total = parts.next().ok_or_else(|| format!("malformed trace entry {entry:?}"))?;
            let stages = parts
                .map(|pair| {
                    let (stage, us) = pair
                        .split_once('~')
                        .ok_or_else(|| format!("malformed trace stage {pair:?}"))?;
                    Ok((unesc_text("trace stage", stage)?, parse_num("trace stage us", us)?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(TraceEntry {
                op: unesc_text("trace op", op)?,
                total_us: parse_num("trace total", total)?,
                stages,
            })
        })
        .collect()
}

fn parse_ops(value: &str) -> Result<Vec<OpLatency>, String> {
    value
        .split(',')
        .map(|entry| {
            let parts: Vec<&str> = entry.split(':').collect();
            let [name, count, p50, p99] = parts[..] else {
                return Err(format!("malformed ops entry {entry:?}"));
            };
            Ok(OpLatency {
                op: OpClass::from_wire_name(name)
                    .ok_or_else(|| format!("unknown op {name:?} in ops"))?,
                count: parse_num("ops count", count)?,
                p50_us: parse_opt_us("ops p50", p50)?,
                p99_us: parse_opt_us("ops p99", p99)?,
            })
        })
        .collect()
}

/// The `OK <kind> ...` text line for a successful response (no trailing
/// newline).
pub(crate) fn text_ok_line(response: &Response) -> String {
    match response {
        Response::Info { t, n, m, epochs } => {
            format!("OK info t={t} n={n} m={m} epochs={epochs}")
        }
        Response::Spectrum { t, shells } => {
            format!("OK spectrum t={t} shells={}", join_list(shells))
        }
        Response::Core { t, v, core } => format!("OK core t={t} v={v} core={core}"),
        Response::Anchored { t, k, size, followers } => {
            format!("OK anchored t={t} k={k} size={size} followers={}", join_list(followers))
        }
        Response::Followers { t, k, anchor, followers } => {
            format!("OK followers t={t} k={k} anchor={anchor} followers={}", join_list(followers))
        }
        Response::Best { t, k, algo, anchors, followers, visited, probed } => format!(
            "OK best t={t} k={k} algo={} anchors={} followers={} visited={visited} \
             probed={probed}",
            algo.wire_name(),
            join_list(anchors),
            join_list(followers)
        ),
        Response::Stats { epochs, served, errors, p50_us, p99_us, per_op, writer } => {
            let mut line = format!(
                "OK stats epochs={epochs} served={served} errors={errors} p50us={} p99us={}",
                opt_us(*p50_us),
                opt_us(*p99_us)
            );
            // Field absent entirely when no class has traffic: the line
            // stays byte-identical to the pre-per-op format until the
            // first query lands.
            if !per_op.is_empty() {
                line.push_str(&format!(" ops={}", join_ops(per_op)));
            }
            // Same discipline for the writer block: only admission-backed
            // services emit it, so read-only deployments keep the legacy
            // line byte for byte.
            if let Some(w) = writer {
                line.push_str(&format!(" writer={}", join_writer(w)));
            }
            line
        }
        Response::Ingest { t, accepted, folded, rejected, watermark } => {
            format!(
                "OK ingest t={t} accepted={accepted} folded={folded} rejected={rejected} \
                 watermark={watermark}"
            )
        }
        Response::Metrics { text } => format!("OK metrics text={}", esc_text(text)),
        Response::Trace { entries } => format!("OK trace entries={}", join_trace(entries)),
        Response::Bye => "OK bye".into(),
    }
}

/// Encode an executor verdict as one text line (no trailing newline).
pub(crate) fn text_reply_line(reply: &Result<Response, String>) -> String {
    match reply {
        Ok(response) => text_ok_line(response),
        // Collapse the message onto one line: the protocol is
        // line-delimited, so an embedded newline would desynchronize the
        // client.
        Err(message) => format!("ERR {}", message.replace('\n', " ")),
    }
}

/// Parse one `OK ...` text response line (the `ERR` branch is handled by
/// the codec, which sees it before dispatching here).
pub(crate) fn parse_text_response_line(line: &str) -> Result<Response, String> {
    let line = line.trim_end();
    if let Some(message) = line.strip_prefix("ERR ") {
        return Err(message.to_string());
    }
    let rest = line.strip_prefix("OK ").ok_or_else(|| format!("malformed reply {line:?}"))?;
    let mut tokens = rest.split_whitespace();
    let kind = tokens.next().ok_or("reply missing kind")?;
    let mut fields = std::collections::BTreeMap::new();
    for token in tokens {
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("malformed field {token:?}"))?;
        fields.insert(key.to_string(), value.to_string());
    }
    let get =
        |key: &str| fields.get(key).cloned().ok_or_else(|| format!("{kind} reply missing {key}"));
    let response = match kind {
        "info" => Response::Info {
            t: parse_num("t", &get("t")?)?,
            n: parse_num("n", &get("n")?)?,
            m: parse_num("m", &get("m")?)?,
            epochs: parse_num("epochs", &get("epochs")?)?,
        },
        "spectrum" => Response::Spectrum {
            t: parse_num("t", &get("t")?)?,
            shells: parse_list("shells", &get("shells")?)?,
        },
        "core" => Response::Core {
            t: parse_num("t", &get("t")?)?,
            v: parse_num("v", &get("v")?)?,
            core: parse_num("core", &get("core")?)?,
        },
        "anchored" => Response::Anchored {
            t: parse_num("t", &get("t")?)?,
            k: parse_num("k", &get("k")?)?,
            size: parse_num("size", &get("size")?)?,
            followers: parse_list("followers", &get("followers")?)?,
        },
        "followers" => Response::Followers {
            t: parse_num("t", &get("t")?)?,
            k: parse_num("k", &get("k")?)?,
            anchor: parse_num("anchor", &get("anchor")?)?,
            followers: parse_list("followers", &get("followers")?)?,
        },
        "best" => Response::Best {
            t: parse_num("t", &get("t")?)?,
            k: parse_num("k", &get("k")?)?,
            algo: match get("algo")?.as_str() {
                "greedy" => BestAlgo::Greedy,
                "olak" => BestAlgo::Olak,
                other => return Err(format!("unknown algo {other:?} in reply")),
            },
            anchors: parse_list("anchors", &get("anchors")?)?,
            followers: parse_list("followers", &get("followers")?)?,
            visited: parse_num("visited", &get("visited")?)?,
            probed: parse_num("probed", &get("probed")?)?,
        },
        "stats" => Response::Stats {
            epochs: parse_num("epochs", &get("epochs")?)?,
            served: parse_num("served", &get("served")?)?,
            errors: parse_num("errors", &get("errors")?)?,
            p50_us: parse_opt_us("p50us", &get("p50us")?)?,
            p99_us: parse_opt_us("p99us", &get("p99us")?)?,
            // Optional: absent on quiet services and pre-per-op peers.
            per_op: match fields.get("ops") {
                Some(value) => parse_ops(value)?,
                None => Vec::new(),
            },
            // Optional: absent on read-only deployments.
            writer: fields.get("writer").map(|value| parse_writer(value)).transpose()?,
        },
        "ingest" => Response::Ingest {
            t: parse_num("t", &get("t")?)?,
            accepted: parse_num("accepted", &get("accepted")?)?,
            folded: parse_num("folded", &get("folded")?)?,
            rejected: parse_num("rejected", &get("rejected")?)?,
            watermark: parse_num("watermark", &get("watermark")?)?,
        },
        "metrics" => Response::Metrics {
            // `text=` with an empty value is a valid (empty) exposition.
            text: unesc_text("metrics text", fields.get("text").map_or("", String::as_str))?,
        },
        "trace" => Response::Trace { entries: parse_trace(&get("entries")?)? },
        "bye" => Response::Bye,
        other => return Err(format!("unknown reply kind {other:?}")),
    };
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(codec: &dyn Codec, buf: &[u8]) -> Vec<u8> {
        let len = codec.decode_frame(buf).unwrap().expect("complete frame");
        buf[..len].to_vec()
    }

    #[test]
    fn requests_round_trip() {
        let codec = TextCodec;
        let cases = [
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
        ];
        for req in cases {
            let mut wire = Vec::new();
            codec.encode_request(7, &req, &mut wire);
            let frame = frame_of(&codec, &wire);
            assert_eq!(frame.len(), wire.len(), "one frame per request");
            let decoded = codec.decode_request(&frame);
            assert_eq!(decoded, WireRequest { id: None, verb: WireVerb::Query(req) });
        }
    }

    #[test]
    fn request_keywords_are_case_insensitive() {
        assert_eq!(parse_text_request_line("core 3"), Ok(Request::Core(3)));
        assert_eq!(
            parse_text_request_line("  best 3 2 GREEDY  "),
            Ok(Request::Best { k: 3, b: 2, algo: BestAlgo::Greedy })
        );
        // Connection verbs too (the old front-end uppercased lines).
        assert_eq!(TextCodec.decode_request(b"quit\n").verb, WireVerb::Quit);
        assert_eq!(TextCodec.decode_request(b"Shutdown\n").verb, WireVerb::Shutdown);
        assert_eq!(TextCodec.decode_request(b"\n").verb, WireVerb::Nop);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        let reject =
            |line: &str| match TextCodec.decode_request(format!("{line}\n").as_bytes()).verb {
                WireVerb::Malformed(message) => message,
                other => panic!("{line:?} decoded to {other:?}"),
            };
        assert!(reject("NOPE").contains("unknown request"));
        assert!(reject("CORE").contains("1 argument"));
        assert!(reject("CORE x").contains("bad vertex"));
        assert!(reject("BEST 3 2 quantum").contains("unknown algorithm"));
        assert!(reject("ANCHORED 3 1,2,x").contains("anchors element"));
        let too_many =
            (0..=MAX_ANCHORS as u32).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        assert!(reject(&format!("ANCHORED 3 {too_many}")).contains("at most"));
        assert!(reject("BEST 3 9999 greedy").contains("at most"));
        assert!(reject("INGEST 5 1,2,3 -").contains("pair up"));
        assert!(reject("INGEST 5 1,x -").contains("insertions element"));
        assert!(reject("INGEST 5 -").contains("3 argument"));
        assert!(reject("TRACE").contains("1 argument"));
        assert!(reject("TRACE 99999").contains("at most"));
        assert!(reject("METRICS now").contains("0 argument"));
        assert!(reject("\u{1F980} crab").contains("unknown request"));
    }

    #[test]
    fn responses_round_trip() {
        let codec = TextCodec;
        let cases = [
            Response::Info { t: 4, n: 100, m: 250, epochs: 4 },
            Response::Spectrum { t: 1, shells: vec![0, 3, 7] },
            Response::Core { t: 2, v: 9, core: 3 },
            Response::Anchored { t: 3, k: 3, size: 12, followers: vec![2, 4, 10] },
            Response::Anchored { t: 3, k: 5, size: 0, followers: vec![] },
            Response::Followers { t: 1, k: 3, anchor: 14, followers: vec![13] },
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
                p99_us: Some(900),
                per_op: vec![
                    OpLatency { op: OpClass::Core, count: 60, p50_us: Some(9), p99_us: Some(12) },
                    OpLatency { op: OpClass::Best, count: 40, p50_us: Some(800), p99_us: None },
                ],
                writer: None,
            },
            Response::Stats {
                epochs: 1,
                served: 0,
                errors: 0,
                p50_us: None,
                p99_us: None,
                per_op: vec![],
                writer: None,
            },
            Response::Stats {
                epochs: 12,
                served: 3,
                errors: 0,
                p50_us: Some(8),
                p99_us: Some(20),
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
            Response::Stats {
                epochs: 2,
                served: 0,
                errors: 0,
                p50_us: None,
                p99_us: None,
                per_op: vec![],
                writer: Some(WriterStats::default()),
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
        ];
        for response in cases {
            let mut wire = Vec::new();
            codec.encode_response(3, &Ok(response.clone()), &mut wire);
            let line = std::str::from_utf8(&wire).unwrap();
            assert!(line.starts_with("OK "), "{line}");
            assert_eq!(line.matches('\n').count(), 1);
            let frame = frame_of(&codec, &wire);
            assert_eq!(codec.decode_response(&frame), Ok((None, Ok(response))), "{line}");
        }
    }

    #[test]
    fn stats_line_without_traffic_is_byte_identical_to_the_legacy_format() {
        // The per-op extension must not change quiet-service output: the
        // field only appears once a class has traffic.
        let quiet = Response::Stats {
            epochs: 1,
            served: 0,
            errors: 0,
            p50_us: None,
            p99_us: None,
            per_op: vec![],
            writer: None,
        };
        assert_eq!(text_ok_line(&quiet), "OK stats epochs=1 served=0 errors=0 p50us=- p99us=-");
        // And a pre-per-op peer's line (no ops field) still parses.
        let legacy = "OK stats epochs=9 served=100 errors=1 p50us=40 p99us=900";
        match parse_text_response_line(legacy).unwrap() {
            Response::Stats { per_op, served, writer, .. } => {
                assert_eq!((served, per_op, writer), (100, vec![], None));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_replies_surface_the_message() {
        let codec = TextCodec;
        let mut wire = Vec::new();
        codec.encode_response(0, &Err("no such vertex\nreally".into()), &mut wire);
        assert_eq!(wire, b"ERR no such vertex really\n", "newlines must be collapsed");
        let frame = frame_of(&codec, &wire);
        assert_eq!(codec.decode_response(&frame), Ok((None, Err("no such vertex really".into()))));
        assert!(codec.decode_response(b"gibberish\n").unwrap_err().contains("malformed"));
    }

    #[test]
    fn framing_is_incremental() {
        let codec = TextCodec;
        assert_eq!(codec.decode_frame(b""), Ok(None));
        assert_eq!(codec.decode_frame(b"INF"), Ok(None));
        assert_eq!(codec.decode_frame(b"INFO\n"), Ok(Some(5)));
        assert_eq!(codec.decode_frame(b"INFO\nSPEC"), Ok(Some(5)), "first frame only");
        // An endless line without a newline eventually trips the limit.
        let long = vec![b'x'; MAX_TEXT_LINE];
        assert!(codec.decode_frame(&long).is_err());
        let mut terminated = vec![b'x'; MAX_TEXT_LINE - 1];
        terminated.push(b'\n');
        assert_eq!(codec.decode_frame(&terminated), Ok(Some(MAX_TEXT_LINE)));
    }
}
