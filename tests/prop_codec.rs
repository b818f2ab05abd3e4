//! Property tests for the wire layer: both [`Codec`] implementations —
//! the newline text format and the length-prefixed binary format — must
//! round-trip every request and every response verdict exactly, frame
//! their own output (`decode_frame` measures exactly what the encoder
//! produced), ask for more bytes on any truncation, and reject garbage
//! with an error instead of a panic. The properties run the two codecs
//! through one generic battery, which is the point of the trait: the
//! server's connection machine is codec-blind, so anything that holds
//! here holds for both wire formats end to end.

use avt_serve::codec::{Codec, TextCodec, WireVerb};
use avt_serve::protocol::{BestAlgo, OpClass, OpLatency, Request, Response, WriterStats};
use avt_serve::BinaryCodec;
use proptest::collection::vec;
use proptest::prelude::*;

static CODECS: [&dyn Codec; 2] = [&TextCodec, &BinaryCodec];

/// Build one request from drawn raw values (the shim has no `prop_oneof`).
fn build_request(kind: u8, v: u32, k: u32, anchors: Vec<u32>, b: usize) -> Request {
    match kind % 8 {
        0 => Request::Info,
        1 => Request::Spectrum,
        2 => Request::Core(v),
        3 => Request::Anchored { k, anchors },
        4 => Request::Followers { k, anchor: v },
        5 => Request::Best { k, b, algo: BestAlgo::Greedy },
        6 => Request::Best { k, b, algo: BestAlgo::Olak },
        _ => Request::Ingest {
            ts: v as u64,
            insertions: anchors.chunks_exact(2).map(|c| (c[0], c[1])).collect(),
            deletions: if b.is_multiple_of(2) { vec![(k, v)] } else { vec![] },
        },
    }
}

/// Build one response verdict from drawn raw values. `kind % 10 == 9`
/// yields the `Err` branch (an executor rejection travelling the wire).
#[allow(clippy::too_many_arguments)]
fn build_reply(
    kind: u8,
    t: usize,
    v: u32,
    k: u32,
    list: Vec<u32>,
    counts: (u64, u64, u64),
    optional: (bool, bool),
    ops: Vec<(u8, u64, u64)>,
) -> Result<Response, String> {
    let (a, b, c) = counts;
    let opt = |on: bool, value: u64| if on { Some(value) } else { None };
    Ok(match kind % 10 {
        0 => Response::Info { t, n: v as usize, m: k as usize, epochs: a },
        1 => Response::Spectrum { t, shells: list.iter().map(|&x| x as usize).collect() },
        2 => Response::Core { t, v, core: k },
        3 => Response::Anchored { t, k, size: v as usize, followers: list },
        4 => Response::Followers { t, k, anchor: v, followers: list },
        5 => Response::Best {
            t,
            k,
            algo: if v.is_multiple_of(2) { BestAlgo::Greedy } else { BestAlgo::Olak },
            anchors: list.clone(),
            followers: list,
            visited: a,
            probed: b,
        },
        6 => Response::Stats {
            epochs: a,
            served: b,
            errors: c,
            p50_us: opt(optional.0, a % 1000),
            p99_us: opt(optional.1, b % 1000),
            per_op: ops
                .into_iter()
                .map(|(op, count, us)| OpLatency {
                    op: OpClass::from_index((op % OpClass::COUNT as u8) as usize)
                        .expect("index in range"),
                    // A count of 0 never reaches the wire (quiet classes
                    // are filtered), so keep it positive here too.
                    count: count | 1,
                    p50_us: opt(optional.0, us),
                    p99_us: opt(optional.1, us.saturating_add(1)),
                })
                .collect(),
            // Half the drawn stats replies carry a writer block, built
            // from the same raw values.
            writer: if v.is_multiple_of(2) {
                None
            } else {
                Some(WriterStats {
                    batches_applied: a % 10_000,
                    events_accepted: b % 10_000,
                    events_folded: c % 1_000,
                    events_rejected: a % 7,
                    events_dropped: b % 5,
                    watermark: c % 100_000,
                    watermark_lag: a % 16,
                    publish_p50_us: opt(optional.0, c % 1_000),
                    publish_p99_us: opt(optional.1, c % 2_000),
                })
            },
        },
        7 => Response::Bye,
        8 => Response::Ingest {
            t: a,
            accepted: b % 10_000,
            folded: c % 1_000,
            rejected: a % 100,
            watermark: b % 100_000,
        },
        _ => return Err(format!("rejected: query {v} failed at t={t}")),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requests round-trip through both codecs, and `decode_frame`
    /// measures exactly the bytes the encoder emitted.
    #[test]
    fn requests_round_trip_both_codecs(
        kind in 0u8..8,
        id in 0u64..u64::MAX,
        v in 0u32..1_000_000,
        k in 1u32..64,
        anchors in vec(0u32..1_000_000, 1..5),
        b in 1usize..16,
    ) {
        let request = build_request(kind, v, k, anchors, b);
        for codec in CODECS {
            let mut wire = Vec::new();
            codec.encode_request(id, &request, &mut wire);
            let len = codec
                .decode_frame(&wire)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?
                .expect("encoder output is one complete frame");
            prop_assert_eq!(len, wire.len(), "trailing bytes under {}", codec.name());
            let decoded = codec.decode_request(&wire[..len]);
            match decoded.verb {
                WireVerb::Query(got) => prop_assert_eq!(
                    &got, &request, "request mangled by {}", codec.name()
                ),
                other => prop_assert!(false, "decoded {other:?} under {}", codec.name()),
            }
            // Binary frames carry the id; the ordered text format has none.
            let expect_id = if codec.ordered() { None } else { Some(id) };
            prop_assert_eq!(decoded.id, expect_id);
        }
    }

    /// Response verdicts — all success shapes and the error branch —
    /// round-trip through both codecs.
    #[test]
    fn replies_round_trip_both_codecs(
        kind in 0u8..10,
        id in 0u64..u64::MAX,
        t in 0usize..10_000,
        v in 0u32..1_000_000,
        k in 1u32..64,
        list in vec(0u32..1_000_000, 0..6),
        counts in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        optional in (0u8..2, 0u8..2),
        ops in vec((0u8..7, 1u64..1 << 30, 0u64..1 << 20), 0..4),
    ) {
        let reply =
            build_reply(kind, t, v, k, list, counts, (optional.0 == 1, optional.1 == 1), ops);
        for codec in CODECS {
            let mut wire = Vec::new();
            codec.encode_response(id, &reply, &mut wire);
            let len = codec
                .decode_frame(&wire)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?
                .expect("encoder output is one complete frame");
            prop_assert_eq!(len, wire.len(), "trailing bytes under {}", codec.name());
            let (got_id, got) = codec
                .decode_response(&wire[..len])
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", codec.name())))?;
            prop_assert_eq!(&got, &reply, "reply mangled by {}", codec.name());
            let expect_id = if codec.ordered() { None } else { Some(id) };
            prop_assert_eq!(got_id, expect_id);
        }
    }

    /// Every strict prefix of a valid frame asks for more bytes — never a
    /// phantom frame, never a panic, and (for the binary header checks)
    /// never a *fatal* verdict on a prefix of well-formed input.
    #[test]
    fn truncated_frames_ask_for_more(
        kind in 0u8..8,
        id in 0u64..u64::MAX,
        v in 0u32..1_000_000,
        k in 1u32..64,
        anchors in vec(0u32..1_000_000, 1..5),
    ) {
        let request = build_request(kind, v, k, anchors, 3);
        for codec in CODECS {
            let mut wire = Vec::new();
            codec.encode_request(id, &request, &mut wire);
            for cut in 0..wire.len() {
                match codec.decode_frame(&wire[..cut]) {
                    Ok(None) => {}
                    Ok(Some(len)) => prop_assert!(
                        false,
                        "phantom frame of {len} bytes in a {cut}-byte prefix under {}",
                        codec.name()
                    ),
                    Err(e) => prop_assert!(
                        false,
                        "valid prefix rejected under {}: {e}",
                        codec.name()
                    ),
                }
            }
        }
    }

    /// Garbage bytes never panic a decoder: `decode_frame` either asks
    /// for more, rejects the stream, or frames something that then
    /// decodes to a malformed-request verdict — all controlled outcomes.
    #[test]
    fn garbage_never_panics(bytes in vec(0u8..=255, 0..200)) {
        for codec in CODECS {
            if let Ok(Some(len)) = codec.decode_frame(&bytes) {
                prop_assert!(len <= bytes.len(), "frame beyond buffer ({})", codec.name());
                // Framed garbage must decode to *something* without
                // panicking; Malformed is the expected shape.
                let _ = codec.decode_request(&bytes[..len]);
                let _ = codec.decode_response(&bytes[..len]);
            }
        }
    }

    /// Corrupting one byte of a valid binary frame is always detected or
    /// harmless — never a panic, and never a frame that claims to extend
    /// past the bytes on hand.
    #[test]
    fn binary_bitflips_never_panic(
        kind in 0u8..8,
        id in 0u64..u64::MAX,
        v in 0u32..1_000_000,
        k in 1u32..64,
        position in 0usize..1000,
        flip in 1u8..=255,
    ) {
        let request = build_request(kind, v, k, vec![v], 2);
        let codec: &dyn Codec = &BinaryCodec;
        let mut wire = Vec::new();
        codec.encode_request(id, &request, &mut wire);
        let position = position % wire.len();
        wire[position] ^= flip;
        if let Ok(Some(len)) = codec.decode_frame(&wire) {
            prop_assert!(len <= wire.len());
            let _ = codec.decode_request(&wire[..len]);
        }
    }
}

/// The sniffing invariant the connection machine relies on: no text
/// frame can begin with the binary magic byte, so the first byte of a
/// connection picks the codec unambiguously.
#[test]
fn first_bytes_are_unambiguous() {
    let text: &dyn Codec = &TextCodec;
    let mut wire = Vec::new();
    for request in [
        Request::Info,
        Request::Spectrum,
        Request::Core(7),
        Request::Anchored { k: 3, anchors: vec![1, 2] },
        Request::Best { k: 3, b: 2, algo: BestAlgo::Olak },
        Request::Stats,
    ] {
        wire.clear();
        text.encode_request(0, &request, &mut wire);
        assert!(!avt_serve::binary::looks_binary(wire[0]), "text frame sniffed as binary");
    }
    assert!(avt_serve::binary::looks_binary(avt_serve::binary::MAGIC[0]));
}
