//! Protocol framing and round-trip coverage: malformed lines must
//! produce typed errors without tearing down the connection, the line
//! framer must cap and survive garbage, and arbitrary request/response
//! values must survive the render → parse round trip through the codec.

#![cfg(not(dqec_check))]

use dqec_chiplet::runner::DecoderChoice;
use dqec_core::{Coord, DefectSet};
use dqec_serve::protocol::{
    parse_request, parse_response, read_frame, DecodeRequest, ErrorKind, ErrorResponse, Frame,
    LerResponse, Request, Response, StatsResponse,
};
use proptest::prelude::*;

/// Strategy: an arbitrary in-range decode request.
fn decode_request() -> impl Strategy<Value = DecodeRequest> {
    let coords: Vec<Coord> = (0..8i32)
        .flat_map(|x| (0..8i32).map(move |y| Coord::new(x, y)))
        .collect();
    (
        (0u64..1_000_000, 2u32..=11, 1u64..=999, 0u32..=40),
        (1usize..100_000, 0u64..(1u64 << 53), 0usize..=1),
        proptest::sample::subsequence(coords.clone(), 0..=2),
        proptest::sample::subsequence(coords, 0..=2),
    )
        .prop_map(|((id, d, p_mil, rounds), (shots, seed, dec), data, synd)| {
            let mut defects = DefectSet::new();
            for c in &data {
                defects.add_data(*c);
            }
            for c in &synd {
                defects.add_synd(*c);
            }
            if let (Some(a), Some(b)) = (data.first(), synd.first()) {
                defects.add_link(*a, *b);
            }
            DecodeRequest {
                id,
                d,
                p: p_mil as f64 / 1000.0,
                rounds: if rounds == 0 { None } else { Some(rounds) },
                shots,
                seed,
                decoder: if dec == 0 {
                    DecoderChoice::Mwpm
                } else {
                    DecoderChoice::Uf
                },
                defects,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_the_wire(req in decode_request()) {
        let request = Request::Decode(req);
        let line = request.render_line();
        let parsed = parse_request(&line).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn responses_round_trip_through_the_wire(
        parts in (
            (
                0u64..1_000_000,
                2u32..=11,
                1u64..=999,
                1u32..=40,
                0u64..(1u64 << 53),
            ),
            (1usize..100_000, 0u64..1_000, 0usize..=1, 0usize..=1, 1usize..=32),
        )
    ) {
        let ((id, d, p_mil, rounds, seed), (shots, failures, dec, hit, batched)) = parts;
        let resp = Response::Ler(LerResponse {
            id,
            d,
            p: p_mil as f64 / 1000.0,
            rounds,
            decoder: if dec == 0 { DecoderChoice::Mwpm } else { DecoderChoice::Uf },
            seed,
            shots,
            failures: failures.min(shots as u64),
            cache_hit: hit == 1,
            batched,
        });
        let parsed = parse_response(&resp.render_line()).expect("round trip parses");
        prop_assert_eq!(parsed, resp);
    }
}

#[test]
fn error_and_admin_responses_round_trip() {
    for resp in [
        Response::Pong { id: 3 },
        Response::Error(ErrorResponse {
            id: None,
            kind: ErrorKind::TooManyClients,
            detail: "limit 4 reached".to_string(),
        }),
        Response::Error(ErrorResponse {
            id: Some(8),
            kind: ErrorKind::Backpressure,
            detail: "queue \"full\"\nnewline".to_string(),
        }),
        Response::Stats(StatsResponse {
            id: 1,
            served: 2,
            rejected: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_evictions: 6,
            cache_entries: 7,
            syndrome_hits: 8,
            syndrome_misses: 9,
            pool_workers: 10,
            coalesce_hits: 11,
        }),
    ] {
        let parsed = parse_response(&resp.render_line()).expect("parses");
        assert_eq!(parsed, resp);
    }
}

#[test]
fn malformed_requests_yield_typed_errors_not_panics() {
    for bad in [
        "",
        "{",
        "[]",
        "42",
        "{\"op\":\"decode\"}",
        "{\"op\":\"nope\",\"id\":1}",
        "{\"op\":\"decode\",\"id\":1,\"d\":5,\"p\":\"high\",\"shots\":10,\"seed\":0}",
        "{\"op\":\"decode\",\"id\":1,\"d\":5,\"p\":0.003,\"shots\":10,\"seed\":0,\"defects\":{\"links\":[[1]]}}",
    ] {
        assert!(parse_request(bad).is_err(), "accepted {bad:?}");
    }
    // Nesting that would overflow a recursive parser's stack is one
    // more malformed line.
    for bad in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        let (id, reason) = parse_request(&bad).expect_err("accepted hostile nesting");
        assert_eq!(id, None);
        assert!(
            reason.contains("malformed JSON: nesting deeper"),
            "{reason}"
        );
    }
}

#[test]
fn read_frame_caps_lines_and_survives_garbage() {
    let stream = b"one\r\n\n12345\n123456\n1234567890123\n\xff\xfe\nlast".to_vec();
    let mut reader = stream.as_slice();
    let mut buf = Vec::new();
    let mut next = || match read_frame(&mut reader, &mut buf, 5).expect("in-memory read") {
        Frame::Line(line) => Ok(Some(line.to_string())),
        Frame::Rejected(reason) => Err(reason),
        Frame::Eof => Ok(None),
    };
    assert_eq!(next(), Ok(Some("one".to_string())));
    assert_eq!(next(), Ok(Some(String::new())));
    assert_eq!(next(), Ok(Some("12345".to_string())), "the cap itself fits");
    // One byte over, and far over (several discard chunks): each
    // costs exactly its own line.
    for _ in 0..2 {
        assert_eq!(next(), Err("frame exceeds the 5-byte limit".to_string()));
    }
    assert!(next().expect_err("not UTF-8").contains("UTF-8"));
    assert_eq!(next(), Ok(Some("last".to_string())), "no trailing newline");
    assert_eq!(next(), Ok(None));
}
