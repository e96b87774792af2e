//! Wire-codec integration tests: every credential type must survive a
//! byte-level round trip with signatures intact, and malformed input must
//! be rejected without panicking.

use drbac::core::{
    AttrDeclaration, AttrOp, DiscoveryTag, LocalEntity, Node, Proof, ProofStep, ProofValidator,
    SignedAttrDeclaration, SignedDelegation, SignedRevocation, SubjectFlag, Ticks, Timestamp,
    ValidationContext,
};
use drbac::crypto::SchnorrGroup;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fx {
    a: LocalEntity,
    b: LocalEntity,
    m: LocalEntity,
}

fn fx() -> Fx {
    let mut rng = StdRng::seed_from_u64(0x1717);
    let g = SchnorrGroup::test_256();
    Fx {
        a: LocalEntity::generate("A", g.clone(), &mut rng),
        b: LocalEntity::generate("B", g.clone(), &mut rng),
        m: LocalEntity::generate("M", g, &mut rng),
    }
}

/// A delegation exercising every optional field.
fn kitchen_sink_cert(f: &Fx) -> SignedDelegation {
    let bw = f.a.attr("bw", AttrOp::Min);
    let sc = f.a.attr("scale", AttrOp::Scale);
    let tag = DiscoveryTag::new("wallet.example")
        .with_auth_role(f.a.role("wallet"))
        .with_ttl(Ticks(30))
        .with_subject_flag(SubjectFlag::Search);
    f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
        .with_attr(bw, 123.5)
        .unwrap()
        .with_attr(sc, 0.25)
        .unwrap()
        .expires(Timestamp(1_000_000))
        .subject_tag(tag.clone())
        .object_tag(tag.clone())
        .issuer_tag(tag)
        .acting_as(Node::role_admin(f.a.role("r")))
        .serial(0xdead_beef)
        .sign(&f.a)
        .unwrap()
}

#[test]
fn signed_delegation_round_trip_preserves_everything() {
    let f = fx();
    let cert = kitchen_sink_cert(&f);
    let bytes = cert.to_bytes();
    let decoded = SignedDelegation::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, cert);
    assert_eq!(decoded.id(), cert.id());
    // The signature still verifies after the round trip.
    decoded.verify(Timestamp(0)).unwrap();
}

#[test]
fn proof_with_nested_supports_round_trips() {
    let f = fx();
    let member = f.a.role("member");
    let grant =
        f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
            .sign(&f.a)
            .unwrap();
    let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
    let cert =
        f.b.delegate(Node::entity(&f.m), Node::role(member))
            .sign(&f.b)
            .unwrap();
    let proof = Proof::from_steps(vec![ProofStep::new(cert).with_support(support)]).unwrap();

    let bytes = proof.to_bytes();
    let decoded = Proof::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, proof);
    // Still validates (supports intact).
    ProofValidator::new(ValidationContext::at(Timestamp(0)))
        .validate(&decoded)
        .unwrap();
}

#[test]
fn trivial_proof_round_trips() {
    let f = fx();
    let proof = Proof::trivial(Node::entity(&f.m));
    let decoded = Proof::from_bytes(&proof.to_bytes()).unwrap();
    assert_eq!(decoded, proof);
    assert!(decoded.is_trivial());
}

#[test]
fn revocation_round_trips_and_verifies() {
    let f = fx();
    let cert =
        f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
            .sign(&f.a)
            .unwrap();
    let revocation = SignedRevocation::revoke(&cert, &f.a, Timestamp(9)).unwrap();
    let decoded = SignedRevocation::from_bytes(&revocation.to_bytes()).unwrap();
    assert_eq!(decoded, revocation);
    decoded.verify().unwrap();
    decoded.verify_against(&cert).unwrap();
}

#[test]
fn declaration_round_trips_and_verifies() {
    let f = fx();
    let bw = f.a.attr("bw", AttrOp::Subtract);
    let mut decl = AttrDeclaration::new(bw, 50.0).unwrap();
    decl.expires = Some(Timestamp(77));
    let signed = SignedAttrDeclaration::sign(decl, &f.a).unwrap();
    let decoded = SignedAttrDeclaration::from_bytes(&signed.to_bytes()).unwrap();
    assert_eq!(decoded, signed);
    decoded.verify(Timestamp(77)).unwrap();
    assert!(decoded.verify(Timestamp(78)).is_err());
}

#[test]
fn truncated_input_rejected_without_panic() {
    let f = fx();
    let bytes = kitchen_sink_cert(&f).to_bytes();
    for len in 0..bytes.len() {
        assert!(
            SignedDelegation::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes must fail"
        );
    }
}

#[test]
fn wrong_domain_tag_rejected() {
    let f = fx();
    let cert = kitchen_sink_cert(&f);
    let proof_bytes = Proof::from_steps(vec![ProofStep::new(cert.clone())])
        .unwrap()
        .to_bytes();
    // Proof bytes are not a certificate.
    assert!(SignedDelegation::from_bytes(&proof_bytes).is_err());
    // And cert bytes are not a proof.
    assert!(Proof::from_bytes(&cert.to_bytes()).is_err());
}

#[test]
fn trailing_garbage_rejected() {
    let f = fx();
    let mut bytes = kitchen_sink_cert(&f).to_bytes();
    bytes.push(0);
    assert!(SignedDelegation::from_bytes(&bytes).is_err());
}

#[test]
fn bit_flips_never_yield_a_verifying_forgery() {
    // Flip each byte of the encoding; the result must either fail to
    // decode or fail signature verification — never verify as valid.
    let f = fx();
    let cert = kitchen_sink_cert(&f);
    let bytes = cert.to_bytes();
    // Sample positions across the buffer (every 7th byte keeps this fast).
    for pos in (0..bytes.len()).step_by(7) {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        if mutated == bytes {
            continue;
        }
        if let Ok(decoded) = SignedDelegation::from_bytes(&mutated) {
            if decoded == cert {
                continue; // canonical-equivalent decode (shouldn't happen)
            }
            assert!(
                decoded.verify(Timestamp(0)).is_err(),
                "bit flip at {pos} produced a verifying forgery"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Frame-level fuzz: the TCP framing in `drbac::net::wire` must reject
// torn frames, oversized length prefixes, and garbage headers with an
// error — never a panic, and never an allocation sized by attacker-
// controlled bytes.
// ---------------------------------------------------------------------------

mod frame {
    use drbac::net::wire::{
        read_frame, write_frame, FrameKind, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
        WIRE_VERSION,
    };
    use proptest::prelude::*;

    fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    #[test]
    fn torn_frame_every_truncation_errors() {
        let frame = encode_frame(FrameKind::Request, b"role-gate payload bytes");
        for len in 0..frame.len() {
            let err = read_frame(&mut &frame[..len]).expect_err("torn frame must error");
            assert!(
                matches!(err, WireError::Io(_)),
                "truncation to {len} bytes surfaced {err:?}, expected unexpected-EOF"
            );
        }
        // The untorn frame still reads back, so the loop above tested
        // real truncations of a valid frame.
        assert!(read_frame(&mut frame.as_slice()).is_ok());
    }

    #[test]
    fn oversized_length_prefix_errors_before_allocating() {
        // Header promising u32::MAX payload bytes — the decoder must
        // refuse at the header, not try to allocate 4 GiB.
        for promised in [MAX_FRAME_LEN as u32 + 1, u32::MAX] {
            let mut frame = Vec::new();
            frame.extend_from_slice(b"dRBW");
            frame.push(WIRE_VERSION);
            frame.push(1); // kind: request
            frame.push(0); // no extensions
            frame.extend_from_slice(&promised.to_be_bytes());
            frame.extend_from_slice(&0u32.to_be_bytes()); // crc (unread)
            assert_eq!(frame.len(), FRAME_HEADER_LEN);
            let err = read_frame(&mut frame.as_slice()).unwrap_err();
            assert!(
                matches!(err, WireError::Oversized(n) if n == u64::from(promised)),
                "length {promised} surfaced {err:?}"
            );
        }
    }

    #[test]
    fn garbage_header_fields_error_specifically() {
        let good = encode_frame(FrameKind::Reply, b"x");
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            WireError::BadMagic(_)
        ));
        // Unknown version, the retired layouts 0x01..=0x03 included.
        for version in [0x01, 0x02, 0x03, 0x7f] {
            let mut bad = good.clone();
            bad[4] = version;
            assert!(
                matches!(
                    read_frame(&mut bad.as_slice()).unwrap_err(),
                    WireError::BadVersion(v) if v == version
                ),
                "version {version:#04x}"
            );
        }
        // Unknown frame kind.
        let mut bad = good.clone();
        bad[5] = 0xee;
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            WireError::UnknownKind(0xee)
        ));
    }

    #[test]
    fn payload_corruption_is_caught_by_crc() {
        let frame = encode_frame(FrameKind::Push, b"revocation notice");
        for pos in FRAME_HEADER_LEN..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    read_frame(&mut bad.as_slice()).unwrap_err(),
                    WireError::Crc { .. }
                ),
                "payload flip at {pos} escaped the checksum"
            );
        }
    }

    // -- traced frames, extension combinations, Stats/Health payloads --

    use drbac::net::proto::{Reply, Request};
    use drbac::net::wire::{
        decode_reply, decode_request, encode_reply, encode_request, write_frame_mux,
        write_frame_traced, TraceContext,
    };
    use drbac::store::crc32;

    fn encode_traced(kind: FrameKind, payload: &[u8], ctx: TraceContext) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame_traced(&mut buf, kind, payload, Some(ctx)).unwrap();
        buf
    }

    #[test]
    fn torn_traced_frame_every_truncation_errors() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent_span: 0x99aa_bbcc_ddee_ff00,
        };
        let frame = encode_traced(FrameKind::Request, b"stats probe", ctx);
        for len in 0..frame.len() {
            let err = read_frame(&mut &frame[..len]).expect_err("torn traced frame must error");
            assert!(
                matches!(err, WireError::Io(_)),
                "truncation to {len} bytes surfaced {err:?}, expected unexpected-EOF"
            );
        }
        let decoded = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(decoded.trace, Some(ctx));
    }

    #[test]
    fn traced_frame_payload_corruption_is_caught_by_crc() {
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 0,
        };
        let payload = b"health probe";
        let frame = encode_traced(FrameKind::Request, payload, ctx);
        // The payload is the frame's tail.
        for pos in frame.len() - payload.len()..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    read_frame(&mut bad.as_slice()).unwrap_err(),
                    WireError::Crc { .. }
                ),
                "traced-frame payload flip at {pos} escaped the checksum"
            );
        }
    }

    #[test]
    fn every_extension_combination_round_trips() {
        // One layout for {id, no id} × {trace, no trace}: the version
        // byte never changes, the extension count says what follows, and
        // a frame with neither extension is the header and the payload.
        let payload = encode_request(&Request::Stats);
        let ctx = TraceContext {
            trace_id: 11,
            parent_span: 12,
        };
        for id in [None, Some(13)] {
            for trace in [None, Some(ctx)] {
                let mut buf = Vec::new();
                match id {
                    Some(id) => write_frame_mux(&mut buf, FrameKind::Request, &payload, id, trace),
                    None => write_frame_traced(&mut buf, FrameKind::Request, &payload, trace),
                }
                .unwrap();
                assert_eq!(buf[4], WIRE_VERSION);
                let exts = usize::from(id.is_some()) + usize::from(trace.is_some());
                assert_eq!(usize::from(buf[6]), exts, "extension count");
                if exts == 0 {
                    assert_eq!(buf.len(), FRAME_HEADER_LEN + payload.len());
                }
                let frame = read_frame(&mut buf.as_slice()).unwrap();
                assert_eq!((frame.request_id, frame.trace), (id, trace));
                assert!(matches!(
                    decode_request(&frame.payload).unwrap(),
                    Request::Stats
                ));
            }
        }
    }

    #[test]
    fn stats_and_health_frames_survive_a_full_wire_pass() {
        // Requests are payload-free; replies carry the snapshot /
        // report. Canonical re-encode equality proves lossless decode.
        for req in [Request::Stats, Request::Health] {
            let buf = encode_frame(FrameKind::Request, &encode_request(&req));
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            let decoded = decode_request(&frame.payload).unwrap();
            assert_eq!(encode_request(&decoded), encode_request(&req));
        }

        let mut snap = drbac::obs::Snapshot::default();
        snap.counters.insert("drbac.net.tcp.accept.count".into(), 3);
        snap.gauges.insert("drbac.store.segments".into(), -2);
        snap.histograms.insert(
            "drbac.net.tcp.service.ns".into(),
            drbac::obs::HistogramSnapshot {
                count: 240,
                sum: 1 << 30,
                max: 6_383_575,
                p50: 16_383,
                p90: 262_143,
                p99: 2_097_151,
                p999: 8_388_607,
            },
        );
        let health = drbac::net::HealthReport {
            ok: true,
            wallet: "w0".into(),
            uptime_ns: 812_345_678,
            delegations: 12,
            subscribers: 2,
            served_requests: 240,
        };
        for reply in [Reply::Stats(snap), Reply::Health(health)] {
            let buf = encode_frame(FrameKind::Reply, &encode_reply(&reply));
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            let decoded = decode_reply(&frame.payload).unwrap();
            assert_eq!(encode_reply(&decoded), encode_reply(&reply));
        }
    }

    #[test]
    fn stats_reply_corruption_never_panics() {
        // Flip each byte of an encoded Stats reply: the decoder must
        // return (Ok or Err), never panic or over-allocate.
        let mut snap = drbac::obs::Snapshot::default();
        snap.counters.insert("c".into(), u64::MAX);
        snap.histograms
            .insert("h".into(), drbac::obs::HistogramSnapshot::default());
        let bytes = encode_reply(&Reply::Stats(snap));
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let _ = decode_reply(&bad);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the frame reader, and any `Ok`
        /// it returns stays within the frame size bound.
        #[test]
        fn prop_frame_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(frame) = read_frame(&mut bytes.as_slice()) {
                prop_assert!(frame.payload.len() <= MAX_FRAME_LEN);
            }
        }

        /// Arbitrary extension bytes behind any extension count never
        /// panic the reader — unknown tags are skipped, malformed
        /// extensions error cleanly.
        #[test]
        fn prop_extension_blocks_never_panic(
            count in 0u8..=17,
            ext in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let payload = b"p";
            let mut buf = Vec::new();
            buf.extend_from_slice(b"dRBW");
            buf.push(WIRE_VERSION);
            buf.push(1); // kind: request
            buf.push(count);
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&crc32(payload).to_be_bytes());
            buf.extend_from_slice(&ext);
            buf.extend_from_slice(payload);
            if let Ok(frame) = read_frame(&mut buf.as_slice()) {
                prop_assert_eq!(frame.payload, payload.to_vec());
            }
        }

        /// Any trace context round-trips bit-exact through the ext
        /// block (trace_id 0 means "no trace" and is never emitted).
        #[test]
        fn prop_trace_context_round_trips(trace_id in 1u64..=u64::MAX, parent_span in any::<u64>()) {
            let ctx = TraceContext { trace_id, parent_span };
            let buf = encode_traced(FrameKind::Request, b"q", ctx);
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(frame.trace, Some(ctx));
        }

        /// Any payload round-trips through the framing layer intact.
        #[test]
        fn prop_frames_round_trip(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
            let buf = encode_frame(FrameKind::PushRegister, &payload);
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(frame.kind, FrameKind::PushRegister);
            prop_assert_eq!(frame.payload, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Multiplexed frames (with a request id): ids survive interleaving and
// reordering, torn frames error cleanly, and the batched reader
// `read_frames` never takes a frame that is only partly buffered.
// ---------------------------------------------------------------------------

mod mux {
    use std::io::BufReader;

    use drbac::net::wire::{
        read_frame, read_frames, write_frame, write_frame_mux, write_frame_traced, Frame,
        FrameKind, TraceContext, WireError, WIRE_VERSION,
    };
    use proptest::prelude::*;

    fn mux_frame(kind: FrameKind, payload: &[u8], id: u64, trace: Option<TraceContext>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame_mux(&mut buf, kind, payload, id, trace).unwrap();
        buf
    }

    #[test]
    fn interleaved_streams_keep_their_ids() {
        // One connection carrying two logical request streams plus an
        // id-less push register and an id-less traced request,
        // concatenated the way a pipelining client would write them. Every frame must
        // come back with exactly its own id (or none).
        let ctx = TraceContext {
            trace_id: 5,
            parent_span: 6,
        };
        let mut stream = Vec::new();
        stream.extend_from_slice(&mux_frame(FrameKind::Request, b"q-17", 17, None));
        stream.extend_from_slice(&mux_frame(FrameKind::Request, b"q-903", 903, Some(ctx)));
        write_frame(&mut stream, FrameKind::PushRegister, b"wallet.b").unwrap();
        write_frame_traced(&mut stream, FrameKind::Request, b"strict", Some(ctx)).unwrap();
        stream.extend_from_slice(&mux_frame(FrameKind::Request, b"q-18", 18, None));

        let mut r = stream.as_slice();
        let expected: [(Option<u64>, &[u8]); 5] = [
            (Some(17), b"q-17"),
            (Some(903), b"q-903"),
            (None, b"wallet.b"),
            (None, b"strict"),
            (Some(18), b"q-18"),
        ];
        for (id, payload) in expected {
            let frame = read_frame(&mut r).unwrap();
            assert_eq!(frame.request_id, id);
            assert_eq!(frame.payload, payload);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn out_of_order_replies_carry_their_own_ids() {
        // The daemon may answer 19 before 18; ids are the only
        // correlation, so they must survive reordering untouched.
        let mut stream = Vec::new();
        for id in [19u64, 17, 18] {
            stream.extend_from_slice(&mux_frame(
                FrameKind::Reply,
                format!("r-{id}").as_bytes(),
                id,
                None,
            ));
        }
        let mut r = stream.as_slice();
        for want in [19u64, 17, 18] {
            let frame = read_frame(&mut r).unwrap();
            assert_eq!(frame.request_id, Some(want));
            assert_eq!(frame.payload, format!("r-{want}").as_bytes());
        }
    }

    #[test]
    fn torn_mux_frame_every_truncation_errors() {
        let frame = mux_frame(
            FrameKind::Request,
            b"pipelined query",
            u64::MAX,
            Some(TraceContext {
                trace_id: 1,
                parent_span: 2,
            }),
        );
        for len in 0..frame.len() {
            let err = read_frame(&mut &frame[..len]).expect_err("torn mux frame must error");
            assert!(
                matches!(err, WireError::Io(_)),
                "truncation to {len} bytes surfaced {err:?}, expected unexpected-EOF"
            );
        }
        assert_eq!(
            read_frame(&mut frame.as_slice()).unwrap().request_id,
            Some(u64::MAX)
        );
    }

    /// Drains every frame buffered in `bytes` with up to `cap` frames per
    /// call, the way the daemon's and the pipelined client's readers do.
    fn drain(bytes: &[u8], cap: usize) -> Result<Vec<Vec<Frame>>, WireError> {
        let mut r = BufReader::new(bytes);
        let mut calls = Vec::new();
        while !r.buffer().is_empty() || calls.is_empty() {
            let mut out = Vec::new();
            read_frames(&mut r, cap, &mut out)?;
            calls.push(out);
        }
        Ok(calls)
    }

    #[test]
    fn drain_splits_every_extension_combination() {
        let ctx = TraceContext {
            trace_id: 3,
            parent_span: 4,
        };
        let mut bare = Vec::new();
        write_frame(&mut bare, FrameKind::Request, b"abc").unwrap();
        let mut traced = Vec::new();
        write_frame_traced(&mut traced, FrameKind::Request, b"abcd", Some(ctx)).unwrap();
        let with_id = mux_frame(FrameKind::Reply, b"abcde", 7, None);
        let with_both = mux_frame(FrameKind::Reply, b"abcdef", 7, Some(ctx));
        for frame in [bare, traced, with_id, with_both] {
            assert_eq!(frame[4], WIRE_VERSION);
            let alone = drain(&frame, usize::MAX).unwrap();
            assert_eq!(alone.len(), 1);
            assert_eq!(alone[0].len(), 1);
            // Two back to back come out of one call, each whole.
            let two = [frame.clone(), frame.clone()].concat();
            let calls = drain(&two, usize::MAX).unwrap();
            assert_eq!(calls.len(), 1, "both frames were buffered");
            assert_eq!(calls[0][0], calls[0][1]);
            assert_eq!(calls[0][0], read_frame(&mut frame.as_slice()).unwrap());
            // The cap splits them across calls.
            let capped = drain(&two, 1).unwrap();
            assert_eq!(capped.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1]);
        }
    }

    #[test]
    fn drain_never_takes_a_partly_buffered_frame() {
        // For every prefix of two frames, one call either fails on the
        // first (torn) frame or returns exactly the frames that are
        // whole — a frame taken while partly buffered would block a
        // batched reader on bytes that may never come.
        let first = mux_frame(
            FrameKind::Request,
            b"window",
            42,
            Some(TraceContext {
                trace_id: 9,
                parent_span: 0,
            }),
        );
        let second = mux_frame(FrameKind::Request, b"next", 43, None);
        let both = [first.clone(), second.clone()].concat();
        for len in 0..=both.len() {
            let mut r = BufReader::new(&both[..len]);
            let mut out = Vec::new();
            let read = read_frames(&mut r, usize::MAX, &mut out);
            if len < first.len() {
                assert!(
                    matches!(read, Err(WireError::Io(_))),
                    "prefix of {len} bytes"
                );
                continue;
            }
            read.unwrap();
            let whole = if len == both.len() { 2 } else { 1 };
            assert_eq!(out.len(), whole, "prefix of {len} bytes");
            assert_eq!(
                r.buffer().len(),
                len - first.len() - (whole - 1) * second.len()
            );
        }
        let mut out = Vec::new();
        let read = read_frames(&mut BufReader::new(&b"not a frame at all"[..]), 8, &mut out);
        assert!(matches!(read, Err(WireError::BadMagic(_))));
        assert!(out.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any request id round-trips bit-exact — ids are opaque
        /// tokens, so no value may be special-cased by the codec.
        #[test]
        fn prop_any_request_id_round_trips(id in any::<u64>()) {
            let buf = mux_frame(FrameKind::Request, b"q", id, None);
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(frame.request_id, Some(id));
        }

        /// Arbitrary bytes after a header (fuzzing the extension
        /// region) never panic the reader or the batched drain.
        #[test]
        fn prop_mux_tail_never_panics(
            count in any::<u8>(),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"dRBW");
            buf.push(WIRE_VERSION);
            buf.push(2); // kind: reply
            buf.push(count);
            buf.extend_from_slice(&1u32.to_be_bytes());
            buf.extend_from_slice(&0u32.to_be_bytes());
            buf.extend_from_slice(&tail);
            let _ = read_frame(&mut buf.as_slice());
            let _ = read_frames(&mut BufReader::new(buf.as_slice()), 4, &mut Vec::new());
            // A whole frame ahead of the soup still lands.
            let mut stream = mux_frame(FrameKind::Reply, b"r", 1, None);
            stream.extend_from_slice(&buf);
            let mut out = Vec::new();
            let _ = read_frames(&mut BufReader::new(stream.as_slice()), usize::MAX, &mut out);
            prop_assert_eq!(out[0].request_id, Some(1));
        }

        /// A stream of many frames with arbitrary ids drains through
        /// `read_frames` at any cap: every boundary is exact, every id
        /// lands, in order.
        #[test]
        fn prop_batched_drain_recovers_every_frame(
            ids in prop::collection::vec(any::<u64>(), 1..12),
            cap in 1usize..6,
        ) {
            let mut stream = Vec::new();
            for &id in &ids {
                stream.extend_from_slice(&mux_frame(FrameKind::Reply, &id.to_be_bytes(), id, None));
            }
            let calls = drain(&stream, cap).unwrap();
            prop_assert!(calls.iter().all(|c| !c.is_empty() && c.len() <= cap));
            let seen: Vec<u64> = calls.iter().flatten().map(|f| f.request_id.unwrap()).collect();
            prop_assert_eq!(seen, ids);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random delegations (structure + attributes + serial) round trip.
    #[test]
    fn prop_random_delegations_round_trip(
        serial in any::<u64>(),
        expires in prop::option::of(0u64..u64::MAX),
        operand in 0.0..10_000.0f64,
        tick in any::<bool>(),
    ) {
        let f = fx();
        let bw = f.a.attr("bw", AttrOp::Min);
        let object = if tick {
            Node::role_admin(f.a.role("r"))
        } else {
            Node::role(f.a.role("r"))
        };
        let mut builder = f.a
            .delegate(Node::entity(&f.m), object)
            .with_attr(bw, operand).unwrap()
            .serial(serial);
        if let Some(at) = expires {
            builder = builder.expires(Timestamp(at));
        }
        let cert = builder.sign(&f.a).unwrap();
        let decoded = SignedDelegation::from_bytes(&cert.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &cert);
        prop_assert_eq!(decoded.id(), cert.id());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn prop_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = SignedDelegation::from_bytes(&bytes);
        let _ = Proof::from_bytes(&bytes);
        let _ = SignedRevocation::from_bytes(&bytes);
        let _ = SignedAttrDeclaration::from_bytes(&bytes);
    }
}
