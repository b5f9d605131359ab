//! Property tests for the wire codec, in the persistence-codec style:
//! arbitrary frames round-trip exactly (alone and in streams), every
//! truncation point is a clean incomplete prefix, and any single-bit
//! flip either fails typed ([`Error::Corrupt`]), yields the identical
//! frame, or turns the stream into an incomplete prefix — never a
//! panic, never a silently different frame.

use magicrecs_graph::io::Check;
use magicrecs_server::wire::{
    decode, encode, Frame, ReplStatus, ShedCode, WireErrorCode, WIRE_VERSION,
};
use magicrecs_types::{Candidate, EdgeEvent, EdgeKind, Error, Timestamp, UserId};
use proptest::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn kind(k: u8) -> EdgeKind {
    match k % 4 {
        0 => EdgeKind::Follow,
        1 => EdgeKind::Unfollow,
        2 => EdgeKind::Retweet,
        _ => EdgeKind::Favorite,
    }
}

fn arb_event() -> impl Strategy<Value = EdgeEvent> {
    (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 50, 0u8..4).prop_map(|(a, b, us, k)| EdgeEvent {
        src: u(a),
        dst: u(b),
        created_at: Timestamp::from_micros(us),
        kind: kind(k),
    })
}

fn arb_candidate() -> impl Strategy<Value = Candidate> {
    (
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 50,
        proptest::collection::vec(0u64..1 << 40, 0..6),
    )
        .prop_map(|(user, target, us, ws)| Candidate {
            user: u(user),
            target: u(target),
            triggered_at: Timestamp::from_micros(us),
            witnesses: ws.into_iter().map(u).collect(),
        })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0u32..8).prop_map(|w| Frame::Hello {
            preferred_worker: w
        }),
        (0u32..8, 1u32..9).prop_map(|(w, n)| Frame::HelloAck {
            worker_id: w,
            num_workers: n
        }),
        (
            (0u64..u64::MAX),
            proptest::collection::vec(arb_event(), 0..24)
        )
            .prop_map(|(tag, events)| Frame::Ingest { tag, events }),
        Just(Frame::Subscribe),
        (
            (0u64..u64::MAX),
            proptest::collection::vec(arb_candidate(), 0..12)
        )
            .prop_map(|(tag, candidates)| Frame::Deliver { tag, candidates }),
        ((0u64..u64::MAX), prop::bool::ANY, 0u64..100_000_000).prop_map(|(tag, rl, us)| {
            Frame::Shed {
                tag,
                code: if rl {
                    ShedCode::RateLimited
                } else {
                    ShedCode::Overloaded
                },
                retry_after_us: us,
            }
        }),
        (
            0u8..3,
            proptest::collection::vec(97u8..123, 0..40)
                .prop_map(|v| String::from_utf8(v).expect("ascii"))
        )
            .prop_map(|(c, detail)| Frame::Error {
                code: match c {
                    0 => WireErrorCode::BadFrame,
                    1 => WireErrorCode::Unsupported,
                    _ => WireErrorCode::Internal,
                },
                detail,
            }),
        proptest::collection::vec(0u8..255, 0..256).prop_map(|bytes| Frame::DeltaPublish { bytes }),
        Just(Frame::CheckpointReq),
        Just(Frame::OkAck),
        (0u64..u64::MAX).prop_map(|tag| Frame::Barrier { tag }),
        (0u64..u64::MAX).prop_map(|tag| Frame::BarrierAck { tag }),
        Just(Frame::MetricsReq),
        proptest::collection::vec(
            (
                proptest::collection::vec(97u8..123, 0..24)
                    .prop_map(|v| String::from_utf8(v).expect("ascii")),
                0u64..u64::MAX,
            ),
            0..16
        )
        .prop_map(|metrics| Frame::MetricsResp { metrics }),
        (0u32..8, 0u64..u64::MAX, 0u64..1 << 50, 0u64..1 << 50).prop_map(
            |(partition, tag, durable, replicated)| Frame::IngestAck {
                partition,
                tag,
                durable,
                replicated,
            }
        ),
        (0u32..8, 0u64..1 << 20)
            .prop_map(|(partition, epoch)| Frame::RouteBind { partition, epoch }),
        (0u32..8, 0u64..1 << 20, 0u32..8).prop_map(|(partition, epoch, hint)| {
            Frame::WrongLeader {
                partition,
                epoch,
                hint,
            }
        }),
        (0u32..8, 0u64..1 << 50).prop_map(|(partition, from_seq)| Frame::SegmentsReq {
            partition,
            from_seq
        }),
        (
            0u32..8,
            proptest::collection::vec((0u64..1 << 50, 0u64..1 << 30), 0..12)
        )
            .prop_map(|(partition, segments)| Frame::SegmentsResp {
                partition,
                segments
            }),
        (0u32..8, 0u64..1 << 50, 0u64..1 << 30, 0u32..1 << 20).prop_map(
            |(partition, first_seq, offset, max_len)| Frame::SegmentFetch {
                partition,
                first_seq,
                offset,
                max_len,
            }
        ),
        (
            0u32..8,
            0u64..1 << 50,
            0u64..1 << 30,
            proptest::collection::vec(0u8..255, 0..256)
        )
            .prop_map(
                |(partition, first_seq, offset, bytes)| Frame::SegmentChunk {
                    partition,
                    first_seq,
                    offset,
                    bytes,
                }
            ),
        (0u32..8, 0u64..1 << 20, prop::bool::ANY, 0u32..8).prop_map(
            |(partition, epoch, leader, hint)| Frame::RoleChange {
                partition,
                epoch,
                leader,
                hint,
            }
        ),
        (0u32..8, 0u64..1 << 20, 0u64..1 << 50).prop_map(|(partition, epoch, durable)| {
            Frame::RoleChangeAck {
                partition,
                epoch,
                durable,
            }
        }),
        (0u32..8).prop_map(|partition| Frame::StateListReq { partition }),
        (
            0u32..8,
            proptest::collection::vec(
                (
                    proptest::collection::vec(97u8..123, 0..24)
                        .prop_map(|v| String::from_utf8(v).expect("ascii")),
                    0u64..1 << 40,
                ),
                0..8
            )
        )
            .prop_map(|(partition, files)| Frame::StateListResp { partition, files }),
        (
            0u32..8,
            proptest::collection::vec(97u8..123, 0..24)
                .prop_map(|v| String::from_utf8(v).expect("ascii")),
            0u64..1 << 30,
            0u32..1 << 20,
        )
            .prop_map(|(partition, name, offset, max_len)| Frame::StateFetch {
                partition,
                name,
                offset,
                max_len,
            }),
        (
            0u32..8,
            proptest::collection::vec(97u8..123, 0..24)
                .prop_map(|v| String::from_utf8(v).expect("ascii")),
            0u64..1 << 30,
            proptest::collection::vec(0u8..255, 0..256),
        )
            .prop_map(|(partition, name, offset, bytes)| Frame::StateChunk {
                partition,
                name,
                offset,
                bytes,
            }),
        (
            0u32..8,
            proptest::collection::vec(97u8..123, 0..24)
                .prop_map(|v| String::from_utf8(v).expect("ascii")),
        )
            .prop_map(|(partition, source)| Frame::FollowReq { partition, source }),
        (0u32..8).prop_map(|partition| Frame::StatusReq { partition }),
        (
            (0u32..8, prop::bool::ANY, 0u64..1 << 20),
            (0u64..1 << 50, 0u64..1 << 50, 0u64..1 << 50),
        )
            .prop_map(
                |((partition, leading, epoch), (durable, applied, replicated))| {
                    Frame::StatusResp(ReplStatus {
                        partition,
                        leading,
                        epoch,
                        durable,
                        applied,
                        replicated,
                    })
                }
            ),
    ]
}

/// Decodes every complete frame in `buf`, stopping at the first
/// incomplete prefix or typed error.
fn drain(mut buf: &[u8]) -> Result<Vec<Frame>, Error> {
    let mut out = Vec::new();
    while let Some((f, used)) = decode(buf)? {
        out.push(f);
        buf = &buf[used..];
    }
    Ok(out)
}

/// A well-formed frame of wire type `ty` around `payload`: length
/// prefix, version, type, payload, and the checksum the decoder expects.
fn framed(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut check = Check::new();
    check.mix(WIRE_VERSION as u64);
    check.mix(ty as u64);
    check.mix(payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        check.mix(u64::from_le_bytes(word));
    }
    let len = (2 + payload.len() + 8) as u32;
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[WIRE_VERSION, ty]);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&check.finish().to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Types 9 and 10 (the retired fixed-field stats request and reply)
    /// decode to the typed unknown-frame error whatever their payload —
    /// an old peer still sending them is refused, never a panic.
    #[test]
    fn retired_stats_frame_types_are_typed_unknown(
        ty in 9u8..11,
        payload in proptest::collection::vec(0u8..255, 0..96),
    ) {
        match decode(&framed(ty, &payload)) {
            Err(Error::Corrupt(msg)) => prop_assert!(
                msg.contains("unknown frame type"), "wrong refusal: {}", msg
            ),
            other => prop_assert!(false, "type {} not refused: {:?}", ty, other),
        }
    }

    /// Every frame round-trips exactly, consuming exactly its bytes.
    #[test]
    fn frames_roundtrip(frame in arb_frame()) {
        let bytes = encode(&frame);
        let (back, used) = decode(&bytes).unwrap().expect("complete frame");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Streams of frames decode in order, and every truncation point of
    /// the stream is a clean prefix (the decoded frames match the
    /// originals frame-for-frame) — never an error, never a panic.
    #[test]
    fn streams_are_prefix_closed_under_truncation(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        cut_at in 0usize..65536,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        prop_assert_eq!(drain(&stream).unwrap(), frames.clone());

        let cut = cut_at % (stream.len() + 1);
        let got = drain(&stream[..cut]).unwrap();
        prop_assert!(got.len() <= frames.len());
        prop_assert_eq!(&got[..], &frames[..got.len()]);
    }

    /// Flipping any single bit anywhere in a stream either (a) fails
    /// typed with `Corrupt`, (b) still decodes to the identical frames,
    /// or (c) decodes an identical prefix then reports an incomplete
    /// frame (a length-field flip can only starve the decoder — the
    /// checksum guards the rest). Never a panic, never a different frame.
    #[test]
    fn bit_flips_never_forge_frames(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        flip_at in 0usize..65536,
        flip_bit in 0u32..8,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut mutated = stream.clone();
        let i = flip_at % mutated.len();
        mutated[i] ^= 1 << flip_bit;

        match drain(&mutated) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "wrong error class: {e:?}"),
            Ok(got) => {
                prop_assert!(got.len() <= frames.len(), "forged extra frames");
                prop_assert_eq!(
                    &got[..],
                    &frames[..got.len()],
                    "flip at byte {} decoded different frames", i
                );
            }
        }
    }
}
