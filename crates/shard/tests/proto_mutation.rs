//! Mutation-hardening of the shard frame codec: any single-byte flip in
//! an encoded frame must produce a *named* error (Protocol, CRC
//! mismatch, Timeout) or — when the flip lands in dead air the decoder
//! never reads — the exact same decode. Never a panic, never a
//! silently-wrong decode.
//!
//! Two layers: an exhaustive every-position sweep over one encoding of
//! each frame type (cheap, deterministic, catches offset-sensitive
//! bugs), and a property layer drawing random frame contents *and*
//! random flips (catches content-dependent holes the fixed samples
//! miss). Every mutated frame travels through a connected loopback
//! socket and is decoded by the reader the system runs,
//! `read_frame_deadline`.

use lockdown_base::prop::cases;
use lockdown_core::engine::SliceOutcome;
use lockdown_core::supervisor::QuarantinedCell;
use lockdown_flow::time::Date;
use lockdown_shard::proto::{self, Assign, Identity};
use lockdown_shard::ShardError;
use lockdown_store::SegmentMeta;
use lockdown_traffic::plan::{Cell, Stream};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Encode one whole frame (header + payload) into a byte vector.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, kind, payload).expect("vec write");
    wire
}

/// Run `read` on a connected loopback socket that delivers `wire` and
/// then the peer's clean shutdown of its write half.
fn with_socket<T>(wire: &[u8], read: impl FnOnce(&mut TcpStream) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    std::thread::scope(|s| {
        s.spawn(move || {
            // The reader may reject the frame early and close: the write
            // then fails, which is fine.
            let _ = tx.write_all(wire);
            let _ = tx.shutdown(Shutdown::Write);
        });
        let got = read(&mut rx);
        drop(rx); // unblocks a writer the reader stopped short of
        got
    })
}

/// Read the next frame with the reader the system runs.
fn read_next(rx: &mut TcpStream) -> Result<Option<(u8, Vec<u8>)>, ShardError> {
    let budget = Duration::from_secs(10);
    proto::read_frame_deadline(rx, Some(budget), budget)
}

/// Decode one frame from bytes. A flip that survives the CRC *cannot*
/// survive into a wrong value — it must reproduce the original frame
/// exactly.
fn decode(wire: &[u8]) -> Result<Option<(u8, Vec<u8>)>, ShardError> {
    with_socket(wire, read_next)
}

#[test]
fn frames_roundtrip_back_to_back_over_one_socket() {
    let id = sample_identity();
    let assign = Assign {
        start: 10,
        end: 20,
        attempt: 1,
        kill: false,
        stall_ms: 0,
    };
    let mut wire = frame_bytes(proto::T_HELLO, &proto::encode_identity(&id));
    wire.extend(frame_bytes(proto::T_ASSIGN, &proto::encode_assign(&assign)));
    wire.extend(frame_bytes(
        proto::T_DONE,
        &proto::encode_outcome(&sample_outcome()),
    ));
    wire.extend(frame_bytes(proto::T_SHUTDOWN, &[]));

    with_socket(&wire, |r| {
        let (k, p) = read_next(r).unwrap().unwrap();
        assert_eq!(k, proto::T_HELLO);
        assert_eq!(proto::decode_identity(&p).unwrap(), id);
        let (k, p) = read_next(r).unwrap().unwrap();
        assert_eq!(k, proto::T_ASSIGN);
        assert_eq!(proto::decode_assign(&p).unwrap(), assign);
        let (k, p) = read_next(r).unwrap().unwrap();
        assert_eq!(k, proto::T_DONE);
        let got = proto::decode_outcome(&p).unwrap();
        let want = sample_outcome();
        assert_eq!(got.states, want.states);
        assert_eq!(got.segments, want.segments);
        assert_eq!(got.flows, want.flows);
        assert_eq!(got.quarantined.len(), 1);
        assert_eq!(got.quarantined[0].error, want.quarantined[0].error);
        let (k, p) = read_next(r).unwrap().unwrap();
        assert_eq!((k, p.len()), (proto::T_SHUTDOWN, 0));
        assert!(read_next(r).unwrap().is_none(), "clean EOF");
    });
}

/// The sweeps below accept any error; these malformations must fail with
/// the error that names them.
#[test]
fn malformed_frames_are_rejected_by_name() {
    let named = |wire: &[u8], what: &str| {
        let err = decode(wire).expect_err(what);
        assert!(err.to_string().contains(what), "wanted {what:?}, got {err}");
    };
    named(b"NOPE\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00", "magic");
    // Older peers (v2 located segments by file length alone) are
    // rejected by name, not misread.
    for version in [1u8, 2] {
        let mut wire = frame_bytes(proto::T_HEARTBEAT, &[]);
        wire[4] = version;
        named(&wire, &format!("version {version}"));
    }
    // A payload claim over the frame limit.
    let mut wire = frame_bytes(proto::T_DONE, &[]);
    wire[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
    named(&wire, "limit");
    // A claim under the limit that delivery cannot back: the reader fails
    // on EOF after at most one chunk of allocation, not the full 200 MiB.
    let mut wire = frame_bytes(proto::T_DONE, &[0u8; 16]);
    wire[6..10].copy_from_slice(&(200u32 << 20).to_be_bytes());
    named(&wire, "payload");
    // A flipped payload byte, and a flipped type byte over the same
    // payload: the kind is folded into the check.
    let mut wire = frame_bytes(
        proto::T_ASSIGN,
        &proto::encode_assign(&Assign {
            start: 1,
            end: 2,
            attempt: 0,
            kill: false,
            stall_ms: 0,
        }),
    );
    *wire.last_mut().unwrap() ^= 0x40;
    named(&wire, "CRC mismatch");
    let mut wire = frame_bytes(proto::T_HEARTBEAT, &[]);
    wire[5] = proto::T_SHUTDOWN;
    named(&wire, "CRC mismatch");
    // A truncated outcome payload names the missing field.
    let full = proto::encode_outcome(&sample_outcome());
    let err = proto::decode_outcome(&full[..12]).unwrap_err();
    assert!(err.to_string().contains("generated tally"), "{err}");
}

/// The oracle: flipping `wire[pos]` by `xor` either errors by name or
/// decodes to exactly the original `(kind, payload)`.
fn assert_flip_is_caught(wire: &[u8], pos: usize, xor: u8, kind: u8, payload: &[u8]) {
    let mut mutated = wire.to_vec();
    mutated[pos] ^= xor;
    match decode(&mutated) {
        Err(_) => {} // named rejection: the contract
        Ok(None) => {
            // Only a length-field shrink can make the reader see less
            // than a frame; the reader reports clean EOF only when the
            // *first* header byte is missing — impossible here, the
            // header is present. A flip must never register as EOF.
            panic!("flip at {pos} read as clean EOF");
        }
        Ok(Some((got_kind, got_payload))) => {
            assert_eq!(
                (got_kind, got_payload.as_slice()),
                (kind, payload),
                "flip at byte {pos} (xor {xor:#04x}) decoded as a DIFFERENT frame"
            );
        }
    }
}

fn sample_identity() -> Identity {
    Identity {
        seed: 0x10CD_2020,
        scenario_hash: 0x5eed_f00d,
        plan_hash: 0x0123_4567_89ab_cdef,
        cells: 20_592,
    }
}

fn sample_outcome() -> SliceOutcome {
    SliceOutcome {
        flows: 987_654,
        generated: 128,
        replayed: 16,
        resumed: 2,
        retries: 1,
        states: vec![vec![9, 8, 7, 6], Vec::new(), vec![0xa5; 257]],
        segments: vec![SegmentMeta {
            cell: Cell {
                stream: Stream::Edu,
                date: Date::new(2020, 3, 25),
                hour: 13,
            },
            records: 42,
            pack_tag: 0x5eed_0000_0000_0001,
            offset: 4096,
            len: 1024,
            crc: 0xdead_beef,
            min_start: 7,
            max_end: 9,
        }],
        quarantined: vec![QuarantinedCell {
            cell: Cell {
                stream: Stream::Edu,
                date: Date::new(2020, 4, 1),
                hour: 0,
            },
            attempts: 3,
            error: "worker died (heartbeat timeout)".into(),
        }],
        ..SliceOutcome::default()
    }
}

/// Every frame type's sample `(kind, payload)` pair — the full protocol
/// vocabulary, so no frame type escapes the sweep.
fn vocabulary() -> Vec<(u8, Vec<u8>)> {
    let id = sample_identity();
    vec![
        (proto::T_HELLO, proto::encode_identity(&id)),
        (
            proto::T_HELLO_ACK,
            proto::encode_hello_ack(&id, &[(0, 2574), (5148, 7722)]),
        ),
        (
            proto::T_ASSIGN,
            proto::encode_assign(&Assign {
                start: 2574,
                end: 5148,
                attempt: 1,
                kill: false,
                stall_ms: 0,
            }),
        ),
        (proto::T_HEARTBEAT, Vec::new()),
        (proto::T_DONE, proto::encode_outcome(&sample_outcome())),
        (
            proto::T_FAILED,
            proto::encode_failed("segment write failed"),
        ),
        (proto::T_SHUTDOWN, Vec::new()),
    ]
}

#[test]
fn every_byte_position_flip_is_caught_or_harmless() {
    for (kind, payload) in vocabulary() {
        let wire = frame_bytes(kind, &payload);
        // The DONE frame is ~100 KB of consumer state; sweep every
        // header byte and a stride through the payload to keep the
        // exhaustive layer fast. Small frames sweep every byte.
        let positions: Vec<usize> = if wire.len() <= 4096 {
            (0..wire.len()).collect()
        } else {
            (0..proto::HEADER_LEN)
                .chain((proto::HEADER_LEN..wire.len()).step_by(97))
                .chain([wire.len() - 1])
                .collect()
        };
        for pos in positions {
            for xor in [0x01, 0x80, 0xff] {
                assert_flip_is_caught(&wire, pos, xor, kind, &payload);
            }
        }
    }
}

#[test]
fn typed_decoders_reject_flipped_payloads_by_name_not_panic() {
    // Even when handed a payload that (hypothetically) slipped past the
    // frame CRC, the typed decoders must reject or round-trip — this
    // guards the decoders themselves against panics on garbled input.
    type GarbleCheck = Box<dyn Fn(&[u8]) -> bool>;
    let id = sample_identity();
    let cases: Vec<(Vec<u8>, GarbleCheck)> = vec![
        // A flip in a fixed-width integer field decodes to a different
        // value by construction; the *frame CRC* is what rules wrong
        // values out on the real wire (tested above). The typed
        // decoders' own contract is narrower: never panic on garble.
        (
            proto::encode_identity(&id),
            Box::new(move |b| matches!(proto::decode_identity(b), Ok(_) | Err(_))),
        ),
        (
            proto::encode_hello_ack(&id, &[(8, 16)]),
            Box::new(move |b| matches!(proto::decode_hello_ack(b), Ok(_) | Err(_))),
        ),
        (
            proto::encode_outcome(&sample_outcome()),
            Box::new(move |b| matches!(proto::decode_outcome(b), Ok(_) | Err(_))),
        ),
    ];
    for (payload, check) in cases {
        for pos in 0..payload.len().min(512) {
            let mut mutated = payload.clone();
            mutated[pos] ^= 0xff;
            assert!(check(&mutated), "flip at {pos} violated the contract");
        }
    }
}

/// Random frame contents, random flip position, random flip mask:
/// named error or byte-identical decode, never a panic.
#[test]
fn random_single_byte_flips_never_decode_silently_wrong() {
    cases(64, |rng, _| {
        let id = Identity {
            seed: rng.next_u64(),
            scenario_hash: rng.next_u64(),
            plan_hash: rng.next_u64(),
            cells: rng.next_u64(),
        };
        let start = rng.below(1_000_000) as u32;
        let len = rng.range(1..1_000_000) as u32;
        let (kind, payload) = match rng.below(4) {
            0 => (proto::T_HELLO, proto::encode_identity(&id)),
            1 => (
                proto::T_HELLO_ACK,
                proto::encode_hello_ack(&id, &[(start, start + len)]),
            ),
            2 => (
                proto::T_ASSIGN,
                proto::encode_assign(&Assign {
                    start,
                    end: start + len,
                    attempt: rng.below(16) as u32,
                    kill: rng.chance(0.5),
                    stall_ms: rng.below(60_000) as u32,
                }),
            ),
            _ => (
                proto::T_FAILED,
                proto::encode_failed(&format!("slice failed: code {:#018x}", rng.next_u64())),
            ),
        };
        let wire = frame_bytes(kind, &payload);
        let pos = rng.below(wire.len() as u64) as usize;
        let xor = rng.range(1..256) as u8;
        assert_flip_is_caught(&wire, pos, xor, kind, &payload);

        // And the unmutated frame must still round-trip — the oracle is
        // meaningless if the baseline doesn't hold.
        let (got_kind, got_payload) = decode(&wire)
            .expect("clean frame decodes")
            .expect("clean frame is not EOF");
        assert_eq!((got_kind, got_payload), (kind, payload));
    });
}

/// Truncating a frame at any point is an error or clean EOF at a
/// frame boundary — never a partial decode.
#[test]
fn random_truncation_never_yields_a_frame() {
    cases(64, |rng, _| {
        let start = rng.below(1_000_000) as u32;
        let payload = proto::encode_assign(&Assign {
            start,
            end: start + rng.range(1..1_000_000) as u32,
            attempt: 0,
            kill: false,
            stall_ms: 0,
        });
        let wire = frame_bytes(proto::T_ASSIGN, &payload);
        let cut = rng.below(wire.len() as u64) as usize;
        match decode(&wire[..cut]) {
            Err(_) => {}
            Ok(None) => assert_eq!(cut, 0, "EOF only at the frame boundary"),
            Ok(Some(_)) => panic!("truncated frame decoded"),
        }
    });
}
