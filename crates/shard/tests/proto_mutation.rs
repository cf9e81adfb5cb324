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
//! miss).

use lockdown_base::prop::cases;
use lockdown_core::engine::SliceOutcome;
use lockdown_core::supervisor::QuarantinedCell;
use lockdown_flow::time::Date;
use lockdown_shard::proto::{self, Assign, Identity};
use lockdown_shard::ShardError;
use lockdown_store::SegmentMeta;
use lockdown_traffic::plan::{Cell, Stream};

/// Encode one whole frame (header + payload) into a byte vector.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, kind, payload).expect("vec write");
    wire
}

/// Decode one frame from bytes. The typed payload decoders run too, so
/// a flip that survives the CRC *cannot* survive into a wrong value —
/// it must reproduce the original frame exactly.
fn decode(wire: &[u8]) -> Result<Option<(u8, Vec<u8>)>, ShardError> {
    let mut r = wire;
    proto::read_frame(&mut r)
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
            // than a frame; read_frame reports clean EOF only when the
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
            file_len: 1024,
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
