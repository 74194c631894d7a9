//! Malformed `.ptw` input never panics: every corruption lands on a
//! typed error (or an empty-but-valid decode), across the batch decoder,
//! the replay client, and a live daemon session.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use pstrace::codec::{decode_ptw_payload, encode_v2, ProfileV2};
use pstrace::diag::MatchMode;
use pstrace::faults::{slot_cycling_records, Fixture};
use pstrace::soc::SocModel;
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{connect, replay, Replay, Server, ServerConfig, StreamError};
use pstrace::wire::{
    decode_with, encode_records, read_ptw, read_ptw_any, split_ptw, write_ptw, write_ptw_with,
    DamageReason, ProfileV1, PtwMeta, WireError, WireRecord, WireSchema,
};

/// Replays `ptw` as a scenario-`scenario` capture to the daemon at
/// `addr` over one plain session in `chunk`-byte chunks.
fn replay_plain(
    addr: impl ToSocketAddrs + Copy,
    model: &SocModel,
    scenario: u8,
    ptw: &[u8],
    chunk: usize,
) -> Result<String, StreamError> {
    let plan = Replay {
        chunk_bytes: chunk,
        ..Replay::new(scenario, MatchMode::Prefix)
    };
    replay(|_| connect(addr, &plan.policy), model.catalog(), ptw, &plan)
}

#[test]
fn truncated_header_is_a_typed_error() {
    let Fixture { model, ptw, .. } = Fixture::new(40).unwrap();
    // Every truncation point inside the header must error, never panic.
    for cut in [0usize, 1, 3, 4, 5, 8, 12, 13] {
        let err = read_ptw(model.catalog(), &ptw[..cut.min(ptw.len())]);
        assert!(err.is_err(), "header cut at {cut} bytes must error");
    }
}

#[test]
fn garbage_catalog_names_are_a_typed_error() {
    let Fixture { model, ptw, .. } = Fixture::new(40).unwrap();
    // Stomp the slot table (everything past the fixed 13-byte header):
    // slot names become garbage the catalog cannot resolve.
    let mut bad = ptw.clone();
    for b in bad.iter_mut().skip(13).take(32) {
        *b = 0xFF;
    }
    assert!(
        read_ptw(model.catalog(), &bad).is_err(),
        "garbage slot table must be rejected"
    );
    // Foreign magic likewise.
    let mut foreign = ptw;
    foreign[..4].copy_from_slice(b"NOPE");
    assert!(read_ptw(model.catalog(), &foreign).is_err());
}

#[test]
fn mid_file_eof_is_a_typed_error_everywhere() {
    let Fixture { model, ptw, .. } = Fixture::new(40).unwrap();
    let parts = split_ptw(model.catalog(), &ptw).expect("valid");
    let consumed = parts.header.len();

    // Cut inside the payload-length field.
    let short_len = &ptw[..consumed + 3];
    assert!(read_ptw(model.catalog(), short_len).is_err());

    // Cut mid-payload: the declared bit length outruns the bytes.
    let mid = &ptw[..consumed + 8 + parts.payload.len() / 2];
    assert!(read_ptw(model.catalog(), mid).is_err());

    // The replay client validates the same way before touching a socket,
    // so a daemon never sees the malformed container.
    // Never connected: validation fails first.
    let err = replay_plain("127.0.0.1:1", &model, 1, mid, 64)
        .expect_err("client rejects the truncated container");
    assert!(
        !matches!(err, StreamError::Io(_)),
        "must fail on validation, not transport: {err}"
    );
}

#[test]
fn zero_length_body_decodes_to_zero_frames_and_streams_cleanly() {
    let Fixture { model, schema, .. } = Fixture::new(1).unwrap();
    let empty = encode_records(&schema, &[], None).expect("empty stream encodes");
    assert_eq!(empty.bit_len, 0);
    let ptw = write_ptw(model.catalog(), &schema, &empty);

    // Batch: a valid container with zero frames, not an error.
    let (schema_back, stream_back) = read_ptw(model.catalog(), &ptw).expect("parses");
    assert_eq!(schema_back.frame_bits(), schema.frame_bits());
    let report = decode_with(
        &ProfileV1,
        &schema_back,
        &stream_back.bytes,
        Some(stream_back.bit_len),
    );
    assert_eq!(report.frames, 0);
    assert!(report.records.is_empty());

    // Live: the session completes with zero records.
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let reply = replay_plain(server.local_addr(), &model, 1, &ptw, 64)
        .expect("zero-length session completes");
    assert!(reply.contains("records"), "report renders: {reply}");
    let snap = server.snapshot();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.records, 0);
    server.shutdown();
}

/// A valid v2 (compressed) container over the same scenario-1 schema:
/// `(model, schema, records, ptw bytes)`.
fn v2_fixture(
    records: usize,
    sync_every: u16,
) -> (Arc<SocModel>, WireSchema, Vec<WireRecord>, Vec<u8>) {
    let Fixture { model, schema, .. } = Fixture::new(records).unwrap();
    let recs = slot_cycling_records(&schema, records);
    let encoded = encode_v2(&schema, &recs, sync_every, None).expect("encodes");
    let ptw = write_ptw_with(model.catalog(), &schema, PtwMeta::v2(sync_every), &encoded);
    (model, schema, recs, ptw)
}

#[test]
fn v2_container_is_a_typed_error_for_v1_only_readers() {
    let (model, _, _, ptw) = v2_fixture(40, 8);
    // The v1-only entry point refuses the profile with the typed
    // variant, naming both the file's version and the reader's ceiling.
    let err = read_ptw(model.catalog(), &ptw).expect_err("v1 reader must refuse v2");
    match err {
        WireError::UnsupportedProfile {
            version,
            max_supported,
        } => {
            assert_eq!(version, 2);
            assert_eq!(max_supported, 1);
        }
        other => panic!("expected UnsupportedProfile, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("v2") && msg.contains("v1"), "{msg}");

    // The codec-aware entry point decodes it fully.
    let (schema, meta, stream) =
        read_ptw_any(model.catalog(), &ptw).expect("codec reader accepts v2");
    let report = decode_ptw_payload(&schema, meta, &stream);
    assert_eq!(meta.version, 2);
    assert!(report.is_clean(), "{:?}", report.damaged);
    assert_eq!(report.records.len(), 40);

    // A version byte beyond every known dialect is BadVersion for both,
    // and the message names the supported range.
    let mut future = ptw;
    future[4] = 9;
    let err = read_ptw_any(model.catalog(), &future).expect_err("version 9 is unknown");
    assert!(
        matches!(err, WireError::BadVersion { .. }),
        "typed: {err:?}"
    );
    assert!(err.to_string().contains("1..=2"), "{err}");
}

#[test]
fn truncated_v2_sync_block_is_bounded_damage_never_a_panic() {
    let (model, schema, recs, ptw) = v2_fixture(48, 8);
    let payload = split_ptw(model.catalog(), &ptw).unwrap().payload.to_vec();

    // Chop the payload mid-block at every granularity: the decoder
    // reports the torn tail block as sync damage and keeps everything
    // before it; it never panics and never invents records.
    let v2 = ProfileV2::default();
    for cut in 1..payload.len() {
        let torn = &payload[..cut];
        let report = decode_with(&v2, &schema, torn, Some(torn.len() as u64 * 8));
        assert!(
            report.records.len() <= recs.len(),
            "cut {cut}: more records out than in"
        );
        for r in &report.records {
            assert!(recs.contains(r), "cut {cut}: invented record {r:?}");
        }
        if report.records.len() < recs.len() {
            // A cut landing exactly on a block boundary leaves a clean
            // (shorter) stream — there is nothing to flag. Any other cut
            // tears a block and must surface as sync damage.
            let clean_boundary =
                report.damaged.is_empty() && report.records == recs[..report.records.len()];
            assert!(
                clean_boundary
                    || report.damaged.iter().any(|d| matches!(
                        d.reason,
                        DamageReason::SyncCorrupt { .. } | DamageReason::SyncLost { .. }
                    )),
                "cut {cut}: lost records must be accounted as sync damage: {:?}",
                report.damaged
            );
        }
    }

    // A container truncated mid-payload stays a typed error, as in v1.
    let mid = &ptw[..ptw.len() - payload.len() / 2];
    assert!(read_ptw_any(model.catalog(), mid).is_err());
}

#[test]
fn v2_container_streams_to_a_live_daemon() {
    // End to end over the PSTS handshake: the container's schema prefix
    // carries the v2 version byte, the daemon negotiates the compressed
    // decoder, and the session report accounts every record.
    let (model, _, recs, ptw) = v2_fixture(40, 8);
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    for chunk in [1usize, 7, 64] {
        let reply = replay_plain(server.local_addr(), &model, 1, &ptw, chunk)
            .expect("v2 session completes");
        assert!(reply.contains("records"), "report renders: {reply}");
    }
    let snap = server.snapshot();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.records, 3 * recs.len() as u64);
    server.shutdown();
}

#[test]
fn garbage_handshake_is_rejected_and_the_daemon_survives() {
    let Fixture { model, ptw, .. } = Fixture::new(40).unwrap();
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A hello whose schema bytes are not a `.ptw` prefix: the server must
    // reject the session with a typed remote error, not die.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let hello = Hello {
        scenario: 1,
        mode: MatchMode::Prefix,
        tenant: 0,
        trace: 0,
        schema: b"this is not a schema".to_vec(),
    };
    proto::write_request(&mut writer, &Request::Session(hello)).unwrap();
    let err = proto::read_reply(&mut reader).expect_err("server rejects garbage schema");
    assert!(
        matches!(err, StreamError::Remote(_)),
        "typed rejection: {err}"
    );
    drop(reader);
    drop(writer);

    // A bad scenario number on an otherwise valid handshake likewise.
    let err = replay_plain(addr, &model, 77, &ptw, 64).expect_err("scenario 77 does not exist");
    assert!(
        matches!(err, StreamError::Remote(_)),
        "typed rejection: {err}"
    );

    // The daemon shrugged both off: a valid session still completes.
    replay_plain(addr, &model, 1, &ptw, 64).expect("daemon survives malformed handshakes");
    let snap = server.snapshot();
    assert_eq!(snap.completed, 1);
    assert!(snap.failed >= 2, "both rejections were counted: {snap:?}");
    server.shutdown();
}
