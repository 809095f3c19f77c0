//! Wire codec for replica-to-replica [`ZabMessage`]s.
//!
//! The networked transport ([`crate::tcp::TcpNetwork`]) exchanges envelopes
//! as length-prefixed frames (the same 4-byte framing as the client protocol,
//! [`jute::framing`]); this module defines the frame body: a one-byte variant
//! tag followed by the jute-encoded fields. Zxids travel packed into 64 bits
//! (epoch high, counter low), exactly the representation ZooKeeper uses.

use jute::{InputArchive, JuteError, OutputArchive};

use crate::message::{NodeId, Txn, ZabMessage, Zxid};
use crate::network::Envelope;

const TAG_PROPOSAL: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_NEW_LEADER_SYNC: u8 = 4;
const TAG_SYNC_ACK: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_FORWARD_WRITE: u8 = 7;
const TAG_ELECTION: u8 = 8;
const TAG_SYNC_REQUEST: u8 = 9;
const TAG_SNAPSHOT_CHUNK: u8 = 10;
const TAG_VOTE_GRANT: u8 = 11;
const TAG_TRANSFER_LEADERSHIP: u8 = 12;

fn write_node(out: &mut OutputArchive, node: NodeId) {
    out.write_i32(node.0 as i32);
}

fn read_node(input: &mut InputArchive<'_>, what: &'static str) -> Result<NodeId, JuteError> {
    Ok(NodeId(input.read_i32(what)? as u32))
}

fn write_zxid(out: &mut OutputArchive, zxid: Zxid) {
    out.write_i64(zxid.as_u64() as i64);
}

fn read_zxid(input: &mut InputArchive<'_>, what: &'static str) -> Result<Zxid, JuteError> {
    Ok(Zxid::from_u64(input.read_i64(what)? as u64))
}

fn write_epoch(out: &mut OutputArchive, epoch: u32) {
    out.write_i32(epoch as i32);
}

fn read_epoch(input: &mut InputArchive<'_>, what: &'static str) -> Result<u32, JuteError> {
    Ok(input.read_i32(what)? as u32)
}

fn write_txn(out: &mut OutputArchive, txn: &Txn) {
    write_zxid(out, txn.zxid);
    out.write_buffer(&txn.payload);
}

fn read_txn(input: &mut InputArchive<'_>) -> Result<Txn, JuteError> {
    let zxid = read_zxid(input, "txn zxid")?;
    Ok(Txn::new(zxid, input.read_buffer_slice("txn payload")?))
}

/// Serializes an envelope into a frame body (sender, tag, fields).
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    let mut out = OutputArchive::with_capacity(32);
    write_node(&mut out, envelope.from);
    match &envelope.message {
        ZabMessage::Proposal { txn, prev } => {
            out.write_u8(TAG_PROPOSAL);
            write_txn(&mut out, txn);
            write_zxid(&mut out, *prev);
        }
        ZabMessage::Ack { zxid, from } => {
            out.write_u8(TAG_ACK);
            write_zxid(&mut out, *zxid);
            write_node(&mut out, *from);
        }
        ZabMessage::Commit { zxid } => {
            out.write_u8(TAG_COMMIT);
            write_zxid(&mut out, *zxid);
        }
        ZabMessage::NewLeaderSync { epoch, txns } => {
            out.write_u8(TAG_NEW_LEADER_SYNC);
            write_epoch(&mut out, *epoch);
            out.write_i32(txns.len() as i32);
            for txn in txns {
                write_txn(&mut out, txn);
            }
        }
        ZabMessage::SyncAck { from, epoch } => {
            out.write_u8(TAG_SYNC_ACK);
            write_node(&mut out, *from);
            write_epoch(&mut out, *epoch);
        }
        ZabMessage::Heartbeat { epoch } => {
            out.write_u8(TAG_HEARTBEAT);
            write_epoch(&mut out, *epoch);
        }
        ZabMessage::ForwardWrite { origin, request_id, payload } => {
            out.write_u8(TAG_FORWARD_WRITE);
            write_node(&mut out, *origin);
            out.write_i64(*request_id as i64);
            out.write_buffer(payload);
        }
        ZabMessage::SyncRequest { from, last_logged } => {
            out.write_u8(TAG_SYNC_REQUEST);
            write_node(&mut out, *from);
            write_zxid(&mut out, *last_logged);
        }
        ZabMessage::Election { epoch, last_logged, from } => {
            out.write_u8(TAG_ELECTION);
            write_epoch(&mut out, *epoch);
            write_zxid(&mut out, *last_logged);
            write_node(&mut out, *from);
        }
        ZabMessage::VoteGrant { epoch, from, last_logged } => {
            out.write_u8(TAG_VOTE_GRANT);
            write_epoch(&mut out, *epoch);
            write_node(&mut out, *from);
            write_zxid(&mut out, *last_logged);
        }
        ZabMessage::SnapshotChunk { epoch, snapshot_zxid, seq, last, bytes } => {
            out.write_u8(TAG_SNAPSHOT_CHUNK);
            write_epoch(&mut out, *epoch);
            write_zxid(&mut out, *snapshot_zxid);
            out.write_i32(*seq as i32);
            out.write_bool(*last);
            out.write_buffer(bytes);
        }
        ZabMessage::TransferLeadership { epoch } => {
            out.write_u8(TAG_TRANSFER_LEADERSHIP);
            write_epoch(&mut out, *epoch);
        }
    }
    out.into_bytes()
}

/// Decodes a frame body produced by [`encode_envelope`].
///
/// # Errors
///
/// Returns [`JuteError`] on truncated input, trailing bytes, or an unknown
/// variant tag.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, JuteError> {
    let mut input = InputArchive::new(bytes);
    let from = read_node(&mut input, "envelope sender")?;
    let tag = input.read_u8("message tag")?;
    let message = match tag {
        TAG_PROPOSAL => ZabMessage::Proposal {
            txn: read_txn(&mut input)?,
            prev: read_zxid(&mut input, "proposal prev")?,
        },
        TAG_ACK => ZabMessage::Ack {
            zxid: read_zxid(&mut input, "ack zxid")?,
            from: read_node(&mut input, "ack sender")?,
        },
        TAG_COMMIT => ZabMessage::Commit { zxid: read_zxid(&mut input, "commit zxid")? },
        TAG_NEW_LEADER_SYNC => {
            let epoch = read_epoch(&mut input, "sync epoch")?;
            let count = input.read_i32("sync txn count")?;
            if count < 0 {
                return Err(JuteError::InvalidLength {
                    what: "sync txn count",
                    length: count.into(),
                });
            }
            let mut txns = Vec::with_capacity((count as usize).min(1024));
            for _ in 0..count {
                txns.push(read_txn(&mut input)?);
            }
            ZabMessage::NewLeaderSync { epoch, txns }
        }
        TAG_SYNC_ACK => ZabMessage::SyncAck {
            from: read_node(&mut input, "sync-ack sender")?,
            epoch: read_epoch(&mut input, "sync-ack epoch")?,
        },
        TAG_HEARTBEAT => {
            ZabMessage::Heartbeat { epoch: read_epoch(&mut input, "heartbeat epoch")? }
        }
        TAG_FORWARD_WRITE => ZabMessage::ForwardWrite {
            origin: read_node(&mut input, "forward origin")?,
            request_id: input.read_i64("forward request id")? as u64,
            payload: input.read_buffer("forward payload")?,
        },
        TAG_SYNC_REQUEST => ZabMessage::SyncRequest {
            from: read_node(&mut input, "sync-request sender")?,
            last_logged: read_zxid(&mut input, "sync-request tip")?,
        },
        TAG_ELECTION => ZabMessage::Election {
            epoch: read_epoch(&mut input, "election epoch")?,
            last_logged: read_zxid(&mut input, "election credential")?,
            from: read_node(&mut input, "election candidate")?,
        },
        TAG_VOTE_GRANT => ZabMessage::VoteGrant {
            epoch: read_epoch(&mut input, "vote-grant epoch")?,
            from: read_node(&mut input, "vote-grant voter")?,
            last_logged: read_zxid(&mut input, "vote-grant tip")?,
        },
        TAG_SNAPSHOT_CHUNK => ZabMessage::SnapshotChunk {
            epoch: read_epoch(&mut input, "snapshot epoch")?,
            snapshot_zxid: read_zxid(&mut input, "snapshot zxid")?,
            seq: input.read_i32("snapshot chunk seq")? as u32,
            last: input.read_bool("snapshot chunk last")?,
            bytes: input.read_buffer("snapshot chunk bytes")?,
        },
        TAG_TRANSFER_LEADERSHIP => {
            ZabMessage::TransferLeadership { epoch: read_epoch(&mut input, "transfer epoch")? }
        }
        other => {
            return Err(JuteError::InvalidLength { what: "message tag", length: other.into() });
        }
    };
    input.expect_exhausted()?;
    Ok(Envelope { from, message })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(message: ZabMessage) {
        let envelope = Envelope { from: NodeId(3), message };
        let bytes = encode_envelope(&envelope);
        assert_eq!(decode_envelope(&bytes).unwrap(), envelope);
    }

    #[test]
    fn every_variant_roundtrips() {
        let zxid = Zxid { epoch: 7, counter: 123_456 };
        roundtrip(ZabMessage::Proposal {
            txn: Txn::new(zxid, &b"create /a"[..]),
            prev: Zxid { epoch: 7, counter: 123_455 },
        });
        roundtrip(ZabMessage::Ack { zxid, from: NodeId(2) });
        roundtrip(ZabMessage::Commit { zxid });
        roundtrip(ZabMessage::NewLeaderSync {
            epoch: 8,
            txns: vec![Txn::new(zxid, vec![]), Txn::new(zxid.next(), vec![0xff; 100])],
        });
        roundtrip(ZabMessage::SyncAck { from: NodeId(1), epoch: 8 });
        roundtrip(ZabMessage::Heartbeat { epoch: u32::MAX });
        roundtrip(ZabMessage::ForwardWrite {
            origin: NodeId(9),
            request_id: u64::MAX,
            payload: b"set /x".to_vec(),
        });
        roundtrip(ZabMessage::SyncRequest { from: NodeId(2), last_logged: zxid });
        roundtrip(ZabMessage::Election { epoch: 2, last_logged: Zxid::ZERO, from: NodeId(5) });
        roundtrip(ZabMessage::VoteGrant { epoch: 3, last_logged: zxid, from: NodeId(4) });
        roundtrip(ZabMessage::SnapshotChunk {
            epoch: 9,
            snapshot_zxid: zxid,
            seq: 3,
            last: true,
            bytes: vec![0xAB; 4096],
        });
        roundtrip(ZabMessage::SnapshotChunk {
            epoch: 1,
            snapshot_zxid: Zxid::ZERO,
            seq: 0,
            last: false,
            bytes: Vec::new(),
        });
        roundtrip(ZabMessage::TransferLeadership { epoch: 11 });
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut out = OutputArchive::new();
        out.write_i32(1);
        out.write_u8(42);
        assert!(decode_envelope(&out.into_bytes()).is_err());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let envelope = Envelope {
            from: NodeId(1),
            message: ZabMessage::Commit { zxid: Zxid { epoch: 1, counter: 1 } },
        };
        let bytes = encode_envelope(&envelope);
        for len in 0..bytes.len() {
            assert!(decode_envelope(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let envelope = Envelope { from: NodeId(1), message: ZabMessage::Heartbeat { epoch: 1 } };
        let mut bytes = encode_envelope(&envelope);
        bytes.push(0);
        assert!(decode_envelope(&bytes).is_err());
    }

    #[test]
    fn negative_sync_count_is_rejected() {
        let mut out = OutputArchive::new();
        write_node(&mut out, NodeId(1));
        out.write_u8(TAG_NEW_LEADER_SYNC);
        write_epoch(&mut out, 1);
        out.write_i32(-4);
        assert!(decode_envelope(&out.into_bytes()).is_err());
    }
}
