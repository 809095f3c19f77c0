//! Protocol vocabulary: identifiers, transactions and messages.

use std::sync::Arc;

/// Identifier of a replica participating in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica{}", self.0)
    }
}

/// A ZooKeeper transaction id: the high 32 bits hold the leader epoch, the low
/// 32 bits a counter that resets with each new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Zxid {
    /// Leader epoch.
    pub epoch: u32,
    /// Per-epoch counter, starting at 1 for the first proposal of an epoch.
    pub counter: u32,
}

impl Zxid {
    /// The zero zxid (no transaction seen yet).
    pub const ZERO: Zxid = Zxid { epoch: 0, counter: 0 };

    /// Builds a zxid from its packed 64-bit representation.
    pub fn from_u64(raw: u64) -> Self {
        Zxid { epoch: (raw >> 32) as u32, counter: raw as u32 }
    }

    /// Packs the zxid into 64 bits (epoch high, counter low).
    pub fn as_u64(&self) -> u64 {
        (u64::from(self.epoch) << 32) | u64::from(self.counter)
    }

    /// The next zxid within the same epoch.
    pub fn next(&self) -> Zxid {
        Zxid { epoch: self.epoch, counter: self.counter + 1 }
    }

    /// The first zxid of the following epoch.
    pub fn next_epoch(&self) -> Zxid {
        Zxid { epoch: self.epoch + 1, counter: 0 }
    }

    /// True when this zxid is a legal immediate successor of `prev` in ZAB's
    /// numbering: the next counter within the same epoch, or the *first*
    /// proposal (counter 1) of a later epoch (intervening epochs may be
    /// empty). Receivers use this to refuse history that would open a
    /// silent gap in their log.
    pub fn follows(&self, prev: Zxid) -> bool {
        if self.epoch == prev.epoch {
            self.counter == prev.counter.wrapping_add(1)
        } else {
            self.epoch > prev.epoch && self.counter == 1
        }
    }
}

impl std::fmt::Display for Zxid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:08x}{:08x}", self.epoch, self.counter)
    }
}

/// A state-machine command to be totally ordered. The payload is opaque to the
/// protocol; `zkserver` stores a serialized write request in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// The zxid assigned by the leader.
    pub zxid: Zxid,
    /// Opaque command payload, immutable and shared: the log entry, the
    /// commit outbox, proposal broadcasts and sync frames all point at the
    /// same allocation, so cloning a `Txn` never copies its bytes.
    pub payload: Arc<[u8]>,
}

impl Txn {
    /// A transaction carrying `payload` at `zxid`.
    pub fn new(zxid: Zxid, payload: impl Into<Arc<[u8]>>) -> Self {
        Txn { zxid, payload: payload.into() }
    }
}

/// Messages exchanged between replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZabMessage {
    /// Leader → follower: please accept this transaction.
    Proposal {
        /// The proposed transaction.
        txn: Txn,
        /// The zxid of the log entry immediately preceding `txn` on the
        /// leader. A follower accepts the proposal only when its own log tip
        /// matches, so a lost frame on a real network can never open a
        /// silent gap in a follower's log (it requests a resync instead).
        prev: Zxid,
    },
    /// Follower → leader: transaction logged, ready to commit.
    Ack {
        /// zxid being acknowledged.
        zxid: Zxid,
        /// Acknowledging replica.
        from: NodeId,
    },
    /// Leader → follower: a quorum acknowledged, apply the transaction.
    Commit {
        /// zxid to commit.
        zxid: Zxid,
    },
    /// New leader → follower: synchronize missing transactions after election.
    NewLeaderSync {
        /// The new epoch.
        epoch: u32,
        /// Transactions the follower is missing.
        txns: Vec<Txn>,
    },
    /// Follower → new leader: synchronization acknowledged.
    SyncAck {
        /// The follower.
        from: NodeId,
        /// The new epoch.
        epoch: u32,
    },
    /// Periodic heartbeat from the leader (used for failure detection).
    Heartbeat {
        /// Current epoch.
        epoch: u32,
    },
    /// Follower → leader: a client write received by a follower, forwarded to
    /// the current leader for proposal (ZooKeeper's request forwarding). The
    /// `origin`/`request_id` pair lets the origin replica correlate the
    /// eventual commit with the waiting client connection.
    ForwardWrite {
        /// Replica the client is connected to.
        origin: NodeId,
        /// Origin-local identifier of the pending client request.
        request_id: u64,
        /// The opaque transaction payload to propose.
        payload: Vec<u8>,
    },
    /// Follower → leader: this replica's log does not extend to what the
    /// leader references (a proposal's `prev` did not match, or a commit
    /// pointed past the local tip — lost frames on a real network). The
    /// leader answers with a [`ZabMessage::NewLeaderSync`] carrying the
    /// committed entries after `last_logged`.
    SyncRequest {
        /// The replica requesting the resync.
        from: NodeId,
        /// Its current log tip.
        last_logged: Zxid,
    },
    /// Broadcast during leader election: the sender's candidacy for `epoch`
    /// with its log credential. The node with the most advanced log (ties
    /// broken by the highest id) wins, as in ZooKeeper's fast leader election.
    Election {
        /// The epoch being elected.
        epoch: u32,
        /// The sender's most advanced logged zxid.
        last_logged: Zxid,
        /// The candidate.
        from: NodeId,
    },
    /// Voter → candidate: one vote granted for `epoch`. A member grants at
    /// most one vote per epoch (persisted before the grant leaves the node
    /// on durable members), and only to a candidate whose announced log
    /// credential is at least as advanced as its own — so two same-epoch
    /// leaders would need two intersecting quorums of single-use grants,
    /// which cannot exist.
    VoteGrant {
        /// The epoch the vote is granted for.
        epoch: u32,
        /// The granting member.
        from: NodeId,
        /// The granter's own log tip, so the winning candidate can ship
        /// exactly the suffix this voter is missing.
        last_logged: Zxid,
    },
    /// Leader → follower: one chunk of a serialized state snapshot, shipped
    /// when the follower has fallen behind the leader's log truncation
    /// horizon and the missing range can no longer be replayed from the log.
    /// Chunks of one snapshot travel in `seq` order over the FIFO link; the
    /// frame with `last` set completes the transfer, after which the leader
    /// follows up with a [`ZabMessage::NewLeaderSync`] carrying the log
    /// suffix after `snapshot_zxid`. The payload bytes are opaque to the
    /// protocol (and ciphertext throughout in secure mode).
    SnapshotChunk {
        /// The shipping leader's epoch.
        epoch: u32,
        /// The zxid the snapshot was taken at.
        snapshot_zxid: Zxid,
        /// Position of this chunk in the transfer, starting at 0.
        seq: u32,
        /// True on the final chunk.
        last: bool,
        /// The chunk's payload bytes.
        bytes: Vec<u8>,
    },
    /// Draining leader → chosen successor: start a candidacy now instead of
    /// waiting for the leader's heartbeats to time out. Sent after the
    /// draining leader has shipped its committed log suffix to the
    /// successor, so the successor's election credential is at least as
    /// advanced as every voter's and the handoff completes in one
    /// sub-second round instead of a full failure-detection cycle. Purely
    /// an optimization hint: a lost or ignored transfer degrades to an
    /// ordinary timeout-driven election.
    TransferLeadership {
        /// The draining leader's current epoch; the successor campaigns at
        /// a strictly higher one.
        epoch: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zxid_ordering_is_epoch_major() {
        let a = Zxid { epoch: 1, counter: 100 };
        let b = Zxid { epoch: 2, counter: 1 };
        assert!(b > a);
        assert!(Zxid::ZERO < a);
    }

    #[test]
    fn zxid_packing_roundtrip() {
        let z = Zxid { epoch: 7, counter: 123_456 };
        assert_eq!(Zxid::from_u64(z.as_u64()), z);
        assert_eq!(z.as_u64() >> 32, 7);
    }

    #[test]
    fn zxid_next_and_next_epoch() {
        let z = Zxid { epoch: 3, counter: 9 };
        assert_eq!(z.next(), Zxid { epoch: 3, counter: 10 });
        assert_eq!(z.next_epoch(), Zxid { epoch: 4, counter: 0 });
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(2).to_string(), "replica2");
        assert_eq!(Zxid { epoch: 1, counter: 2 }.to_string(), "0x0000000100000002");
    }
}
