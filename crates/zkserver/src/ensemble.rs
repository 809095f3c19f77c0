//! A networked, ZAB-replicated ensemble member.
//!
//! [`ZkEnsembleServer`] composes the pieces the rest of the workspace
//! provides into one replica *process*:
//!
//! * a client-facing [`ZkTcpServer`] speaking the ZooKeeper wire protocol
//!   (reads answered from the local tree, the entry-enclave interceptor on
//!   the byte path);
//! * a replica-to-replica [`TcpNetwork`] carrying [`ZabMessage`]s as
//!   length-prefixed frames;
//! * a [`ZabNode`] driven by a background thread that pumps the peer
//!   network, applies committed transactions to the local [`ZkReplica`] in
//!   zxid order, emits leader heartbeats, and runs leader election when the
//!   leader goes quiet.
//!
//! Writes received by a follower are forwarded to the current leader
//! ([`ZabMessage::ForwardWrite`]), proposed, committed by quorum, applied on
//! every replica, and answered from the replica the client is connected to —
//! ZooKeeper's request-forwarding architecture. `CloseSession` and
//! session-expiry ephemeral cleanup are replicated the same way, so the
//! trees of all replicas stay byte-for-byte identical.
//!
//! Leader election is grant-based: when a follower's leader goes quiet past
//! its (per-id staggered) timeout, it starts a candidacy for the next epoch
//! and broadcasts its log credential ([`ZabMessage::Election`]). Every other
//! member grants **at most one** vote per epoch ([`ZabMessage::VoteGrant`]) —
//! persisted on durable members so a crash-restart cannot double-vote — and
//! only to a candidate whose announced log is at least as advanced as its
//! own. A candidate that collects a quorum of grants (its own included)
//! promotes itself, syncs every peer with [`ZabMessage::NewLeaderSync`] (or
//! a shipped snapshot for peers behind the log's truncation horizon), and
//! resumes heartbeats; a candidate whose vote window closes short of quorum
//! abandons the round and retries at a higher epoch after a fresh timeout.
//! Because a quorum of single-shot grants is required and any two quorums
//! intersect, two leaders can never be crowned for the same epoch — at any
//! ensemble size, under frame loss, duplication, reordering or partition
//! (the fault schedules `crates/chaos` drives). A refused candidate does
//! not counter-announce at the contested epoch; it only remembers the epoch
//! so its *next* candidacy moves past it, which keeps racing rounds
//! converging instead of livelocking.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use opsplane::http::{OpsServer, ProbeState};
use parking_lot::Mutex;

use jute::records::{DeleteRequest, ErrorCode};
use jute::{InputArchive, OutputArchive, Request, Response};
use trace::{Stage, TraceContext};
use zab::tcp::TcpNetwork;
use zab::{Envelope, NodeId, Role, ZabMessage, ZabNode, ZabTransport, Zxid};

use crate::error::ZkError;
use crate::metrics::ServerMetrics;
use crate::net::{AdminInfo, NetConfig, WriteHandler, ZkTcpServer};
use crate::ops::WriteTxn;
use crate::persist::{self, ReplicaPersistence};
use crate::server::ZkReplica;

/// Payload bytes of committed transactions a member keeps in its in-memory
/// replication log. After every apply, the oldest committed entries beyond
/// this budget are dropped; a peer that falls behind them is brought up to
/// date with a shipped snapshot of the live tree instead of a log suffix.
/// Durable members also compact at each snapshot, whichever cuts deeper.
pub const LOG_RETAINED_BYTES: usize = 1 << 20;

/// Payload bound of one [`ZabMessage::SnapshotChunk`] frame; comfortably
/// below the transport's 16 MiB frame cap even with framing overhead.
const SNAPSHOT_CHUNK_BYTES: usize = 512 * 1024;

/// How often a draining leader re-sends [`ZabMessage::TransferLeadership`]
/// while it still leads: long enough for the successor's previous candidacy
/// round to conclude, short enough to retry many times within a drain budget.
const DRAIN_NUDGE_INTERVAL: Duration = Duration::from_millis(250);

/// The replica-to-replica transport seam of an ensemble member.
///
/// [`TcpNetwork`] is the production implementation; the chaos harness wraps
/// one in a fault-injecting decorator (drops, delays, duplicates,
/// partitions) and hands it to [`ZkEnsembleServer::start_custom`] — the
/// protocol code above this seam cannot tell the difference.
pub trait PeerTransport: ZabTransport + Send + Sync {
    /// The node id this endpoint was bound as.
    fn id(&self) -> NodeId;
    /// The address peers connect to.
    fn local_addr(&self) -> SocketAddr;
    /// Ids of the *other* ensemble members (excludes this node).
    fn peer_ids(&self) -> Vec<NodeId>;
    /// Installs the peer address book (identical on every member).
    fn set_peers(&self, peers: HashMap<NodeId, SocketAddr>);
    /// Blocks up to `timeout` for one incoming envelope.
    fn receive_timeout(&self, timeout: Duration) -> Option<Envelope>;
    /// Stops the endpoint; subsequent sends are dropped.
    fn shutdown(&self);
}

impl PeerTransport for TcpNetwork {
    fn id(&self) -> NodeId {
        TcpNetwork::id(self)
    }

    fn local_addr(&self) -> SocketAddr {
        TcpNetwork::local_addr(self)
    }

    fn peer_ids(&self) -> Vec<NodeId> {
        TcpNetwork::peer_ids(self)
    }

    fn set_peers(&self, peers: HashMap<NodeId, SocketAddr>) {
        TcpNetwork::set_peers(self, peers);
    }

    fn receive_timeout(&self, timeout: Duration) -> Option<Envelope> {
        TcpNetwork::receive_timeout(self, timeout)
    }

    fn shutdown(&self) {
        TcpNetwork::shutdown(self);
    }
}

/// Timing and transport configuration of an ensemble member.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Interval between leader heartbeats.
    pub heartbeat_interval: Duration,
    /// Silence from the leader after which a follower starts an election.
    pub election_timeout: Duration,
    /// How long an election collects candidacy announcements before the
    /// winner is determined.
    pub election_vote_window: Duration,
    /// How long a client write may wait for its commit before the server
    /// reports a connection-level failure.
    pub write_timeout: Duration,
    /// Poll granularity of the driver thread (bounds timer slop).
    pub poll_interval: Duration,
    /// Configuration of the client-facing TCP server.
    pub net: NetConfig,
    /// Address of the operational HTTP endpoint (`/metrics`, `/health/live`,
    /// `/health/ready`); `None` runs the member without one. Port 0 binds an
    /// ephemeral port — read it back with
    /// [`ZkEnsembleServer::ops_addr`].
    pub ops_addr: Option<SocketAddr>,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            heartbeat_interval: Duration::from_millis(40),
            election_timeout: Duration::from_millis(300),
            election_vote_window: Duration::from_millis(150),
            write_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(10),
            net: NetConfig::default(),
            ops_addr: None,
        }
    }
}

/// The ZAB payload of one replicated write: which replica the issuing client
/// is connected to (so that replica can answer it once the commit applies),
/// an origin-local request id, the serialized [`WriteTxn`], and — when the
/// request carried a wire trace envelope — the trace context, so every
/// replica can attribute its apply and fsync work to the end-to-end trace.
fn encode_payload(
    origin: NodeId,
    request_id: u64,
    txn: &WriteTxn,
    ctx: Option<TraceContext>,
) -> Vec<u8> {
    // The txn is a nested jute buffer: its length, then its fields written
    // straight into this archive.
    let txn_len = txn.encoded_len();
    let mut out = OutputArchive::with_capacity(36 + txn_len);
    out.write_i32(origin.0 as i32);
    out.write_i64(request_id as i64);
    out.write_i32(txn_len as i32);
    txn.serialize(&mut out);
    let ctx = ctx.unwrap_or(TraceContext { trace_id: 0, span_id: 0, flags: 0 });
    out.write_i64(ctx.trace_id as i64);
    out.write_i64(ctx.span_id as i64);
    out.write_i32(i32::from(ctx.flags));
    out.into_bytes()
}

fn decode_payload(bytes: &[u8]) -> Result<(NodeId, u64, WriteTxn, Option<TraceContext>), ZkError> {
    let mut input = InputArchive::new(bytes);
    let origin = NodeId(input.read_i32("payload origin")? as u32);
    let request_id = input.read_i64("payload request id")? as u64;
    let txn_bytes = input.read_buffer("payload txn")?;
    // The trace fields were appended in a later format revision; a payload
    // recovered from an older WAL simply ends after the txn.
    let ctx = if input.is_exhausted() {
        None
    } else {
        let trace_id = input.read_i64("payload trace id")? as u64;
        let span_id = input.read_i64("payload span id")? as u64;
        let flags = input.read_i32("payload trace flags")? as u8;
        input.expect_exhausted()?;
        (trace_id != 0).then_some(TraceContext { trace_id, span_id, flags })
    };
    let txn = WriteTxn::from_bytes(&txn_bytes)?;
    Ok((origin, request_id, txn, ctx))
}

/// The trace context a replicated payload carries, if any — what a leader
/// receiving a forwarded write (or a follower receiving a proposal) makes
/// ambient so the layers below attribute their spans.
fn payload_trace_ctx(bytes: &[u8]) -> Option<TraceContext> {
    decode_payload(bytes).ok().and_then(|(_, _, _, ctx)| ctx)
}

/// This node's own candidacy in progress: the epoch it is contesting and
/// the grants collected so far (its own self-grant included), each with the
/// granter's announced log tip so the new leader knows what to ship.
struct ElectionState {
    epoch: u32,
    deadline: Instant,
    votes: HashMap<NodeId, Zxid>,
}

/// A leader-shipped snapshot being reassembled from chunks.
struct SnapshotAssembly {
    from: NodeId,
    epoch: u32,
    zxid: Zxid,
    next_seq: u32,
    bytes: Vec<u8>,
}

/// Outgoing frames buffered during one write-queue drain so the WAL can be
/// fsynced *once* before any acknowledgement (or commit) leaves the node —
/// the group-commit ordering a durable log requires.
#[derive(Default)]
struct SendBuffer {
    queued: Mutex<Vec<(NodeId, Option<NodeId>, ZabMessage)>>,
}

impl SendBuffer {
    fn flush(&self, net: &dyn ZabTransport) {
        for (from, to, message) in self.queued.lock().drain(..) {
            match to {
                Some(to) => net.send(from, to, message),
                None => net.broadcast(from, &message),
            }
        }
    }
}

impl ZabTransport for SendBuffer {
    fn send(&self, from: NodeId, to: NodeId, message: ZabMessage) {
        self.queued.lock().push((from, Some(to), message));
    }

    fn broadcast(&self, from: NodeId, message: &ZabMessage) {
        self.queued.lock().push((from, None, message.clone()));
    }

    fn receive(&self, _node: NodeId) -> Option<Envelope> {
        None
    }
}

/// Counters of the resynchronization machinery, exposed for tests and the
/// recovery benchmark: how a leader brought lagging peers up to date, and
/// what this member itself recovered or installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Snapshots this member shipped to lagging peers (leader side).
    pub snapshots_shipped: u64,
    /// Transactions this member shipped in sync frames (leader side).
    pub sync_txns_shipped: u64,
    /// Leader-shipped snapshots this member installed (follower side).
    pub snapshots_installed: u64,
    /// Transactions replayed from the local durable log at boot.
    pub recovered_txns: u64,
    /// zxid of the on-disk snapshot recovery started from (0 = none).
    pub recovered_snapshot_zxid: u64,
}

/// Protocol state owned by the driver thread (and briefly by writer threads
/// submitting proposals). Lock order: this mutex before the replica's tree
/// lock, never the reverse.
struct ProtocolState {
    node: ZabNode,
    last_leader_contact: Instant,
    last_heartbeat_sent: Instant,
    election: Option<ElectionState>,
    /// Highest election epoch this node has seen contested (own candidacies
    /// and refused ones alike); fresh candidacies always move past it.
    last_vote_epoch: u32,
    /// The single vote this node granted, per epoch: granting again in the
    /// same epoch is only allowed to the same candidate (duplicate frames).
    /// Persisted on durable members so a restart cannot double-vote.
    last_grant: Option<(u32, NodeId)>,
    /// A leader-shipped snapshot in transit (chunks arriving in order).
    pending_snapshot: Option<SnapshotAssembly>,
}

/// Shared core of one ensemble member.
pub struct EnsembleCore {
    id: NodeId,
    cluster_size: usize,
    replica: Arc<ZkReplica>,
    transport: Arc<dyn PeerTransport>,
    state: Mutex<ProtocolState>,
    waiters: Mutex<HashMap<u64, Sender<(Response, i64)>>>,
    next_request_id: AtomicU64,
    running: AtomicBool,
    config: EnsembleConfig,
    /// Durable log + snapshot store; `None` runs the member in-memory only
    /// (the pre-persistence behaviour, still used by most unit tests).
    persistence: Option<ReplicaPersistence>,
    metrics: Arc<ServerMetrics>,
    probes: Arc<ProbeState>,
    /// Set for the remainder of the member's life once a graceful drain
    /// begins: new writes are refused (frozen log tip = clean handoff) and
    /// the readiness probe reports unready.
    draining: AtomicBool,
    snapshots_shipped: AtomicU64,
    sync_txns_shipped: AtomicU64,
    snapshots_installed: AtomicU64,
    recovered_txns: AtomicU64,
    recovered_snapshot_zxid: AtomicU64,
}

impl EnsembleCore {
    /// Routes one incoming peer message. Frames the node sends in response
    /// go through `net` — the driver passes a [`SendBuffer`] so a whole
    /// drain's worth of appends hits the disk with one fsync *before* any
    /// acknowledgement leaves this member.
    fn dispatch(&self, envelope: Envelope, net: &dyn ZabTransport) {
        let mut state = self.state.lock();
        let epoch_before = state.node.epoch();
        let from = envelope.from;
        match envelope.message {
            ZabMessage::Heartbeat { epoch } => self.on_heartbeat(&mut state, epoch, from, net),
            ZabMessage::Election { epoch, last_logged, from: candidate } => {
                self.on_election(&mut state, epoch, last_logged, candidate, net);
            }
            ZabMessage::VoteGrant { epoch, from: voter, last_logged } => {
                self.on_vote_grant(&mut state, epoch, voter, last_logged, net);
            }
            ZabMessage::SnapshotChunk { epoch, snapshot_zxid, seq, last, bytes } => {
                self.on_snapshot_chunk(&mut state, from, epoch, snapshot_zxid, seq, last, bytes);
            }
            ZabMessage::SyncRequest { from: requester, last_logged } => {
                // Handled here rather than in the node so a request from
                // below the log's truncation horizon can be answered with a
                // shipped snapshot (the node cannot produce one).
                if state.node.role() == Role::Leader {
                    self.ship_state(&state, requester, last_logged, net);
                }
            }
            ZabMessage::NewLeaderSync { epoch, txns } => {
                state.node.handle(
                    Envelope { from, message: ZabMessage::NewLeaderSync { epoch, txns } },
                    net,
                );
                if state.node.leader() == Some(from) {
                    state.election = None;
                    state.last_leader_contact = Instant::now();
                }
                self.apply_committed(&mut state);
            }
            ZabMessage::TransferLeadership { epoch } => {
                // A draining leader shipped this member its committed suffix
                // and asks it to take over without waiting out the failure
                // detector. The drain loop re-sends this until leadership
                // moves, so a lost frame only delays the handoff; a re-send
                // that lands mid-candidacy is ignored rather than allowed to
                // restart the round and void the votes already collected.
                if state.node.role() != Role::Leader
                    && !self.draining.load(Ordering::SeqCst)
                    && state.election.is_none()
                {
                    let next = state.last_vote_epoch.max(state.node.epoch()).max(epoch) + 1;
                    self.start_candidacy(&mut state, next);
                }
            }
            message => {
                if state.node.leader() == Some(from) {
                    state.last_leader_contact = Instant::now();
                }
                if matches!(&message, ZabMessage::ForwardWrite { .. })
                    && state.node.role() == Role::Leader
                {
                    if self.draining.load(Ordering::SeqCst) {
                        // A draining leader's log tip is frozen; the frame is
                        // dropped, and the origin's waiter fails over to the
                        // successor on the epoch bump it is about to see.
                        return;
                    }
                    self.metrics.zab_proposals.inc();
                }
                // Forwarded writes and proposals carry the originating trace
                // context in their payload; making it ambient (sticky until
                // the driver's post-drain fsync) lets the propose ring span
                // and the group-commit fsync attribute themselves to it.
                let payload_ctx = match &message {
                    ZabMessage::ForwardWrite { payload, .. } => payload_trace_ctx(payload),
                    ZabMessage::Proposal { txn, .. } => payload_trace_ctx(&txn.payload),
                    _ => None,
                };
                if payload_ctx.is_some() {
                    trace::set_current(payload_ctx);
                }
                state.node.handle(Envelope { from, message }, net);
                self.apply_committed(&mut state);
            }
        }
        if state.node.epoch() > epoch_before {
            // Leadership changed under this replica's feet: writes routed to
            // the old leader may be gone for good. Fail the survivors (the
            // ones the sync just committed were already answered above) so
            // clients retry against the new regime immediately instead of
            // sitting out the full write timeout.
            self.fail_all_waiters();
        }
    }

    /// Brings `peer` (whose log tip is `since`) up to date. When the peer is
    /// still within this leader's log, that is the classic committed-suffix
    /// sync; when it has fallen behind the truncation horizon, the log can
    /// no longer replay the gap and the serialized tree itself is shipped in
    /// chunks, followed by the suffix after the snapshot. Either way the
    /// uncommitted in-flight tail is retransmitted as ordinary proposals so
    /// a gapped follower can still ack writes short of their quorum.
    fn ship_state(&self, state: &ProtocolState, peer: NodeId, since: Zxid, net: &dyn ZabTransport) {
        let epoch = state.node.epoch();
        let log = state.node.log();
        let sync_from = if since < log.horizon() {
            let (snap_zxid_raw, bytes) = persist::snapshot_replica(&self.replica);
            let snapshot_zxid = Zxid::from_u64(snap_zxid_raw as u64);
            let chunks: Vec<&[u8]> = if bytes.is_empty() {
                vec![&[][..]]
            } else {
                bytes.chunks(SNAPSHOT_CHUNK_BYTES).collect()
            };
            let chunk_count = chunks.len();
            for (seq, chunk) in chunks.into_iter().enumerate() {
                net.send(
                    self.id,
                    peer,
                    ZabMessage::SnapshotChunk {
                        epoch,
                        snapshot_zxid,
                        seq: seq as u32,
                        last: seq + 1 == chunk_count,
                        bytes: chunk.to_vec(),
                    },
                );
            }
            self.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
            self.metrics.zab_snapshots_shipped.inc();
            snapshot_zxid
        } else {
            since
        };
        let txns = log.committed_after(sync_from);
        self.sync_txns_shipped.fetch_add(txns.len() as u64, Ordering::Relaxed);
        self.metrics.zab_sync_txns_shipped.add(txns.len() as u64);
        zab::send_sync(net, self.id, peer, epoch, txns);
        let mut prev = log.last_committed();
        for txn in log.entries_after(prev) {
            let next = txn.zxid;
            net.send(self.id, peer, ZabMessage::Proposal { txn, prev });
            prev = next;
        }
    }

    /// Reassembles a leader-shipped snapshot and installs it: the replica's
    /// tree, zxid watermark and session table are replaced wholesale, the
    /// protocol log resets to the snapshot zxid (which also resets the
    /// durable log), and the local snapshot store records the shipment so a
    /// crash right after still recovers to this state.
    #[allow(clippy::too_many_arguments)]
    fn on_snapshot_chunk(
        &self,
        state: &mut ProtocolState,
        from: NodeId,
        epoch: u32,
        snapshot_zxid: Zxid,
        seq: u32,
        last: bool,
        bytes: Vec<u8>,
    ) {
        if epoch < state.node.epoch() {
            return;
        }
        if seq == 0 {
            state.pending_snapshot = Some(SnapshotAssembly {
                from,
                epoch,
                zxid: snapshot_zxid,
                next_seq: 0,
                bytes: Vec::new(),
            });
        }
        let Some(assembly) = &mut state.pending_snapshot else { return };
        if assembly.from != from
            || assembly.epoch != epoch
            || assembly.zxid != snapshot_zxid
            || assembly.next_seq != seq
        {
            // Interleaved or reordered shipment: drop it, the leader will
            // retry on the next sync request.
            state.pending_snapshot = None;
            return;
        }
        assembly.bytes.extend_from_slice(&bytes);
        assembly.next_seq = seq + 1;
        if !last {
            return;
        }
        let assembly = state.pending_snapshot.take().expect("assembly checked above");
        match persist::decode_snapshot(&assembly.bytes) {
            Ok((tree, sessions)) => {
                if let Some(persistence) = &self.persistence {
                    let _ =
                        persistence.adopt_shipped_snapshot(assembly.zxid.as_u64(), &assembly.bytes);
                }
                self.replica.install_snapshot(tree, assembly.zxid.as_u64() as i64, &sessions);
                state.node.install_snapshot(epoch, from, assembly.zxid);
                state.election = None;
                state.last_leader_contact = Instant::now();
                self.snapshots_installed.fetch_add(1, Ordering::Relaxed);
                self.metrics.zab_snapshots_installed.inc();
            }
            Err(_) => {
                // A corrupt shipment is dropped; this member keeps asking
                // for a resync and the leader ships a fresh snapshot.
            }
        }
    }

    /// Snapshots the replica and truncates the logs behind it once the
    /// configured number of transactions has been applied since the last
    /// snapshot — this is what bounds the disk log and keeps crash-rejoin
    /// cheap. (The in-memory log is bounded by [`LOG_RETAINED_BYTES`].)
    fn maybe_snapshot(&self, state: &mut ProtocolState, applied: u64) {
        let Some(persistence) = &self.persistence else { return };
        if !persistence.note_applied(applied) {
            return;
        }
        if let Ok(snap_zxid) = persistence.snapshot_now(&self.replica) {
            state.node.compact_log_through(snap_zxid);
        }
    }

    fn on_heartbeat(
        &self,
        state: &mut ProtocolState,
        epoch: u32,
        from: NodeId,
        net: &dyn ZabTransport,
    ) {
        let node_epoch = state.node.epoch();
        if epoch < node_epoch {
            return;
        }
        let adopt = match state.node.role() {
            // A leader steps down for a higher epoch, and resolves the
            // (transient, same-epoch) two-leader race deterministically in
            // favour of the higher id.
            Role::Leader => epoch > node_epoch || (epoch == node_epoch && from > self.id),
            // A follower adopts a newer epoch or a changed leader; an
            // electing node rejoins a leader that proves alive — unless its
            // own candidacy targets a higher epoch than the heartbeat
            // carries. A candidate that adopted here would let the outgoing
            // leader's routine heartbeats kill the very candidacy it asked
            // for (the leadership-transfer race); if the candidacy fails its
            // vote window instead, the next heartbeat rejoins as before.
            Role::Follower | Role::Electing => {
                (epoch > node_epoch || state.node.leader() != Some(from))
                    && state.election.as_ref().is_none_or(|election| election.epoch <= epoch)
            }
        };
        if adopt {
            state.node.become_follower(epoch, from);
            state.election = None;
            // Adoption means this member just (re)joined a running regime —
            // typically a restart from disk. Announce the local log tip so
            // the leader ships the missed suffix (or a snapshot when the
            // tip fell behind its truncation horizon) without waiting for
            // the next write to expose the gap.
            net.send(
                self.id,
                from,
                ZabMessage::SyncRequest {
                    from: self.id,
                    last_logged: state.node.log().last_logged(),
                },
            );
        }
        if state.node.leader() == Some(from) {
            state.last_leader_contact = Instant::now();
        }
    }

    /// Handles another member's candidacy announcement: grant the epoch's
    /// single vote if it is still available and the candidate's log is at
    /// least as advanced as this node's, refuse silently otherwise.
    fn on_election(
        &self,
        state: &mut ProtocolState,
        epoch: u32,
        last_logged: Zxid,
        from: NodeId,
        net: &dyn ZabTransport,
    ) {
        if epoch <= state.node.epoch() {
            // Stale candidacy: if this node leads a newer (or the same)
            // epoch, re-assert so the candidate rejoins — with the committed
            // entries past its announced tip, or a shipped snapshot when the
            // tip is below the truncation horizon.
            if state.node.role() == Role::Leader {
                self.ship_state(state, from, last_logged, net);
            }
            return;
        }
        state.last_vote_epoch = state.last_vote_epoch.max(epoch);
        let own_tip = state.node.log().last_logged();
        let vote_free =
            state.last_grant.is_none_or(|(e, c)| epoch > e || (epoch == e && c == from));
        if !vote_free || last_logged < own_tip {
            // Refused — already granted this epoch to someone else, or the
            // candidate's log is behind. Crucially this node does *not*
            // counter-announce at the contested epoch (that livelocks two
            // refusing candidates); bumping `last_vote_epoch` above already
            // points its next timeout-driven candidacy past this round.
            return;
        }
        // Make the vote durable *before* it can leave this node, so a
        // crash-restart cannot grant the same epoch to a second candidate.
        self.record_grant(epoch, from);
        state.last_grant = Some((epoch, from));
        // Granting abandons any own candidacy at this or a lower epoch and
        // buys the candidate a fresh timeout to win and announce itself.
        if state.election.as_ref().is_some_and(|e| e.epoch <= epoch) {
            state.election = None;
        }
        state.last_leader_contact = Instant::now();
        net.send(
            self.id,
            from,
            ZabMessage::VoteGrant { epoch, from: self.id, last_logged: own_tip },
        );
    }

    /// Counts a grant for this node's own candidacy; on quorum the node
    /// promotes itself and synchronizes every peer.
    fn on_vote_grant(
        &self,
        state: &mut ProtocolState,
        epoch: u32,
        voter: NodeId,
        voter_tip: Zxid,
        net: &dyn ZabTransport,
    ) {
        {
            let Some(election) = &mut state.election else { return };
            if election.epoch != epoch {
                return;
            }
            election.votes.insert(voter, voter_tip);
            if election.votes.len() < self.cluster_size / 2 + 1 {
                return;
            }
        }
        let election = state.election.take().expect("candidacy checked above");
        state.node.become_leader(election.epoch);
        self.metrics.zab_elections_won.inc();
        for peer in self.transport.peer_ids() {
            // Ship only what each granter is missing, judged by the log tip
            // it announced with its grant. A granter whose tip contained
            // uncommitted entries truncates them on adoption and re-fetches
            // the difference through a `SyncRequest`.
            match election.votes.get(&peer) {
                Some(&since) => self.ship_state(state, peer, since, net),
                None => {
                    // A peer that granted nobody (or granted a rival) has an
                    // unknown tip — guessing zero would ship the full
                    // history (or, after compaction, a whole destructive
                    // snapshot) to a member that may be fully current. Send
                    // the bare leadership announcement instead; adopting it
                    // makes the peer reply with its real tip, and the
                    // follow-up sync ships exactly what it misses.
                    zab::send_sync(net, self.id, peer, election.epoch, Vec::new());
                }
            }
        }
        state.last_heartbeat_sent = Instant::now();
        net.broadcast(self.id, &ZabMessage::Heartbeat { epoch: election.epoch });
        // Promotion committed everything logged on this node.
        self.apply_committed(state);
    }

    /// Starts this node's candidacy for `epoch`: self-grant (made durable
    /// first), open the vote window, announce the log credential to all.
    fn start_candidacy(&self, state: &mut ProtocolState, epoch: u32) {
        state.node.start_election();
        self.metrics.zab_elections_started.inc();
        state.last_vote_epoch = state.last_vote_epoch.max(epoch);
        let credential = state.node.log().last_logged();
        self.record_grant(epoch, self.id);
        state.last_grant = Some((epoch, self.id));
        let mut votes = HashMap::new();
        votes.insert(self.id, credential);
        state.election = Some(ElectionState {
            epoch,
            deadline: Instant::now() + self.config.election_vote_window,
            votes,
        });
        self.transport.broadcast(
            self.id,
            &ZabMessage::Election { epoch, last_logged: credential, from: self.id },
        );
    }

    /// Persists a granted vote on durable members (a no-op in-memory). Runs
    /// before the grant/candidacy leaves the node, so a restart recovers it.
    fn record_grant(&self, epoch: u32, candidate: NodeId) {
        if let Some(persistence) = &self.persistence {
            let _ = persistence.record_grant(epoch, candidate);
        }
    }

    /// This member's effective leader-silence timeout: the configured base
    /// plus a deterministic per-id stagger, so members time out at distinct
    /// instants and one candidate usually collects its grants before a
    /// rival even starts (concurrent candidacies still converge, just
    /// slower — each refused round bumps the epoch).
    fn election_timeout(&self) -> Duration {
        self.config.election_timeout + (self.config.election_timeout / 8) * self.id.0.min(8)
    }

    /// Emits heartbeats (leader) or checks the failure detector and election
    /// deadlines (everyone else).
    fn run_timers(&self) {
        let mut state = self.state.lock();
        let epoch_before = state.node.epoch();
        let now = Instant::now();
        match state.node.role() {
            Role::Leader => {
                if now.duration_since(state.last_heartbeat_sent) >= self.config.heartbeat_interval {
                    state.last_heartbeat_sent = now;
                    let epoch = state.node.epoch();
                    self.transport.broadcast(self.id, &ZabMessage::Heartbeat { epoch });
                }
            }
            Role::Follower | Role::Electing => {
                if let Some(election) = &state.election {
                    if now >= election.deadline {
                        // The vote window closed short of a quorum of grants
                        // (rival candidacy, partition, or dead peers):
                        // abandon the round and let the timeout drive a
                        // fresh candidacy at a higher epoch.
                        state.election = None;
                        state.last_leader_contact = now;
                    }
                } else if self.cluster_size > 1
                    && now.duration_since(state.last_leader_contact) >= self.election_timeout()
                {
                    let epoch = state.last_vote_epoch.max(state.node.epoch()) + 1;
                    self.start_candidacy(&mut state, epoch);
                }
            }
        }
        if state.node.epoch() > epoch_before {
            // This node just won an election: writes forwarded to the dead
            // leader are lost; fail them so their clients retry here.
            self.fail_all_waiters();
        }
        self.refresh_health(&state, now);
    }

    /// Refreshes the epoch/role/log gauges and the readiness probe from the
    /// protocol state. Runs on every driver tick, so a probe or scrape is
    /// never more than one poll interval stale.
    fn refresh_health(&self, state: &ProtocolState, now: Instant) {
        self.metrics.zab_epoch.set(i64::from(state.node.epoch()));
        let log = state.node.log();
        self.metrics.zab_log_entries.set(log.len() as i64);
        self.metrics.zab_log_retained_bytes.set(log.committed_bytes() as i64);
        let role = state.node.role();
        self.metrics.zab_role.set(match role {
            Role::Electing => 0,
            Role::Follower => 1,
            Role::Leader => 2,
        });
        if self.draining.load(Ordering::SeqCst) {
            self.probes.set_ready(false, "draining");
            return;
        }
        match role {
            Role::Leader => self.probes.set_ready(true, "leading"),
            Role::Follower => {
                if self.cluster_size == 1
                    || now.duration_since(state.last_leader_contact) < self.election_timeout()
                {
                    self.probes.set_ready(true, "following");
                } else {
                    self.probes.set_ready(false, "no recent leader contact");
                }
            }
            Role::Electing => self.probes.set_ready(false, "electing"),
        }
    }

    /// Applies newly committed transactions to the local replica in zxid
    /// order and answers the waiting client requests that originated here,
    /// then trims the in-memory log to [`LOG_RETAINED_BYTES`]. On durable
    /// members, once enough transactions accumulate since the last
    /// snapshot, the replica state is snapshotted and the logs truncate
    /// behind it.
    fn apply_committed(&self, state: &mut ProtocolState) {
        let committed = state.node.take_committed();
        let applied = committed.len() as u64;
        for txn in committed {
            let zxid = txn.zxid.as_u64() as i64;
            match decode_payload(&txn.payload) {
                Ok((origin, request_id, write, ctx)) => {
                    let apply_start = trace::now_ns();
                    let response = self.replica.apply_txn(zxid, &write);
                    self.metrics
                        .stages
                        .observe_ns(Stage::Apply, trace::now_ns().saturating_sub(apply_start));
                    if let Some(ctx) = &ctx {
                        trace::record_leaf(Stage::Apply, ctx, apply_start, zxid as u64);
                    }
                    if origin == self.id {
                        self.complete(request_id, response, zxid);
                    }
                }
                Err(_) => {
                    // A malformed payload would mean a bug in a peer's
                    // encoder; skipping it keeps the apply loop alive (and
                    // every replica skips the same txn, so no divergence).
                }
            }
        }
        if applied > 0 {
            self.metrics.zab_commits.add(applied);
            // Everything committed is applied by now, so the live tree
            // covers every entry this drops.
            state.node.compact_log_to_bytes(LOG_RETAINED_BYTES);
            self.maybe_snapshot(state, applied);
        }
    }

    /// Group-commit barrier: one fsync for everything the durable log
    /// buffered since the last one. A no-op for in-memory members.
    fn sync_persistence(&self) {
        if let Some(persistence) = &self.persistence {
            let fsync_start = trace::now_ns();
            persistence.sync();
            self.metrics
                .stages
                .observe_ns(Stage::WalFsync, trace::now_ns().saturating_sub(fsync_start));
        }
    }

    /// Current resynchronization/recovery counters.
    fn sync_stats(&self) -> SyncStats {
        SyncStats {
            snapshots_shipped: self.snapshots_shipped.load(Ordering::Relaxed),
            sync_txns_shipped: self.sync_txns_shipped.load(Ordering::Relaxed),
            snapshots_installed: self.snapshots_installed.load(Ordering::Relaxed),
            recovered_txns: self.recovered_txns.load(Ordering::Relaxed),
            recovered_snapshot_zxid: self.recovered_snapshot_zxid.load(Ordering::Relaxed),
        }
    }

    fn complete(&self, request_id: u64, response: Response, zxid: i64) {
        if let Some(waiter) = self.waiters.lock().remove(&request_id) {
            let _ = waiter.send((response, zxid));
        }
    }

    /// Fails every in-flight write (used on shutdown so client threads do
    /// not sit out the full write timeout).
    fn fail_all_waiters(&self) {
        for (_, waiter) in self.waiters.lock().drain() {
            let _ =
                waiter.send((Response::Error(ErrorCode::ConnectionLoss), self.replica.last_zxid()));
        }
    }

    /// Orders one write through agreement and waits for its local commit.
    fn submit_replicated(&self, session_id: i64, request: &Request) -> (Response, i64) {
        let request_bytes = ZkReplica::serialize_request(0, request);
        let write = WriteTxn { session_id, time_ms: self.replica.now_ms(), request_bytes };
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        // The ambient context was set by the writer thread from the wire
        // envelope; riding it inside the payload carries it to every replica.
        let ctx = trace::current();
        let quorum_start = trace::now_ns();
        let payload = encode_payload(self.id, request_id, &write, ctx);

        let (waiter_tx, waiter_rx) = mpsc::channel();
        self.waiters.lock().insert(request_id, waiter_tx);

        // Route under the protocol lock, but perform the (possibly dialling,
        // hence blocking) forward send *outside* it so a dead leader's
        // connect timeout never stalls the driver thread behind this lock.
        let forward = {
            let mut state = self.state.lock();
            if self.draining.load(Ordering::SeqCst) && state.node.role() == Role::Leader {
                // A draining leader's log tip must stay frozen so the chosen
                // successor (which was shipped that exact tip) wins its
                // election on the first try. Refuse the write; the client
                // reconnects and retries against the new leader.
                self.waiters.lock().remove(&request_id);
                return (Response::Error(ErrorCode::ConnectionLoss), self.replica.last_zxid());
            }
            match state.node.role() {
                Role::Leader => {
                    // Buffer the proposal frames, make the leader's own log
                    // entry durable, then let the frames out — the leader's
                    // implicit self-ack must never precede its fsync.
                    self.metrics.zab_proposals.inc();
                    let buffer = SendBuffer::default();
                    let propose_start = trace::now_ns();
                    state.node.propose(payload, &buffer);
                    self.metrics
                        .stages
                        .observe_ns(Stage::Propose, trace::now_ns().saturating_sub(propose_start));
                    self.sync_persistence();
                    buffer.flush(self.transport.as_ref());
                    // A single-replica ensemble commits immediately.
                    self.apply_committed(&mut state);
                    None
                }
                Role::Follower | Role::Electing => match state.node.leader() {
                    Some(leader) if leader != self.id => Some((leader, payload)),
                    _ => {
                        self.waiters.lock().remove(&request_id);
                        return (
                            Response::Error(ZkError::NoQuorum.code()),
                            self.replica.last_zxid(),
                        );
                    }
                },
            }
        };
        if let Some((leader, payload)) = forward {
            self.metrics.zab_forwards.inc();
            self.transport.send(
                self.id,
                leader,
                ZabMessage::ForwardWrite { origin: self.id, request_id, payload },
            );
        }
        match waiter_rx.recv_timeout(self.config.write_timeout) {
            Ok((response, zxid)) => {
                // From the origin's seat this is the whole agreement round:
                // propose (or forward), quorum ack, local commit and apply.
                self.metrics
                    .stages
                    .observe_ns(Stage::QuorumAck, trace::now_ns().saturating_sub(quorum_start));
                trace::record_current(Stage::QuorumAck, quorum_start, zxid as u64);
                (response, zxid)
            }
            Err(_) => {
                // The commit never reached this replica (leader crash or
                // quorum loss mid-flight): surface a connection-level error
                // so the client reconnects and retries.
                self.waiters.lock().remove(&request_id);
                (Response::Error(ErrorCode::ConnectionLoss), self.replica.last_zxid())
            }
        }
    }

    /// Deletes a session's ephemerals through agreement, then removes the
    /// session locally. On quorum loss the session survives and the cleanup
    /// is retried by the next expiry sweep.
    fn replicated_close_session(&self, replica: &Arc<ZkReplica>, session_id: i64) -> Response {
        let ephemerals = replica.tree().ephemerals_of(session_id);
        for path in ephemerals {
            let delete = Request::Delete(DeleteRequest { path, version: -1 });
            let (response, _) = self.submit_replicated(session_id, &delete);
            match response.error_code() {
                // The znode may already be gone (deleted explicitly between
                // the snapshot above and the commit) — that is fine.
                ErrorCode::Ok | ErrorCode::NoNode => {}
                code => return Response::Error(code),
            }
        }
        replica.remove_session_local(session_id);
        Response::CloseSession
    }

    /// Gracefully takes this member out of service: readiness flips to
    /// unready, new writes are refused, and — if this member leads — its
    /// committed state is shipped to the lowest-id peer, which is then asked
    /// (via [`ZabMessage::TransferLeadership`]) to start an immediate
    /// candidacy instead of waiting out the failure detector. The call
    /// returns once leadership has left this member (or `timeout` expires)
    /// and the durable log is flushed; reads keep being served until the
    /// process actually shuts down.
    fn drain(&self, timeout: Duration) -> DrainReport {
        let started = Instant::now();
        self.draining.store(true, Ordering::SeqCst);
        self.metrics.draining.set(1);
        self.probes.set_ready(false, "draining");
        let (was_leader, successor) = {
            let state = self.state.lock();
            if state.node.role() == Role::Leader && self.cluster_size > 1 {
                // Lowest-id live peer; with no liveness oracle beyond the
                // protocol itself, "lowest id" is the deterministic pick and
                // a dead pick degrades to the ordinary timeout election.
                (true, self.transport.peer_ids().into_iter().min())
            } else {
                (state.node.role() == Role::Leader, None)
            }
        };
        if let Some(peer) = successor {
            {
                let state = self.state.lock();
                // Ship everything past the truncation horizon: idempotent on
                // the receiver, and guarantees its log credential reaches
                // this (now frozen) tip so its candidacy wins on both counts.
                self.ship_state(&state, peer, state.node.log().horizon(), self.transport.as_ref());
            }
            // Nudge the successor until leadership actually moves: the first
            // transfer frame can be lost, or its candidacy can lose a race
            // and dissolve — the successor ignores re-sends while a round is
            // still in flight, so nudging is cheap and cannot void votes.
            let mut last_nudge: Option<Instant> = None;
            while self.state.lock().node.role() == Role::Leader
                && started.elapsed() < timeout
                && self.running.load(Ordering::SeqCst)
            {
                if last_nudge.is_none_or(|at| at.elapsed() >= DRAIN_NUDGE_INTERVAL) {
                    last_nudge = Some(Instant::now());
                    let epoch = self.state.lock().node.epoch();
                    self.transport.send(self.id, peer, ZabMessage::TransferLeadership { epoch });
                }
                std::thread::sleep(self.config.poll_interval);
            }
        }
        // Flush the commit watermark and any buffered appends so a restart
        // of this member recovers to exactly the state it drained at.
        self.sync_persistence();
        let still_leader = self.state.lock().node.role() == Role::Leader;
        DrainReport {
            was_leader,
            successor,
            handed_off: was_leader && !still_leader,
            elapsed: started.elapsed(),
        }
    }
}

/// Outcome of a graceful drain ([`ZkEnsembleServer::drain`]).
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Whether this member led the ensemble when the drain began.
    pub was_leader: bool,
    /// The peer chosen to take over leadership, if a handoff was attempted.
    pub successor: Option<NodeId>,
    /// Whether leadership actually left this member within the timeout.
    pub handed_off: bool,
    /// Wall time the drain took (state shipping included).
    pub elapsed: Duration,
}

impl WriteHandler for EnsembleCore {
    fn execute_write(
        &self,
        replica: &Arc<ZkReplica>,
        session_id: i64,
        request: &Request,
    ) -> (Response, i64) {
        if !replica.has_session(session_id) {
            let code = ZkError::SessionExpired { session_id }.code();
            return (Response::Error(code), replica.last_zxid());
        }
        replica.touch_session(session_id);
        if *request == Request::CloseSession {
            let response = self.replicated_close_session(replica, session_id);
            return (response, replica.last_zxid());
        }
        self.submit_replicated(session_id, request)
    }

    fn admin_info(&self) -> AdminInfo {
        let (role, epoch, leader) = {
            let state = self.state.lock();
            let role = match state.node.role() {
                Role::Leader => "leader",
                Role::Follower => "follower",
                Role::Electing => "electing",
            };
            (role, state.node.epoch(), state.node.leader().map(|n| n.0))
        };
        AdminInfo {
            role: role.to_string(),
            epoch,
            leader,
            ready: self.probes.is_ready(),
            draining: self.draining.load(Ordering::SeqCst),
            data_dirs: self.persistence.as_ref().map(ReplicaPersistence::dir_sizes),
        }
    }

    fn tick(&self, replica: &Arc<ZkReplica>) -> Vec<i64> {
        // Expiry must not delete ephemerals locally (that would fork the
        // replicated tree); replicate the cleanup, then drop the session.
        // The first failed cleanup (quorum loss, leader gone) aborts the
        // sweep: blocking the ticker for a write timeout per session would
        // freeze watch fan-out, and a session whose ephemerals survived
        // must keep its connection until a later sweep finishes the job.
        let mut closed = Vec::new();
        for session_id in replica.peek_expired_sessions() {
            match self.replicated_close_session(replica, session_id) {
                Response::CloseSession => closed.push(session_id),
                _ => break,
            }
        }
        closed
    }
}

/// Drains the peer network and runs the protocol timers until shutdown.
///
/// Each drain processes every queued envelope against a [`SendBuffer`],
/// fsyncs the durable log **once** (group commit), and only then releases
/// the buffered frames — so no ack or commit ever leaves this member before
/// the write it acknowledges is on disk, and a drain of N writes costs one
/// fsync instead of N.
fn driver_loop(core: &Arc<EnsembleCore>) {
    while core.running.load(Ordering::SeqCst) {
        // The liveness probe answers "is the driver thread actually turning
        // over", not just "does the process accept TCP" — a wedged driver
        // lets the heartbeat age out and the probe go dark.
        core.probes.beat();
        if let Some(envelope) = core.transport.receive_timeout(core.config.poll_interval) {
            let buffer = SendBuffer::default();
            core.dispatch(envelope, &buffer);
            // Drain whatever queued up behind it before looking at timers.
            while let Some(envelope) = core.transport.receive(core.id) {
                core.dispatch(envelope, &buffer);
            }
            core.sync_persistence();
            buffer.flush(core.transport.as_ref());
            // The dispatches above may have made a payload's trace context
            // ambient (sticky through the group-commit fsync); drop it so
            // timer work is not attributed to a request.
            trace::set_current(None);
        }
        core.run_timers();
    }
}

/// One member of a networked replicated ensemble: client-facing TCP server,
/// peer transport, and the protocol driver. Dropping it stops everything —
/// which doubles as crash injection in the failover tests.
pub struct ZkEnsembleServer {
    core: Arc<EnsembleCore>,
    server: Option<ZkTcpServer>,
    ops: Option<OpsServer>,
    driver: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ZkEnsembleServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkEnsembleServer")
            .field("id", &self.core.id)
            .field("role", &self.role())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl ZkEnsembleServer {
    /// Starts an ensemble member: binds the peer endpoint at
    /// `peer_addrs[id]`, the client listener at `client_addr`, and joins the
    /// ensemble described by `peer_addrs` (which must be identical on every
    /// member). The member with the lowest id leads epoch 1 until the first
    /// failure.
    ///
    /// # Errors
    ///
    /// Fails when `peer_addrs` has no entry for `id` or a listener cannot be
    /// bound.
    pub fn start(
        id: NodeId,
        peer_addrs: HashMap<NodeId, SocketAddr>,
        client_addr: impl ToSocketAddrs,
        replica: Arc<ZkReplica>,
        config: EnsembleConfig,
    ) -> io::Result<Self> {
        let own = *peer_addrs.get(&id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no peer address for {id}"))
        })?;
        let transport = TcpNetwork::bind(id, own)?;
        Self::start_with_transport(transport, peer_addrs, client_addr, replica, config)
    }

    /// Starts an ensemble member on an arbitrary [`PeerTransport`]
    /// implementation — the entry point the chaos harness uses to splice a
    /// fault-injecting transport under an otherwise unmodified member.
    /// `persistence` switches the member between durable and in-memory
    /// operation exactly like [`start`](Self::start) vs
    /// [`start_persistent`](Self::start_persistent).
    ///
    /// # Errors
    ///
    /// Fails when the client listener cannot be bound.
    pub fn start_custom(
        transport: Arc<dyn PeerTransport>,
        peer_addrs: HashMap<NodeId, SocketAddr>,
        client_addr: impl ToSocketAddrs,
        replica: Arc<ZkReplica>,
        config: EnsembleConfig,
        persistence: Option<ReplicaPersistence>,
    ) -> io::Result<Self> {
        Self::start_inner(transport, peer_addrs, client_addr, replica, config, persistence)
    }

    /// Starts a *durable* ensemble member: state recovered from
    /// `persistence`'s data directory (newest valid snapshot + log suffix)
    /// before joining, every accepted proposal written ahead to disk. A
    /// member restarted this way rejoins with its local history — the
    /// leader only ships the suffix it missed, or a snapshot if the ensemble
    /// has truncated past its tip.
    ///
    /// # Errors
    ///
    /// Fails when `peer_addrs` has no entry for `id` or a listener cannot be
    /// bound.
    pub fn start_persistent(
        id: NodeId,
        peer_addrs: HashMap<NodeId, SocketAddr>,
        client_addr: impl ToSocketAddrs,
        replica: Arc<ZkReplica>,
        config: EnsembleConfig,
        persistence: ReplicaPersistence,
    ) -> io::Result<Self> {
        let own = *peer_addrs.get(&id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no peer address for {id}"))
        })?;
        let transport = TcpNetwork::bind(id, own)?;
        Self::start_inner(
            Arc::new(transport),
            peer_addrs,
            client_addr,
            replica,
            config,
            Some(persistence),
        )
    }

    /// Starts an ensemble member on an already bound peer endpoint (the
    /// local-ensemble helper binds every endpoint on an ephemeral port first
    /// and then exchanges the addresses).
    ///
    /// # Errors
    ///
    /// Fails when the client listener cannot be bound.
    pub fn start_with_transport(
        transport: TcpNetwork,
        peer_addrs: HashMap<NodeId, SocketAddr>,
        client_addr: impl ToSocketAddrs,
        replica: Arc<ZkReplica>,
        config: EnsembleConfig,
    ) -> io::Result<Self> {
        Self::start_inner(Arc::new(transport), peer_addrs, client_addr, replica, config, None)
    }

    /// Recovers durable state (when present) into `replica` and builds the
    /// protocol node: snapshot installed, committed log suffix replayed,
    /// uncommitted tail kept as logged-but-unapplied history.
    fn recover_node(
        id: NodeId,
        cluster_size: usize,
        replica: &ZkReplica,
        persistence: &ReplicaPersistence,
        stats: (&AtomicU64, &AtomicU64),
    ) -> ZabNode {
        let mut recovery = persistence.take_recovery();
        let mut horizon = Zxid::ZERO;
        if let Some((snap_zxid, bytes)) = &recovery.snapshot {
            if let Ok((tree, sessions)) = persist::decode_snapshot(bytes) {
                replica.install_snapshot(tree, *snap_zxid as i64, &sessions);
                horizon = Zxid::from_u64(*snap_zxid);
                stats.1.store(*snap_zxid, Ordering::Relaxed);
            }
        }
        // Only the WAL suffix that *chains* onto the snapshot is usable
        // local history. A gap means this boot fell back past the snapshot
        // the log was truncated against (a rotted newest snapshot): using
        // the disconnected suffix would replay writes onto a state missing
        // their predecessors and silently diverge. Claim only the chained
        // prefix; the leader re-ships the rest (or a snapshot).
        recovery.txns = persist::chained_suffix(recovery.txns, horizon);
        let committed = recovery.committed.max(horizon);
        let mut replayed = 0u64;
        for txn in recovery.txns.iter().filter(|t| t.zxid > horizon && t.zxid <= committed) {
            if let Ok((_, _, write, _)) = decode_payload(&txn.payload) {
                replica.apply_txn(txn.zxid.as_u64() as i64, &write);
                replayed += 1;
            }
        }
        stats.0.store(replayed, Ordering::Relaxed);
        let log = persistence.recovered_log(recovery, horizon);
        ZabNode::with_log(id, cluster_size, log)
    }

    fn start_inner(
        transport: Arc<dyn PeerTransport>,
        peer_addrs: HashMap<NodeId, SocketAddr>,
        client_addr: impl ToSocketAddrs,
        replica: Arc<ZkReplica>,
        config: EnsembleConfig,
        persistence: Option<ReplicaPersistence>,
    ) -> io::Result<Self> {
        let id = transport.id();
        let cluster_size = peer_addrs.len().max(1);
        let initial_leader = peer_addrs.keys().copied().min().unwrap_or(id);
        transport.set_peers(peer_addrs);

        let recovered_txns = AtomicU64::new(0);
        let recovered_snapshot_zxid = AtomicU64::new(0);
        let mut node = match &persistence {
            Some(persistence) => Self::recover_node(
                id,
                cluster_size,
                &replica,
                persistence,
                (&recovered_txns, &recovered_snapshot_zxid),
            ),
            None => ZabNode::new(id, cluster_size),
        };
        let recovered_epoch = node.log().last_logged().epoch.max(node.log().last_committed().epoch);
        // The durable single-vote record: without it a restarted member
        // could grant an epoch it already granted before the crash, and two
        // same-epoch leaders could each assemble a "quorum".
        let recovered_grant = persistence.as_ref().and_then(ReplicaPersistence::recovered_grant);
        let has_history = node.log().last_logged() > Zxid::ZERO;
        if persistence.is_some() && has_history {
            if cluster_size == 1 {
                // Standalone durability: a quorum of one — everything this
                // node logged is decided by definition; lead a fresh epoch
                // past the recovered history.
                node.become_leader(recovered_epoch + 1);
            } else {
                // Rejoining an ensemble that may have moved on: never assume
                // leadership from stale state (a recovered uncommitted tail
                // must not be committed unilaterally). Wait for the current
                // leader's heartbeat, or win a proper election on timeout —
                // the recovered log is the credential either way.
                node.start_election();
            }
        } else if id == initial_leader {
            node.become_leader(1);
        } else {
            node.become_follower(1, initial_leader);
        }
        let metrics = Arc::new(ServerMetrics::new());
        let probes = Arc::new(ProbeState::new());
        let now = Instant::now();
        let core = Arc::new(EnsembleCore {
            id,
            cluster_size,
            replica: Arc::clone(&replica),
            transport,
            state: Mutex::new(ProtocolState {
                node,
                last_leader_contact: now,
                last_heartbeat_sent: now,
                election: None,
                last_vote_epoch: recovered_epoch
                    .max(1)
                    .max(recovered_grant.map_or(0, |(epoch, _)| epoch)),
                last_grant: recovered_grant,
                pending_snapshot: None,
            }),
            waiters: Mutex::new(HashMap::new()),
            // Seeded from wall time so ids stay unique across process
            // restarts of the same member: the leader's forwarded-write
            // dedup window would otherwise confuse a rebooted member's
            // fresh ids with its pre-crash ones.
            next_request_id: AtomicU64::new(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(1, |since| since.as_nanos() as u64),
            ),
            running: AtomicBool::new(true),
            config: config.clone(),
            persistence,
            metrics: Arc::clone(&metrics),
            probes: Arc::clone(&probes),
            draining: AtomicBool::new(false),
            snapshots_shipped: AtomicU64::new(0),
            sync_txns_shipped: AtomicU64::new(0),
            snapshots_installed: AtomicU64::new(0),
            recovered_txns,
            recovered_snapshot_zxid,
        });

        // Bridge the persistence-owned WAL counters into the registry: a
        // collector refreshes the monotone mirrors right before each render,
        // without the hot fsync path ever touching a metric handle.
        {
            let weak = Arc::downgrade(&core);
            let fsyncs = metrics.wal_fsyncs.clone();
            let bytes = metrics.wal_bytes.clone();
            let snapshots = metrics.snapshots_taken.clone();
            metrics.registry().register_collector(move || {
                let Some(core) = weak.upgrade() else { return };
                let Some(persistence) = &core.persistence else { return };
                fsyncs.raise_to(persistence.wal_fsyncs());
                bytes.raise_to(persistence.wal_bytes());
                snapshots.raise_to(persistence.snapshots_taken());
            });
        }
        {
            let state = core.state.lock();
            core.refresh_health(&state, Instant::now());
        }
        let server = match ZkTcpServer::bind_with_metrics(
            client_addr,
            replica,
            config.net,
            Arc::clone(&core) as Arc<dyn WriteHandler>,
            Arc::clone(&metrics),
        ) {
            Ok(server) => server,
            Err(err) => {
                core.running.store(false, Ordering::SeqCst);
                core.transport.shutdown();
                return Err(err);
            }
        };
        let ops = match config.ops_addr {
            Some(addr) => match OpsServer::bind(addr, metrics.registry(), Arc::clone(&probes)) {
                Ok(ops) => Some(ops),
                Err(err) => {
                    core.running.store(false, Ordering::SeqCst);
                    core.transport.shutdown();
                    server.shutdown();
                    return Err(err);
                }
            },
            None => None,
        };
        // A single-member recovered leader may hold a committed-on-promotion
        // tail in its outbox; apply it before serving (no-op otherwise).
        {
            let mut state = core.state.lock();
            core.apply_committed(&mut state);
        }
        let driver = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || driver_loop(&core))
        };
        Ok(ZkEnsembleServer { core, server: Some(server), ops, driver: Some(driver) })
    }

    /// Binds and starts a complete ensemble of `size` members on loopback
    /// ephemeral ports, with replicas built by `factory`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start_local_ensemble(
        size: usize,
        config: &EnsembleConfig,
        factory: impl Fn(u32) -> Arc<ZkReplica>,
    ) -> io::Result<Vec<ZkEnsembleServer>> {
        assert!(size >= 1, "an ensemble needs at least one member");
        let transports: Vec<TcpNetwork> = (1..=size as u32)
            .map(|i| TcpNetwork::bind(NodeId(i), "127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let peer_addrs: HashMap<NodeId, SocketAddr> =
            transports.iter().map(|t| (t.id(), t.local_addr())).collect();
        transports
            .into_iter()
            .map(|transport| {
                let replica = factory(transport.id().0);
                Self::start_with_transport(
                    transport,
                    peer_addrs.clone(),
                    "127.0.0.1:0",
                    replica,
                    config.clone(),
                )
            })
            .collect()
    }

    /// This member's replica id.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// The address clients connect to.
    pub fn client_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server alive").local_addr()
    }

    /// The address peers connect to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.core.transport.local_addr()
    }

    /// The local replica (tree, sessions, interceptor).
    pub fn replica(&self) -> Arc<ZkReplica> {
        Arc::clone(&self.core.replica)
    }

    /// The member's current protocol role.
    pub fn role(&self) -> Role {
        self.core.state.lock().node.role()
    }

    /// True if this member currently leads the ensemble.
    pub fn is_leader(&self) -> bool {
        self.role() == Role::Leader
    }

    /// The node this member believes is the leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.state.lock().node.leader()
    }

    /// The member's current epoch.
    pub fn epoch(&self) -> u32 {
        self.core.state.lock().node.epoch()
    }

    /// The zxid of the last transaction applied to the local tree.
    pub fn last_applied_zxid(&self) -> i64 {
        self.core.replica.last_zxid()
    }

    /// Resynchronization and recovery counters: what this member shipped to
    /// lagging peers, what it installed, and what it replayed from disk at
    /// boot. Tests use these to prove a restarted member rejoined via its
    /// local history (or a shipped snapshot) rather than a full-log replay.
    pub fn sync_stats(&self) -> SyncStats {
        self.core.sync_stats()
    }

    /// The address of this member's operational HTTP endpoint, when one was
    /// configured ([`EnsembleConfig::ops_addr`]).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsServer::local_addr)
    }

    /// This member's metric surface (also rendered by `GET /metrics` and the
    /// `mntr` admin word).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.core.metrics)
    }

    /// This member's liveness/readiness probe state (also served as
    /// `GET /health/live` and `GET /health/ready`).
    pub fn probes(&self) -> Arc<ProbeState> {
        Arc::clone(&self.core.probes)
    }

    /// Gracefully takes this member out of service before a shutdown:
    /// readiness flips to unready, new writes are refused, leadership (if
    /// held) is handed to the lowest-id peer by shipping it this member's
    /// committed state and triggering an immediate candidacy, and the
    /// durable log is flushed. Call [`shutdown`](Self::shutdown) afterwards;
    /// reads keep being served in between so load balancers can rotate the
    /// member out on the unready probe first.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        self.core.drain(timeout)
    }

    /// Stops the member: client server, driver and peer transport — the
    /// crash-injection primitive of the failover tests.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.core.running.swap(false, Ordering::SeqCst) {
            return;
        }
        // Unblock client writer threads first so the TCP server can join
        // its threads without waiting out the write timeout.
        self.core.fail_all_waiters();
        self.core.probes.set_live(false);
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(ops) = self.ops.take() {
            ops.shutdown();
        }
        self.core.transport.shutdown();
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

impl Drop for ZkEnsembleServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_nests_the_txn_exactly_as_a_serialized_buffer() {
        let txn = WriteTxn { session_id: 0x0102, time_ms: -7, request_bytes: vec![9; 300] };
        let ctx = TraceContext { trace_id: 11, span_id: 12, flags: 1 };
        for ctx in [None, Some(ctx)] {
            // The two-step encoding WAL records and peer frames were written
            // with: the txn serialized on its own, then copied in as a buffer.
            let mut expected = OutputArchive::with_capacity(0);
            expected.write_i32(3);
            expected.write_i64(42);
            expected.write_buffer(&txn.to_bytes());
            let ctx_fields = ctx.unwrap_or(TraceContext { trace_id: 0, span_id: 0, flags: 0 });
            expected.write_i64(ctx_fields.trace_id as i64);
            expected.write_i64(ctx_fields.span_id as i64);
            expected.write_i32(i32::from(ctx_fields.flags));

            let payload = encode_payload(NodeId(3), 42, &txn, ctx);
            assert_eq!(payload, expected.into_bytes());
            let (origin, request_id, decoded, decoded_ctx) = decode_payload(&payload).unwrap();
            assert_eq!(
                (origin, request_id, decoded, decoded_ctx),
                (NodeId(3), 42, txn.clone(), ctx)
            );
        }
    }
}
