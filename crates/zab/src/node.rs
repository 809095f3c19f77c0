//! The per-replica ZAB state machine.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::log::TxnLog;
use crate::message::{NodeId, Txn, ZabMessage, Zxid};
use crate::network::{Envelope, ZabTransport};
use trace::Stage;

/// Upper bound on the serialized payload carried by one `NewLeaderSync`
/// frame. Histories longer than this are shipped as a sequence of sync
/// frames (FIFO links keep them ordered; the receiver commits each chunk
/// incrementally), so a resync can never exceed the transport's frame limit
/// no matter how far a replica lags.
const SYNC_CHUNK_BYTES: usize = 1 << 20;

/// Sends `txns` to `to` as one or more [`ZabMessage::NewLeaderSync`] frames,
/// each bounded by `SYNC_CHUNK_BYTES` (1 MiB) of payload. Always sends at least
/// one frame — the sync doubles as the leadership announcement.
pub fn send_sync(net: &dyn ZabTransport, from: NodeId, to: NodeId, epoch: u32, txns: Vec<Txn>) {
    let mut chunk: Vec<Txn> = Vec::new();
    let mut chunk_bytes = 0usize;
    let mut sent_any = false;
    for txn in txns {
        if !chunk.is_empty() && chunk_bytes + txn.payload.len() > SYNC_CHUNK_BYTES {
            net.send(
                from,
                to,
                ZabMessage::NewLeaderSync { epoch, txns: std::mem::take(&mut chunk) },
            );
            chunk_bytes = 0;
            sent_any = true;
        }
        chunk_bytes += txn.payload.len();
        chunk.push(txn);
    }
    if !chunk.is_empty() || !sent_any {
        net.send(from, to, ZabMessage::NewLeaderSync { epoch, txns: chunk });
    }
}

/// The role a replica currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Orders writes and drives commits.
    Leader,
    /// Accepts proposals from the leader and serves reads.
    Follower,
    /// Between leaders: participating in an election.
    Electing,
}

/// One replica's protocol state.
#[derive(Debug)]
pub struct ZabNode {
    id: NodeId,
    role: Role,
    epoch: u32,
    leader: Option<NodeId>,
    cluster_size: usize,
    log: TxnLog,
    /// zxid of the last proposal issued (leader only).
    last_proposed: Zxid,
    /// Outstanding acks per proposal (leader only).
    pending_acks: HashMap<Zxid, HashSet<NodeId>>,
    /// Recently proposed forwarded request ids per origin (leader only): a
    /// retransmitted [`ZabMessage::ForwardWrite`] must not be proposed a
    /// second time, or one client write commits at two zxids.
    forward_dedup: HashMap<NodeId, (HashSet<u64>, VecDeque<u64>)>,
    /// Committed transactions not yet consumed by the state machine above.
    committed_outbox: Vec<Txn>,
}

/// Per-origin size of the leader's forwarded-write dedup window. Origins
/// allocate request ids from a process-unique counter, so a window this deep
/// only ever drops true retransmissions.
const FORWARD_DEDUP_WINDOW: usize = 512;

impl ZabNode {
    /// Creates a follower node in epoch 0.
    pub fn new(id: NodeId, cluster_size: usize) -> Self {
        Self::with_log(id, cluster_size, TxnLog::new())
    }

    /// Creates a follower node in epoch 0 on top of an existing log —
    /// recovery from a durable log rejoins with local history instead of an
    /// empty credential.
    pub fn with_log(id: NodeId, cluster_size: usize, log: TxnLog) -> Self {
        ZabNode {
            id,
            role: Role::Follower,
            epoch: 0,
            leader: None,
            cluster_size,
            log,
            last_proposed: Zxid::ZERO,
            pending_acks: HashMap::new(),
            forward_dedup: HashMap::new(),
            committed_outbox: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The node this replica believes is the leader.
    pub fn leader(&self) -> Option<NodeId> {
        self.leader
    }

    /// Read access to the transaction log.
    pub fn log(&self) -> &TxnLog {
        &self.log
    }

    /// Size of the quorum (majority of the cluster).
    pub fn quorum(&self) -> usize {
        self.cluster_size / 2 + 1
    }

    /// Promotes this node to leader of `epoch`, committing everything it has
    /// logged (ZAB guarantees logged-on-a-quorum transactions survive, and the
    /// election picks the node with the longest log).
    pub fn become_leader(&mut self, epoch: u32) {
        self.role = Role::Leader;
        self.epoch = epoch;
        self.leader = Some(self.id);
        self.pending_acks.clear();
        self.forward_dedup.clear();
        let newly = self.log.commit_up_to(self.log.last_logged());
        self.committed_outbox.extend(newly);
        self.last_proposed = Zxid { epoch, counter: 0 };
    }

    /// Demotes this node to follower of `leader` in `epoch`.
    pub fn become_follower(&mut self, epoch: u32, leader: NodeId) {
        self.role = Role::Follower;
        self.epoch = epoch;
        self.leader = Some(leader);
        self.pending_acks.clear();
        self.forward_dedup.clear();
        self.log.truncate_uncommitted();
    }

    /// Marks the node as participating in an election.
    pub fn start_election(&mut self) {
        self.role = Role::Electing;
        self.leader = None;
    }

    /// Adopts a leader-shipped snapshot taken at `zxid`: this node becomes a
    /// follower of `leader` in `epoch`, and its log — local history now
    /// superseded wholesale — resets to the snapshot watermark. The state
    /// machine above must have installed the snapshot contents already; the
    /// suffix after `zxid` arrives as an ordinary [`ZabMessage::NewLeaderSync`].
    pub fn install_snapshot(&mut self, epoch: u32, leader: NodeId, zxid: Zxid) {
        self.role = Role::Follower;
        self.epoch = epoch;
        self.leader = Some(leader);
        self.pending_acks.clear();
        self.forward_dedup.clear();
        self.committed_outbox.clear();
        self.log.reset_to_snapshot(zxid);
    }

    /// Drops in-memory log entries covered by a snapshot at `zxid` (the
    /// disk log is purged separately at segment granularity).
    pub fn compact_log_through(&mut self, zxid: Zxid) {
        self.log.compact_through(zxid);
    }

    /// Drops the oldest committed log entries while the committed entries
    /// hold more than `max_bytes` of payload (see
    /// [`TxnLog::compact_to_bytes`]). Peers behind the resulting horizon
    /// need a snapshot, so only a driver that can ship one calls this.
    pub fn compact_log_to_bytes(&mut self, max_bytes: usize) {
        self.log.compact_to_bytes(max_bytes);
    }

    /// Forces buffered durable log writes to disk (group commit barrier).
    pub fn sync_log(&mut self) {
        self.log.sync();
    }

    /// Leader only: assigns a zxid to `payload`, logs it locally, and
    /// broadcasts the proposal. Returns the assigned zxid.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-leader; the cluster wrapper routes proposals
    /// to the current leader.
    pub fn propose(&mut self, payload: impl Into<Arc<[u8]>>, net: &dyn ZabTransport) -> Zxid {
        assert_eq!(self.role, Role::Leader, "only the leader proposes");
        let propose_start = trace::now_ns();
        self.last_proposed = if self.last_proposed.epoch == self.epoch {
            self.last_proposed.next()
        } else {
            Zxid { epoch: self.epoch, counter: 1 }
        };
        let prev = self.log.last_logged();
        let txn = Txn::new(self.last_proposed, payload);
        self.log.append(txn.clone());
        // The leader's own log entry counts as its ack.
        self.pending_acks.entry(txn.zxid).or_default().insert(self.id);
        net.broadcast(self.id, &ZabMessage::Proposal { txn, prev });
        // The proposal broadcast, attributed to whichever traced request
        // the driver has made ambient. This is the single choke point
        // both leader-local and forwarded writes pass through.
        trace::record_current(Stage::Propose, propose_start, self.last_proposed.as_u64());
        self.maybe_commit(self.last_proposed, net);
        self.last_proposed
    }

    /// Processes one incoming message, possibly sending replies via `net`.
    pub fn handle(&mut self, envelope: Envelope, net: &dyn ZabTransport) {
        match envelope.message {
            ZabMessage::Proposal { txn, prev } => self.on_proposal(envelope.from, txn, prev, net),
            ZabMessage::Ack { zxid, from } => self.on_ack(zxid, from, net),
            ZabMessage::Commit { zxid } => self.on_commit(zxid, net),
            ZabMessage::NewLeaderSync { epoch, txns } => {
                self.on_new_leader_sync(envelope.from, epoch, txns, net)
            }
            ZabMessage::SyncRequest { from, last_logged } => {
                self.on_sync_request(from, last_logged, net)
            }
            ZabMessage::ForwardWrite { origin, request_id, payload } => {
                self.on_forward_write(origin, request_id, payload, net)
            }
            // Heartbeats and election announcements carry failure-detection
            // state, which lives in the driver above the state machine (the
            // simulated cluster has global knowledge; the networked ensemble
            // runs timers around `handle`). Snapshot chunks carry state the
            // protocol core cannot install (the serialized tree); the
            // ensemble layer assembles them and calls
            // [`ZabNode::install_snapshot`]. Leadership transfers likewise
            // trigger a driver-level candidacy.
            ZabMessage::SyncAck { .. }
            | ZabMessage::Heartbeat { .. }
            | ZabMessage::Election { .. }
            | ZabMessage::VoteGrant { .. }
            | ZabMessage::SnapshotChunk { .. }
            | ZabMessage::TransferLeadership { .. } => {}
        }
    }

    /// A client write forwarded by a follower: the leader proposes it, anyone
    /// else re-forwards it to the leader it currently follows (covering stale
    /// leader hints during failover). Without a known leader it is dropped and
    /// the origin's client times out and retries.
    fn on_forward_write(
        &mut self,
        origin: NodeId,
        request_id: u64,
        payload: Vec<u8>,
        net: &dyn ZabTransport,
    ) {
        if self.role == Role::Leader {
            // Transports may retransmit: proposing a duplicated forward
            // again would commit the same client write at two zxids. Dedup
            // against a bounded window of recently proposed ids per origin.
            let (seen, order) = self.forward_dedup.entry(origin).or_default();
            if !seen.insert(request_id) {
                return;
            }
            order.push_back(request_id);
            if order.len() > FORWARD_DEDUP_WINDOW {
                if let Some(evicted) = order.pop_front() {
                    seen.remove(&evicted);
                }
            }
            self.propose(payload, net);
        } else if let Some(leader) = self.leader {
            if leader != self.id {
                net.send(self.id, leader, ZabMessage::ForwardWrite { origin, request_id, payload });
            }
        }
    }

    fn on_proposal(&mut self, from: NodeId, txn: Txn, prev: Zxid, net: &dyn ZabTransport) {
        if self.role != Role::Follower {
            return;
        }
        // Reject proposals from stale epochs.
        if txn.zxid.epoch < self.epoch {
            return;
        }
        let zxid = txn.zxid;
        if zxid <= self.log.last_logged() {
            // Already logged (redelivery after a resync); re-ack so the
            // leader's quorum accounting is not starved by a lost ack.
            net.send(self.id, from, ZabMessage::Ack { zxid, from: self.id });
            return;
        }
        if self.log.last_logged() != prev {
            // This replica's log does not extend to the entry the leader
            // chained this proposal onto — frames were lost. Accepting would
            // open a silent gap; request the missing range instead.
            net.send(
                self.id,
                from,
                ZabMessage::SyncRequest { from: self.id, last_logged: self.log.last_logged() },
            );
            return;
        }
        self.log.append(txn);
        net.send(self.id, from, ZabMessage::Ack { zxid, from: self.id });
    }

    fn on_ack(&mut self, zxid: Zxid, from: NodeId, net: &dyn ZabTransport) {
        if self.role != Role::Leader || zxid.epoch != self.epoch {
            return;
        }
        self.pending_acks.entry(zxid).or_default().insert(from);
        self.maybe_commit(zxid, net);
    }

    fn maybe_commit(&mut self, zxid: Zxid, net: &dyn ZabTransport) {
        let quorum = self.quorum();
        let reached = self.pending_acks.get(&zxid).map_or(0, |acks| acks.len()) >= quorum;
        if reached && zxid > self.log.last_committed() {
            let newly = self.log.commit_up_to(zxid);
            self.committed_outbox.extend(newly);
            net.broadcast(self.id, &ZabMessage::Commit { zxid });
            self.pending_acks.retain(|&z, _| z > zxid);
        }
    }

    fn on_commit(&mut self, zxid: Zxid, net: &dyn ZabTransport) {
        if self.role != Role::Follower {
            return;
        }
        let newly = self.log.commit_up_to(zxid);
        self.committed_outbox.extend(newly);
        if self.log.last_committed() < zxid {
            // The commit points past this replica's log tip: the proposals
            // in between were lost. Ask the leader for the missing range.
            if let Some(leader) = self.leader {
                net.send(
                    self.id,
                    leader,
                    ZabMessage::SyncRequest { from: self.id, last_logged: self.log.last_logged() },
                );
            }
        }
    }

    /// Leader only: answers a follower whose log fell behind (lost frames)
    /// with the committed entries after its tip, then *retransmits* the
    /// uncommitted in-flight tail as ordinary proposals chained from the
    /// committed watermark. The retransmission is what keeps in-flight
    /// writes live: a follower that refused a gapped proposal could
    /// otherwise never ack it, and a proposal still short of its quorum
    /// would wedge forever (sync ships only committed entries, because the
    /// receiver commits everything a sync carries).
    fn on_sync_request(&mut self, from: NodeId, last_logged: Zxid, net: &dyn ZabTransport) {
        if self.role != Role::Leader {
            return;
        }
        if last_logged < self.log.horizon() {
            // The requested range was compacted into a snapshot; this state
            // machine cannot serve it. The ensemble layer intercepts this
            // case and ships the snapshot itself (see `zkserver::ensemble`).
            return;
        }
        send_sync(net, self.id, from, self.epoch, self.log.committed_after(last_logged));
        let mut prev = self.log.last_committed();
        for txn in self.log.entries_after(prev) {
            let zxid = txn.zxid;
            net.send(self.id, from, ZabMessage::Proposal { txn, prev });
            prev = zxid;
        }
    }

    fn on_new_leader_sync(
        &mut self,
        from: NodeId,
        epoch: u32,
        txns: Vec<Txn>,
        net: &dyn ZabTransport,
    ) {
        if epoch < self.epoch {
            return;
        }
        // A repair sync from the leader already being followed must not
        // truncate acked-but-uncommitted proposals (they may be one ack away
        // from their quorum); truncation is for genuine leadership changes,
        // where the divergent tail has to go.
        let adopted =
            !(self.role == Role::Follower && self.epoch == epoch && self.leader == Some(from));
        if adopted {
            self.become_follower(epoch, from);
        }
        let announcement_only = txns.is_empty();
        let mut max_zxid = self.log.last_committed();
        let mut gapped = false;
        for txn in txns {
            if txn.zxid <= self.log.last_logged() {
                // Redelivery of history this log already holds.
                continue;
            }
            if !txn.zxid.follows(self.log.last_logged()) {
                // The shipped range starts past this log's tip. That happens
                // when the leader judged this node by a stale credential — a
                // restarted replica announces its logged tip, then truncates
                // the uncommitted part of it on adoption, so the "suffix"
                // the leader shipped no longer chains. Appending would open
                // a silent, permanent gap; re-request from the real tip
                // instead.
                gapped = true;
                break;
            }
            max_zxid = max_zxid.max(txn.zxid);
            self.log.append(txn);
        }
        // Everything the new leader ships is already committed on its side.
        let newly = self.log.commit_up_to(max_zxid);
        self.committed_outbox.extend(newly);
        if gapped || (adopted && announcement_only) {
            // Either the shipped range does not chain onto this log, or the
            // new leader announced itself without history (it did not know
            // this node's tip). Answer with the real tip so the leader can
            // ship exactly the missing range — or a snapshot if this log
            // fell behind its truncation horizon. A repair sync from the
            // current leader that happens to be empty acks normally, so the
            // announce/req exchange always terminates.
            net.send(
                self.id,
                from,
                ZabMessage::SyncRequest { from: self.id, last_logged: self.log.last_logged() },
            );
        } else {
            net.send(self.id, from, ZabMessage::SyncAck { from: self.id, epoch });
        }
    }

    /// Drains committed transactions that the replicated state machine (the
    /// ZooKeeper data tree) has not applied yet.
    pub fn take_committed(&mut self) -> Vec<Txn> {
        std::mem::take(&mut self.committed_outbox)
    }

    /// Number of committed-but-not-yet-applied transactions.
    pub fn committed_backlog(&self) -> usize {
        self.committed_outbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimNetwork;

    fn three_nodes() -> (SimNetwork, ZabNode, ZabNode, ZabNode) {
        let ids = [NodeId(1), NodeId(2), NodeId(3)];
        let net = SimNetwork::new(&ids);
        let mut leader = ZabNode::new(NodeId(1), 3);
        leader.become_leader(1);
        let mut f2 = ZabNode::new(NodeId(2), 3);
        f2.become_follower(1, NodeId(1));
        let mut f3 = ZabNode::new(NodeId(3), 3);
        f3.become_follower(1, NodeId(1));
        (net, leader, f2, f3)
    }

    fn pump(net: &dyn ZabTransport, nodes: &mut [&mut ZabNode]) {
        // Deliver until all queues drain.
        loop {
            let mut any = false;
            for node in nodes.iter_mut() {
                if let Some(envelope) = net.receive(node.id()) {
                    node.handle(envelope, net);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    #[test]
    fn proposal_commits_after_quorum() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        let zxid = leader.propose(b"create /a".to_vec(), &net);
        assert_eq!(zxid, Zxid { epoch: 1, counter: 1 });
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);

        assert_eq!(leader.take_committed().len(), 1);
        assert_eq!(f2.take_committed().len(), 1);
        assert_eq!(f3.take_committed().len(), 1);
        assert_eq!(leader.log().last_committed(), zxid);
    }

    #[test]
    fn commits_preserve_proposal_order() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        for i in 0..10u8 {
            leader.propose(vec![i], &net);
        }
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        let committed = f2.take_committed();
        assert_eq!(committed.len(), 10);
        for (i, txn) in committed.iter().enumerate() {
            assert_eq!(*txn.payload, [i as u8]);
            assert_eq!(txn.zxid.counter, i as u32 + 1);
        }
    }

    #[test]
    fn commit_happens_with_one_follower_down() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        net.crash(NodeId(3));
        leader.propose(b"x".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        assert_eq!(leader.take_committed().len(), 1);
        assert_eq!(f2.take_committed().len(), 1);
        assert_eq!(f3.take_committed().len(), 0);
    }

    #[test]
    fn no_commit_without_quorum() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        net.crash(NodeId(2));
        net.crash(NodeId(3));
        leader.propose(b"x".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        assert_eq!(leader.take_committed().len(), 0);
        assert_eq!(leader.log().last_committed(), Zxid::ZERO);
    }

    #[test]
    fn follower_ignores_stale_epoch_proposals() {
        let (net, _leader, mut f2, _f3) = three_nodes();
        f2.become_follower(2, NodeId(3));
        let stale = Txn::new(Zxid { epoch: 1, counter: 5 }, vec![]);
        f2.handle(
            Envelope {
                from: NodeId(1),
                message: ZabMessage::Proposal { txn: stale, prev: Zxid::ZERO },
            },
            &net,
        );
        assert!(f2.log().is_empty());
    }

    #[test]
    fn new_leader_sync_brings_follower_up_to_date() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        leader.propose(b"a".to_vec(), &net);
        leader.propose(b"b".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        f2.take_committed();

        // A fresh replica joins via sync.
        let mut f4 = ZabNode::new(NodeId(3), 3);
        let txns = leader.log().entries_after(Zxid::ZERO);
        f4.handle(
            Envelope { from: NodeId(1), message: ZabMessage::NewLeaderSync { epoch: 2, txns } },
            &net,
        );
        assert_eq!(f4.take_committed().len(), 2);
        assert_eq!(f4.epoch(), 2);
        assert_eq!(f4.leader(), Some(NodeId(1)));
    }

    #[test]
    fn lost_proposal_triggers_resync_instead_of_a_silent_gap() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        leader.propose(b"a".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);

        // The next proposal is lost on the way to f2 (a broken TCP link).
        leader.propose(b"b".to_vec(), &net);
        let dropped = net.receive(NodeId(2)).expect("f2's copy of the proposal");
        assert!(matches!(dropped.message, ZabMessage::Proposal { .. }));
        // The write still commits through f3's ack; f2 sees only the commit.
        pump(&net, &mut [&mut leader, &mut f3]);

        // A later proposal reaches f2 with a `prev` its log cannot match, so
        // f2 must refuse it and request a resync — never ack across a gap.
        leader.propose(b"c".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);

        assert_eq!(f2.log().last_committed(), leader.log().last_committed());
        let payloads: Vec<Vec<u8>> = f2.log().committed().map(|t| t.payload.to_vec()).collect();
        assert_eq!(payloads, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn lost_commit_is_repaired_by_the_next_commit_watermark() {
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        leader.propose(b"a".to_vec(), &net);
        // f2 logs and acks the proposal but its Commit frame is lost.
        let proposal = net.receive(NodeId(2)).expect("proposal");
        f2.handle(proposal, &net);
        pump(&net, &mut [&mut leader, &mut f3]);
        while net.receive(NodeId(2)).is_some() {}
        assert_eq!(f2.log().last_committed(), Zxid::ZERO);

        // The next write's commit carries a higher watermark, which commits
        // the earlier transaction on f2 too (commit covers the prefix).
        leader.propose(b"b".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        assert_eq!(f2.log().last_committed(), leader.log().last_committed());
        assert_eq!(f2.log().committed().count(), 2);
    }

    #[test]
    fn in_flight_proposal_lost_to_every_follower_still_commits_after_resync() {
        // The wedge case: a proposal that reached *no* follower cannot
        // gather a quorum, and the followers refuse every later proposal
        // (prev mismatch). The leader's sync response must retransmit its
        // uncommitted tail or the write — and all writes after it — would
        // hang forever.
        let (net, mut leader, mut f2, mut f3) = three_nodes();
        leader.propose(b"a".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);

        // Both followers lose the next proposal.
        leader.propose(b"b".to_vec(), &net);
        assert!(net.receive(NodeId(2)).is_some());
        assert!(net.receive(NodeId(3)).is_some());
        assert_eq!(leader.log().last_committed(), Zxid { epoch: 1, counter: 1 });

        // The next proposal is refused by both (gap); their sync requests
        // must revive the lost in-flight write.
        leader.propose(b"c".to_vec(), &net);
        pump(&net, &mut [&mut leader, &mut f2, &mut f3]);
        assert_eq!(leader.log().last_committed(), Zxid { epoch: 1, counter: 3 });
        for node in [&f2, &f3] {
            let payloads: Vec<Vec<u8>> =
                node.log().committed().map(|t| t.payload.to_vec()).collect();
            assert_eq!(payloads, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        }
    }

    #[test]
    fn gapped_new_leader_sync_is_refused_and_refetched() {
        // A restarted replica announced credential {1,3} in an election, but
        // entry 3 was uncommitted locally and gets truncated when it adopts
        // the winner — so the winner's "suffix after 3" no longer chains.
        // Appending it would silently lose txn 3 forever; the node must
        // re-request from its real tip instead (the bug a durable restart
        // under write load exposed).
        let net = SimNetwork::new(&[NodeId(1), NodeId(2)]);
        let mut node = ZabNode::new(NodeId(2), 3);
        node.become_follower(1, NodeId(1));
        for i in 1..=3 {
            node.log.append(Txn::new(Zxid { epoch: 1, counter: i }, vec![i as u8]));
        }
        node.log.commit_up_to(Zxid { epoch: 1, counter: 2 });
        node.take_committed();

        // New leader (epoch 2) ships the suffix after the *announced* tip 3;
        // adoption truncates entry 3 first.
        node.handle(
            Envelope {
                from: NodeId(1),
                message: ZabMessage::NewLeaderSync {
                    epoch: 2,
                    txns: vec![
                        Txn::new(Zxid { epoch: 1, counter: 4 }, vec![4]),
                        Txn::new(Zxid { epoch: 1, counter: 5 }, vec![5]),
                    ],
                },
            },
            &net,
        );
        // Nothing past the gap was accepted, and the node asked for the
        // missing range from its post-truncation tip.
        assert_eq!(node.log().last_logged(), Zxid { epoch: 1, counter: 2 });
        assert!(node.take_committed().is_empty());
        let reply = net.receive(NodeId(1)).expect("a reply to the leader");
        assert_eq!(
            reply.message,
            ZabMessage::SyncRequest { from: NodeId(2), last_logged: Zxid { epoch: 1, counter: 2 } }
        );

        // The leader answers with the complete suffix, which chains and
        // commits — including the previously truncated slot.
        node.handle(
            Envelope {
                from: NodeId(1),
                message: ZabMessage::NewLeaderSync {
                    epoch: 2,
                    txns: (3..=5)
                        .map(|i| Txn::new(Zxid { epoch: 1, counter: i }, vec![i as u8]))
                        .collect(),
                },
            },
            &net,
        );
        assert_eq!(node.log().last_committed(), Zxid { epoch: 1, counter: 5 });
        let payloads: Vec<Vec<u8>> =
            node.take_committed().into_iter().map(|t| t.payload.to_vec()).collect();
        assert_eq!(payloads, vec![vec![3], vec![4], vec![5]]);
    }

    #[test]
    fn become_leader_commits_logged_entries() {
        let mut node = ZabNode::new(NodeId(2), 3);
        node.become_follower(1, NodeId(1));
        node.log.append(Txn::new(Zxid { epoch: 1, counter: 1 }, &b"x"[..]));
        node.become_leader(2);
        assert_eq!(node.take_committed().len(), 1);
        assert_eq!(node.role(), Role::Leader);
        assert_eq!(node.quorum(), 2);
    }
}
