//! Cluster orchestration: message pumping, leader election, crash injection.

use std::collections::HashMap;

use crate::message::{NodeId, Txn, ZabMessage, Zxid};
use crate::network::SimNetwork;
use crate::node::{Role, ZabNode};

/// A complete ZAB ensemble driven deterministically in-process.
///
/// The cluster steps every node's inbox until quiescence after each operation,
/// so a call to [`ZabCluster::broadcast`] returns only once the transaction is
/// committed on every reachable replica (or not at all, if no quorum exists).
///
/// # Example
///
/// ```
/// use zab::ZabCluster;
///
/// let mut cluster = ZabCluster::new(3);
/// let zxid = cluster.broadcast(b"create /config".to_vec()).expect("quorum available");
/// assert_eq!(zxid.counter, 1);
/// let applied = cluster.take_committed(cluster.leader_id());
/// assert_eq!(applied.len(), 1);
/// ```
#[derive(Debug)]
pub struct ZabCluster {
    nodes: HashMap<NodeId, ZabNode>,
    order: Vec<NodeId>,
    network: SimNetwork,
    leader: NodeId,
    epoch: u32,
    elections: u32,
}

impl ZabCluster {
    /// Creates a cluster of `size` replicas (at least 1) with replica 1 as the
    /// initial leader in epoch 1.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a cluster needs at least one replica");
        let order: Vec<NodeId> = (1..=size as u32).map(NodeId).collect();
        let network = SimNetwork::new(&order);
        let mut nodes = HashMap::new();
        let leader = order[0];
        for &id in &order {
            let mut node = ZabNode::new(id, size);
            if id == leader {
                node.become_leader(1);
            } else {
                node.become_follower(1, leader);
            }
            nodes.insert(id, node);
        }
        ZabCluster { nodes, order, network, leader, epoch: 1, elections: 0 }
    }

    /// Identifiers of all replicas, in creation order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.order
    }

    /// The current leader.
    pub fn leader_id(&self) -> NodeId {
        self.leader
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of leader elections run so far (excluding the initial one).
    pub fn elections(&self) -> u32 {
        self.elections
    }

    /// Access to the underlying network (for fault injection in tests).
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }

    /// Read access to a replica's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of the cluster.
    pub fn node(&self, id: NodeId) -> &ZabNode {
        &self.nodes[&id]
    }

    /// True if `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.network.is_crashed(id)
    }

    /// Number of replicas currently alive.
    pub fn alive_count(&self) -> usize {
        self.network.alive_nodes().len()
    }

    /// True if a majority of replicas is alive (writes can commit).
    pub fn has_quorum(&self) -> bool {
        self.alive_count() > self.order.len() / 2
    }

    /// Submits a write for total ordering. Returns the zxid it committed at,
    /// or `None` if no quorum is currently reachable.
    pub fn broadcast(&mut self, payload: Vec<u8>) -> Option<Zxid> {
        if !self.has_quorum() || self.network.is_crashed(self.leader) {
            return None;
        }
        let zxid = {
            let leader = self.nodes.get_mut(&self.leader).expect("leader exists");
            leader.propose(payload, &self.network)
        };
        self.run_until_quiet();
        let committed = self.nodes[&self.leader].log().last_committed() >= zxid;
        committed.then_some(zxid)
    }

    /// Delivers queued messages until every inbox is empty.
    pub fn run_until_quiet(&mut self) {
        loop {
            let mut delivered = false;
            for &id in &self.order {
                if let Some(envelope) = self.network.receive(id) {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        node.handle(envelope, &self.network);
                        delivered = true;
                    }
                }
            }
            if !delivered {
                break;
            }
        }
    }

    /// Drains the committed transactions a replica has not yet applied to its
    /// state machine.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of the cluster.
    pub fn take_committed(&mut self, id: NodeId) -> Vec<Txn> {
        self.nodes.get_mut(&id).expect("member").take_committed()
    }

    /// Crashes a replica. If it was the leader, an election is run among the
    /// survivors (provided a quorum remains).
    pub fn crash(&mut self, id: NodeId) {
        self.network.crash(id);
        if id == self.leader && self.has_quorum() {
            self.elect();
        }
    }

    /// Recovers a crashed replica and synchronizes it from the current leader.
    pub fn recover(&mut self, id: NodeId) {
        self.network.recover(id);
        if id == self.leader {
            // The old leader returns as a follower of the current leader.
            if let Some(node) = self.nodes.get_mut(&id) {
                node.become_follower(self.epoch, self.leader);
            }
        }
        let missing = {
            let target_committed = self.nodes[&id].log().last_committed();
            self.nodes[&self.leader].log().entries_after(target_committed)
        };
        self.network.send(
            self.leader,
            id,
            ZabMessage::NewLeaderSync { epoch: self.epoch, txns: missing },
        );
        self.run_until_quiet();
    }

    /// Runs a leader election among alive replicas: the node with the most
    /// advanced log wins (ties broken by the highest id, as in ZooKeeper's
    /// fast leader election).
    pub fn elect(&mut self) {
        let alive = self.network.alive_nodes();
        let quorum = self.order.len() / 2 + 1;
        if alive.len() < quorum {
            return;
        }
        for &id in &alive {
            if let Some(node) = self.nodes.get_mut(&id) {
                node.start_election();
            }
        }
        let winner = *alive
            .iter()
            .max_by_key(|&&id| {
                let node = &self.nodes[&id];
                (node.log().last_logged(), id)
            })
            .expect("at least one alive node");

        self.epoch += 1;
        self.elections += 1;
        self.leader = winner;
        if let Some(node) = self.nodes.get_mut(&winner) {
            node.become_leader(self.epoch);
        }

        // Synchronize every other alive replica from the new leader's log.
        for &id in &alive {
            if id == winner {
                continue;
            }
            let missing = {
                let follower_committed = self.nodes[&id].log().last_committed();
                self.nodes[&winner].log().entries_after(follower_committed)
            };
            self.network.send(
                winner,
                id,
                ZabMessage::NewLeaderSync { epoch: self.epoch, txns: missing },
            );
        }
        self.run_until_quiet();
    }

    /// Roles of every replica, for observability.
    pub fn roles(&self) -> HashMap<NodeId, Role> {
        self.order.iter().map(|&id| (id, self.nodes[&id].role())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_commit_on_every_replica() {
        let mut cluster = ZabCluster::new(3);
        for i in 0..20u8 {
            assert!(cluster.broadcast(vec![i]).is_some());
        }
        for &id in &cluster.node_ids().to_vec() {
            let committed = cluster.take_committed(id);
            assert_eq!(committed.len(), 20, "{id}");
            let payloads: Vec<u8> = committed.iter().map(|t| t.payload[0]).collect();
            assert_eq!(payloads, (0..20u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn follower_crash_does_not_block_writes() {
        let mut cluster = ZabCluster::new(3);
        cluster.crash(NodeId(3));
        assert!(cluster.broadcast(b"x".to_vec()).is_some());
        assert_eq!(cluster.take_committed(NodeId(1)).len(), 1);
        assert_eq!(cluster.take_committed(NodeId(3)).len(), 0);
        assert_eq!(cluster.leader_id(), NodeId(1));
    }

    #[test]
    fn leader_crash_triggers_election_and_writes_continue() {
        let mut cluster = ZabCluster::new(3);
        cluster.broadcast(b"before".to_vec()).unwrap();
        let old_leader = cluster.leader_id();
        cluster.crash(old_leader);
        assert_ne!(cluster.leader_id(), old_leader);
        assert_eq!(cluster.epoch(), 2);
        assert_eq!(cluster.elections(), 1);

        let zxid = cluster.broadcast(b"after".to_vec()).unwrap();
        assert_eq!(zxid.epoch, 2);
        // Survivors see both transactions exactly once.
        let survivor = cluster.leader_id();
        let committed = cluster.take_committed(survivor);
        assert_eq!(committed.len(), 2);
        assert_eq!(&*committed[0].payload, b"before");
        assert_eq!(&*committed[1].payload, b"after");
    }

    #[test]
    fn no_quorum_no_progress() {
        let mut cluster = ZabCluster::new(3);
        cluster.crash(NodeId(2));
        cluster.crash(NodeId(3));
        assert!(!cluster.has_quorum());
        assert!(cluster.broadcast(b"x".to_vec()).is_none());
    }

    #[test]
    fn five_replica_cluster_tolerates_two_failures() {
        let mut cluster = ZabCluster::new(5);
        cluster.broadcast(b"a".to_vec()).unwrap();
        cluster.crash(NodeId(4));
        cluster.crash(NodeId(1)); // the leader
        assert!(cluster.has_quorum());
        assert!(cluster.broadcast(b"b".to_vec()).is_some());
        let leader = cluster.leader_id();
        assert!(leader != NodeId(1) && leader != NodeId(4));
        assert_eq!(cluster.take_committed(leader).len(), 2);
    }

    #[test]
    fn recovered_replica_catches_up() {
        let mut cluster = ZabCluster::new(3);
        cluster.crash(NodeId(3));
        for i in 0..5u8 {
            cluster.broadcast(vec![i]).unwrap();
        }
        cluster.recover(NodeId(3));
        let committed = cluster.take_committed(NodeId(3));
        assert_eq!(committed.len(), 5);
        // And it participates in new writes again.
        cluster.broadcast(b"new".to_vec()).unwrap();
        assert_eq!(cluster.take_committed(NodeId(3)).len(), 1);
    }

    #[test]
    fn recovered_leader_rejoins_as_follower() {
        let mut cluster = ZabCluster::new(3);
        cluster.broadcast(b"a".to_vec()).unwrap();
        cluster.crash(NodeId(1));
        cluster.broadcast(b"b".to_vec()).unwrap();
        cluster.recover(NodeId(1));
        assert_ne!(cluster.leader_id(), NodeId(1));
        assert_eq!(cluster.roles()[&NodeId(1)], Role::Follower);
        // The recovered replica catches up on the write it missed.
        let committed = cluster.take_committed(NodeId(1));
        assert_eq!(committed.len(), 2);
    }

    #[test]
    fn committed_writes_survive_leader_failover() {
        // A transaction committed before the crash must be visible after the
        // new leader takes over (ZAB safety).
        let mut cluster = ZabCluster::new(3);
        let zxid = cluster.broadcast(b"durable".to_vec()).unwrap();
        cluster.crash(cluster.leader_id());
        let new_leader = cluster.leader_id();
        assert!(cluster.node(new_leader).log().last_committed() >= zxid);
        let payloads: Vec<Vec<u8>> =
            cluster.node(new_leader).log().committed().map(|t| t.payload.to_vec()).collect();
        assert!(payloads.contains(&b"durable".to_vec()));
    }

    #[test]
    fn single_node_cluster_works() {
        let mut cluster = ZabCluster::new(1);
        assert!(cluster.broadcast(b"x".to_vec()).is_some());
        assert_eq!(cluster.take_committed(NodeId(1)).len(), 1);
    }

    #[test]
    fn zxids_are_strictly_increasing_across_epochs() {
        let mut cluster = ZabCluster::new(3);
        let z1 = cluster.broadcast(b"a".to_vec()).unwrap();
        cluster.crash(cluster.leader_id());
        let z2 = cluster.broadcast(b"b".to_vec()).unwrap();
        assert!(z2 > z1);
    }
}
