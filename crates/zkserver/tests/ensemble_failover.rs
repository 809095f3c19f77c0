//! Networked ensemble end-to-end tests: 3 replicas over real TCP, writes
//! forwarded follower→leader, leader crash with election and client
//! reconnect, replica convergence, and the byte bound on the in-memory
//! replication log. CI runs this file in the `ensemble-e2e` job (plain leg
//! of the matrix).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::{CreateMode, Stat};
use zab::NodeId;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer, LOG_RETAINED_BYTES};
use zkserver::net::PlainCredentials;
use zkserver::server::DEFAULT_SESSION_TIMEOUT_MS;
use zkserver::watch::WatchEventKind;
use zkserver::{ZkError, ZkReplica};

/// Aggressive timers so failover completes in well under a second.
fn test_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

fn start_ensemble(size: usize) -> Vec<ZkEnsembleServer> {
    ZkEnsembleServer::start_local_ensemble(size, &test_config(), |id| Arc::new(ZkReplica::new(id)))
        .expect("bind loopback ensemble")
}

fn connect(server: &ZkEnsembleServer) -> ZkTcpClient {
    ZkTcpClient::connect(server.client_addr()).expect("client connect")
}

/// Polls `condition` until it holds or the deadline passes.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Retries a write until the ensemble has recovered enough to commit it.
fn create_with_retry(client: &mut ZkTcpClient, path: &str, addrs: &[std::net::SocketAddr]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.create(path, b"v".to_vec(), CreateMode::Persistent) {
            Ok(_) => return,
            Err(ZkError::NodeExists { .. }) => return,
            Err(_) => {
                assert!(Instant::now() < deadline, "write to {path} never recovered");
                // The connection may be dead (crashed replica) — fail over.
                let _ = client
                    .reconnect_to(addrs[0])
                    .or_else(|_| client.reconnect_to(*addrs.last().unwrap()));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn writes_on_a_follower_are_forwarded_and_replicated_everywhere() {
    let servers = start_ensemble(3);
    assert!(servers[0].is_leader(), "lowest id leads the first epoch");

    // Write through a follower: the request is forwarded to the leader,
    // committed by quorum, and applied on every replica.
    let mut client = connect(&servers[2]);
    client.create("/forwarded", b"via follower".to_vec(), CreateMode::Persistent).unwrap();
    let (data, _) = client.get_data("/forwarded", false).unwrap();
    assert_eq!(data, b"via follower");

    for server in &servers {
        let server_id = server.id();
        wait_until(&format!("replication to {server_id}"), || {
            server.replica().tree().contains("/forwarded")
        });
    }
    // All replicas applied the same transaction at the same zxid.
    let zxids: Vec<i64> = servers.iter().map(|s| s.last_applied_zxid()).collect();
    wait_until("zxid convergence", || servers.iter().all(|s| s.last_applied_zxid() == zxids[0]));
    client.close();
}

#[test]
fn multi_at_a_follower_commits_as_one_zxid_on_every_replica() {
    use zkserver::OpResult;

    let servers = start_ensemble(3);
    assert!(!servers[2].is_leader());
    let mut client = connect(&servers[2]);
    client.create("/cfg", b"v0".to_vec(), CreateMode::Persistent).unwrap();

    // One forwarded proposal carries the whole transaction.
    let zxid_before = client.last_zxid();
    let results = client
        .txn()
        .check("/cfg", 0)
        .set_data("/cfg", b"v1".to_vec(), 0)
        .create("/cfg/hist-", b"v0".to_vec(), CreateMode::PersistentSequential)
        .create("/cfg/flag", vec![], CreateMode::Persistent)
        .commit()
        .unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(results[2], OpResult::Create { path: "/cfg/hist-0000000000".into() });
    let commit_zxid = client.last_zxid();
    assert_eq!(commit_zxid, zxid_before + 1, "the batch is one ZAB proposal");

    // Every replica applied the whole batch at that same single zxid.
    for server in &servers {
        let id = server.id();
        wait_until(&format!("multi replication to {id}"), || {
            server.last_applied_zxid() >= commit_zxid
        });
        let replica = server.replica();
        let tree = replica.tree();
        assert!(tree.contains("/cfg/hist-0000000000"), "{id}");
        assert!(tree.contains("/cfg/flag"), "{id}");
        assert_eq!(tree.get("/cfg").unwrap().stat().mzxid, commit_zxid, "{id}");
        assert_eq!(tree.get("/cfg/flag").unwrap().stat().czxid, commit_zxid, "{id}");
        assert_eq!(tree.get("/cfg").unwrap().data(), b"v1", "{id}");
    }
    client.close();
}

#[test]
fn aborted_multi_at_a_follower_leaves_no_replica_diverged() {
    use jute::records::{CheckVersionRequest, DeleteRequest, ErrorCode};
    use zkserver::{Op, OpResult};

    let servers = start_ensemble(3);
    let mut client = connect(&servers[1]);
    client.create("/inv", b"stock".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/inv/item", b"7".to_vec(), CreateMode::Persistent).unwrap();

    // The failing check (stale version) aborts the forwarded transaction.
    let results = client
        .multi(vec![
            Op::SetData(jute::records::SetDataRequest {
                path: "/inv/item".into(),
                data: b"6".to_vec(),
                version: -1,
            }),
            Op::Check(CheckVersionRequest { path: "/inv/item".into(), version: 9 }),
            Op::Delete(DeleteRequest { path: "/inv/item".into(), version: -1 }),
        ])
        .unwrap();
    assert_eq!(
        results,
        vec![
            OpResult::Error(ErrorCode::RuntimeInconsistency),
            OpResult::Error(ErrorCode::BadVersion),
            OpResult::Error(ErrorCode::RuntimeInconsistency),
        ]
    );
    let abort_zxid = client.last_zxid();

    // The typed builder surfaces the same abort as a BadVersion error.
    let err = client
        .txn()
        .check("/inv/item", 9)
        .set_data("/inv/item", b"0".to_vec(), -1)
        .commit()
        .unwrap_err();
    assert!(matches!(err, ZkError::BadVersion { .. }), "got {err:?}");

    // Every replica processed the aborted proposals (zxids advanced in step)
    // and none applied any sub-operation: the trees stay identical.
    for server in &servers {
        let id = server.id();
        wait_until(&format!("abort replication to {id}"), || {
            server.last_applied_zxid() > abort_zxid
        });
        let replica = server.replica();
        let tree = replica.tree();
        assert_eq!(tree.get("/inv/item").unwrap().data(), b"7", "{id}");
        assert_eq!(tree.get("/inv/item").unwrap().stat().version, 0, "{id}");
        let reference = servers[0].replica();
        assert_eq!(tree.paths(), reference.tree().paths(), "{id}");
    }
    client.close();
}

#[test]
fn sequential_creates_from_different_replicas_agree() {
    let servers = start_ensemble(3);
    let mut a = connect(&servers[1]);
    let mut b = connect(&servers[2]);
    a.create("/queue", vec![], CreateMode::Persistent).unwrap();
    let first = a.create("/queue/item-", vec![], CreateMode::PersistentSequential).unwrap();
    let second = b.create("/queue/item-", vec![], CreateMode::PersistentSequential).unwrap();
    assert_eq!(first, "/queue/item-0000000000");
    assert_eq!(second, "/queue/item-0000000001");
    for server in &servers {
        wait_until("queue replication", || {
            server.replica().tree().get_children("/queue").map_or(0, |c| c.len()) == 2
        });
    }
    a.close();
    b.close();
}

#[test]
fn watches_fire_across_replicas() {
    let servers = start_ensemble(3);
    let mut watcher = connect(&servers[1]);
    let mut writer = connect(&servers[2]);
    watcher.create("/watched", b"v0".to_vec(), CreateMode::Persistent).unwrap();
    watcher.get_data("/watched", true).unwrap();
    writer.set_data("/watched", b"v1".to_vec(), -1).unwrap();
    let events = watcher.poll_events(Duration::from_secs(5)).unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, WatchEventKind::NodeDataChanged);
    assert_eq!(events[0].path, "/watched");
    watcher.close();
    writer.close();
}

#[test]
fn follower_crash_does_not_interrupt_service() {
    let mut servers = start_ensemble(3);
    let mut client = connect(&servers[0]);
    client.create("/before", vec![], CreateMode::Persistent).unwrap();

    // Crash a follower; the leader and the other follower keep serving.
    let crashed = servers.remove(2);
    crashed.shutdown();
    client.create("/after-follower-crash", vec![], CreateMode::Persistent).unwrap();
    for server in &servers {
        wait_until("survivor replication", || {
            server.replica().tree().contains("/after-follower-crash")
        });
    }
    client.close();
}

#[test]
fn leader_crash_triggers_election_clients_reconnect_and_replicas_converge() {
    let mut servers = start_ensemble(3);
    let survivor_addrs: Vec<std::net::SocketAddr> =
        servers[1..].iter().map(|s| s.client_addr()).collect();

    // A client connected to the leader and one connected to a follower.
    let mut leader_client = connect(&servers[0]);
    let mut follower_client = connect(&servers[1]);
    leader_client.create("/pre-crash", b"durable".to_vec(), CreateMode::Persistent).unwrap();
    wait_until("pre-crash replication", || {
        servers[1..].iter().all(|s| s.replica().tree().contains("/pre-crash"))
    });

    // Kill the leader.
    let old_leader = servers.remove(0);
    assert!(old_leader.is_leader());
    old_leader.shutdown();

    // The survivors elect a new leader in a higher epoch.
    wait_until("election", || servers.iter().any(|s| s.is_leader()));
    let new_leader = servers.iter().find(|s| s.is_leader()).unwrap();
    assert!(new_leader.epoch() > 1, "election must advance the epoch");

    // The orphaned client fails over to a survivor; the follower client's
    // connection survived and its writes are forwarded to the new leader.
    leader_client
        .reconnect_to(survivor_addrs[0])
        .or_else(|_| leader_client.reconnect_to(survivor_addrs[1]))
        .expect("failover reconnect");
    let (data, _) = leader_client.get_data("/pre-crash", false).unwrap();
    assert_eq!(data, b"durable", "a committed write survives the leader crash");

    create_with_retry(&mut leader_client, "/post-crash-a", &survivor_addrs);
    create_with_retry(&mut follower_client, "/post-crash-b", &survivor_addrs);

    // Both survivors converge to identical trees and zxids.
    for path in ["/pre-crash", "/post-crash-a", "/post-crash-b"] {
        for server in &servers {
            let server_id = server.id();
            wait_until(&format!("{path} on {server_id}"), || {
                server.replica().tree().contains(path)
            });
        }
    }
    wait_until("zxid convergence", || {
        servers.iter().all(|s| s.last_applied_zxid() == servers[0].last_applied_zxid())
    });
    let paths: Vec<Vec<String>> = servers.iter().map(|s| s.replica().tree().paths()).collect();
    assert_eq!(paths[0], paths[1], "surviving replicas diverged");

    leader_client.close();
    follower_client.close();
}

#[test]
fn ephemerals_vanish_cluster_wide_when_their_session_closes() {
    let servers = start_ensemble(3);
    let mut owner = connect(&servers[1]);
    let mut observer = connect(&servers[2]);
    observer.create("/group", vec![], CreateMode::Persistent).unwrap();
    wait_until("group replication", || servers[1].replica().tree().contains("/group"));
    owner.create("/group/member", vec![], CreateMode::Ephemeral).unwrap();
    for server in &servers {
        wait_until("ephemeral replication", || server.replica().tree().contains("/group/member"));
    }
    owner.close();
    for server in &servers {
        wait_until("ephemeral cleanup", || !server.replica().tree().contains("/group/member"));
    }
    assert_eq!(observer.get_children("/group", false).unwrap().len(), 0);
    observer.close();
}

#[test]
fn quorum_loss_yields_a_typed_failure_not_a_hang() {
    let mut servers = start_ensemble(3);
    let mut client = connect(&servers[0]);
    client.create("/while-healthy", vec![], CreateMode::Persistent).unwrap();

    // Crash both followers: the leader keeps serving reads but cannot commit.
    servers.remove(2).shutdown();
    servers.remove(1).shutdown();
    let started = Instant::now();
    let result = client.create("/no-quorum", vec![], CreateMode::Persistent);
    assert!(result.is_err(), "a quorum-less write must fail");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "the failure must be bounded by the write timeout"
    );
    // Reads are still served locally.
    let mut reader = ZkTcpClient::connect_ensemble(
        &[servers[0].client_addr()],
        Arc::new(PlainCredentials),
        DEFAULT_SESSION_TIMEOUT_MS,
    )
    .expect("connect to the surviving leader");
    reader.get_data("/while-healthy", false).expect("reads survive quorum loss");
}

/// Payload of one bulk write in the log-bound tests: 32 of them fill the
/// budget.
const BULK_BYTES: usize = 32 * 1024;

/// Reads one gauge the way an operator's scrape does.
fn gauge(server: &ZkEnsembleServer, name: &str) -> f64 {
    server
        .metrics()
        .registry()
        .flatten()
        .into_iter()
        .find_map(|(key, value)| (key == name).then_some(value))
        .unwrap_or_else(|| panic!("{name} is exported"))
}

/// Every path with its payload and stat: byte-for-byte tree identity.
fn fingerprint(server: &ZkEnsembleServer) -> Vec<(String, Vec<u8>, Stat)> {
    let replica = server.replica();
    let tree = replica.tree();
    tree.nodes_sorted()
        .into_iter()
        .map(|(path, node)| (path.to_string(), node.data().to_vec(), *node.stat()))
        .collect()
}

#[test]
fn memory_only_follower_behind_the_log_horizon_rejoins_by_snapshot() {
    let mut servers: Vec<Option<ZkEnsembleServer>> =
        start_ensemble(3).into_iter().map(Some).collect();
    let peer_addrs: HashMap<NodeId, SocketAddr> =
        servers.iter().flatten().map(|s| (s.id(), s.peer_addr())).collect();
    let leader = servers[0].take().expect("member 1");
    assert!(leader.is_leader());
    let mut client = connect(&leader);
    client.create("/bulk", vec![], CreateMode::Persistent).unwrap();
    let follower = servers[2].take().expect("member 3");
    wait_until("follower sees /bulk", || follower.replica().tree().contains("/bulk"));
    follower.shutdown();

    // Twice the budget lands while the follower is down, so the leader's
    // log no longer reaches back to the follower's tip.
    for i in 0..64u8 {
        client
            .create(&format!("/bulk/n-{i:02}"), vec![i; BULK_BYTES], CreateMode::Persistent)
            .unwrap();
    }
    wait_until("leader log gauges refresh", || gauge(&leader, "zk_zab_log_entries") < 64.0);
    assert!(gauge(&leader, "zk_zab_log_retained_bytes") <= LOG_RETAINED_BYTES as f64);

    // Restart the follower empty (memory-only: nothing to recover) on its
    // old peer address.
    let deadline = Instant::now() + Duration::from_secs(10);
    let follower = loop {
        match ZkEnsembleServer::start(
            NodeId(3),
            peer_addrs.clone(),
            "127.0.0.1:0",
            Arc::new(ZkReplica::new(3)),
            test_config(),
        ) {
            Ok(server) => break server,
            Err(err) => {
                assert!(Instant::now() < deadline, "restart never bound: {err}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    // Keep writing: the first proposal that reaches the restarted member
    // does not chain onto its empty log, and its resync request lands below
    // the leader's horizon, so it is answered with the tree. (Frames sent
    // while the leader's link to it is still re-dialling are dropped, so a
    // single write might never reach it.)
    let rejoin_deadline = Instant::now() + Duration::from_secs(10);
    let mut after = 0;
    while follower.sync_stats().snapshots_installed == 0 {
        assert!(Instant::now() < rejoin_deadline, "the follower never installed a snapshot");
        client.create(&format!("/bulk/after-{after}"), vec![], CreateMode::Persistent).unwrap();
        after += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(leader.sync_stats().snapshots_shipped >= 1);

    let middle = servers[1].take().expect("member 2");
    wait_until("zxid convergence", || {
        let zxid = leader.last_applied_zxid();
        middle.last_applied_zxid() == zxid && follower.last_applied_zxid() == zxid
    });
    let reference = fingerprint(&leader);
    assert_eq!(reference.len(), 2 + 64 + after, "root, /bulk and every write under it");
    assert!(fingerprint(&middle) == reference, "member 2 diverged");
    assert!(fingerprint(&follower) == reference, "the rejoined member diverged");
    client.close();
}

#[test]
fn memory_only_member_log_stays_within_its_byte_budget() {
    let servers = start_ensemble(1);
    let member = &servers[0];
    let mut client = connect(member);
    client.create("/bulk", vec![], CreateMode::Persistent).unwrap();
    // Four times the budget, sampling the scraped gauges as it lands.
    let mut peak = 0.0f64;
    for i in 0..128u8 {
        client
            .create(&format!("/bulk/n-{i:03}"), vec![i; BULK_BYTES], CreateMode::Persistent)
            .unwrap();
        peak = peak.max(gauge(member, "zk_zab_log_retained_bytes"));
    }
    wait_until("log gauges refresh", || {
        gauge(member, "zk_zab_log_retained_bytes") >= (LOG_RETAINED_BYTES - 2 * BULK_BYTES) as f64
    });
    let retained = gauge(member, "zk_zab_log_retained_bytes");
    let entries = gauge(member, "zk_zab_log_entries");
    assert!(
        peak.max(retained) <= LOG_RETAINED_BYTES as f64,
        "retained {retained} (peak {peak}) bytes"
    );
    assert!(entries < 40.0, "{entries} log entries retained for 129 writes");
    // Compaction dropped only log entries, never tree state.
    assert_eq!(client.get_children("/bulk", false).unwrap().len(), 128);
    client.close();
}
