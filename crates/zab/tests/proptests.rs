//! Property-based tests for the agreement protocol: safety (agreement, total
//! order, durability of committed writes) holds under arbitrary interleavings
//! of writes, crashes and recoveries, as long as a quorum survives.

use proptest::prelude::*;

use zab::message::{Txn, ZabMessage};
use zab::wire::{decode_envelope, encode_envelope};
use zab::{Envelope, NodeId, TxnLog, ZabCluster, Zxid};

/// A step of a randomly generated cluster schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Submit a write with the given payload byte.
    Write(u8),
    /// Crash the replica with this index (modulo cluster size).
    Crash(usize),
    /// Recover the replica with this index (modulo cluster size).
    Recover(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(Step::Write),
        1 => (0usize..5).prop_map(Step::Crash),
        1 => (0usize..5).prop_map(Step::Recover),
    ]
}

/// Applies a schedule, never letting the cluster lose its quorum (the paper's
/// fault model: a minority of crash faults).
fn run_schedule(size: usize, steps: &[Step]) -> (ZabCluster, Vec<(Zxid, u8)>) {
    let mut cluster = ZabCluster::new(size);
    let ids: Vec<NodeId> = cluster.node_ids().to_vec();
    let quorum = size / 2 + 1;
    let mut committed = Vec::new();

    for step in steps {
        match step {
            Step::Write(payload) => {
                if let Some(zxid) = cluster.broadcast(vec![*payload]) {
                    committed.push((zxid, *payload));
                }
            }
            Step::Crash(index) => {
                let id = ids[index % ids.len()];
                if !cluster.is_crashed(id) && cluster.alive_count() > quorum {
                    cluster.crash(id);
                }
            }
            Step::Recover(index) => {
                let id = ids[index % ids.len()];
                if cluster.is_crashed(id) {
                    cluster.recover(id);
                }
            }
        }
    }
    (cluster, committed)
}

fn arb_zxid() -> impl Strategy<Value = Zxid> {
    (any::<u32>(), any::<u32>()).prop_map(|(epoch, counter)| Zxid { epoch, counter })
}

fn arb_txn() -> impl Strategy<Value = Txn> {
    (arb_zxid(), proptest::collection::vec(any::<u8>(), 0..256))
        .prop_map(|(zxid, payload)| Txn::new(zxid, payload))
}

/// Every [`ZabMessage`] variant, with arbitrary field values.
fn arb_message() -> impl Strategy<Value = ZabMessage> {
    prop_oneof![
        (arb_txn(), arb_zxid()).prop_map(|(txn, prev)| ZabMessage::Proposal { txn, prev }),
        (arb_zxid(), any::<u32>())
            .prop_map(|(zxid, from)| ZabMessage::Ack { zxid, from: NodeId(from) }),
        arb_zxid().prop_map(|zxid| ZabMessage::Commit { zxid }),
        (any::<u32>(), proptest::collection::vec(arb_txn(), 0..8))
            .prop_map(|(epoch, txns)| ZabMessage::NewLeaderSync { epoch, txns }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(from, epoch)| ZabMessage::SyncAck { from: NodeId(from), epoch }),
        any::<u32>().prop_map(|epoch| ZabMessage::Heartbeat { epoch }),
        (any::<u32>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(origin, request_id, payload)| ZabMessage::ForwardWrite {
                origin: NodeId(origin),
                request_id,
                payload,
            }
        ),
        (any::<u32>(), arb_zxid()).prop_map(|(from, last_logged)| ZabMessage::SyncRequest {
            from: NodeId(from),
            last_logged,
        }),
        (any::<u32>(), arb_zxid(), any::<u32>()).prop_map(|(epoch, last_logged, from)| {
            ZabMessage::Election { epoch, last_logged, from: NodeId(from) }
        }),
        (
            any::<u32>(),
            arb_zxid(),
            any::<u32>(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(epoch, snapshot_zxid, seq, last, bytes)| {
                ZabMessage::SnapshotChunk { epoch, snapshot_zxid, seq, last, bytes }
            }),
    ]
}

/// One mutation of a [`TxnLog`] in the log model test.
#[derive(Debug, Clone)]
enum LogOp {
    /// Append the next proposal with a payload of this many bytes.
    Append(usize),
    /// Commit up to the entry this many places past the watermark.
    Commit(u32),
    /// Compact committed entries down to this many payload bytes.
    Compact(usize),
    /// Drop the uncommitted tail (become-follower truncation).
    Truncate,
}

fn arb_log_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        4 => (0usize..300).prop_map(LogOp::Append),
        2 => (0u32..6).prop_map(LogOp::Commit),
        2 => (0usize..800).prop_map(LogOp::Compact),
        1 => Just(LogOp::Truncate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wire_codec_roundtrips_every_message_variant(
        from in any::<u32>(),
        message in arb_message(),
    ) {
        let envelope = Envelope { from: NodeId(from), message };
        let bytes = encode_envelope(&envelope);
        prop_assert_eq!(decode_envelope(&bytes).unwrap(), envelope);
    }

    #[test]
    fn wire_codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Decoding arbitrary bytes must fail cleanly, never panic; and when it
        // does decode, re-encoding reproduces the input exactly.
        if let Ok(envelope) = decode_envelope(&bytes) {
            prop_assert_eq!(encode_envelope(&envelope), bytes);
        }
    }

    #[test]
    fn committed_writes_are_totally_ordered_and_durable(
        steps in proptest::collection::vec(arb_step(), 1..60)
    ) {
        let (mut cluster, committed) = run_schedule(3, &steps);

        // Zxids of successful broadcasts are strictly increasing: total order.
        for window in committed.windows(2) {
            prop_assert!(window[1].0 > window[0].0, "{:?} !> {:?}", window[1].0, window[0].0);
        }

        // Bring everyone back and let them synchronize.
        for id in cluster.node_ids().to_vec() {
            if cluster.is_crashed(id) {
                cluster.recover(id);
            }
        }

        // Every replica's committed log contains every acknowledged write, in
        // the same order (agreement + durability).
        let expected: Vec<(u64, u8)> = committed.iter().map(|(z, p)| (z.as_u64(), *p)).collect();
        for id in cluster.node_ids().to_vec() {
            let log: Vec<(u64, u8)> = cluster
                .node(id)
                .log()
                .committed()
                .map(|txn| (txn.zxid.as_u64(), txn.payload[0]))
                .collect();
            // The replica may have committed everything we saw acknowledged…
            for entry in &expected {
                prop_assert!(log.contains(entry), "{id} is missing {entry:?}");
            }
            // …and whatever it committed is a superset ordered consistently.
            let mut sorted = log.clone();
            sorted.sort_by_key(|(z, _)| *z);
            prop_assert_eq!(&log, &sorted, "commit order on {}", id);
        }
    }

    #[test]
    fn replicas_never_diverge_even_while_some_are_down(
        steps in proptest::collection::vec(arb_step(), 1..60)
    ) {
        let (cluster, _) = run_schedule(3, &steps);
        // Among the replicas that are currently alive, any two committed logs
        // must be prefixes of one another (no forks).
        let alive: Vec<NodeId> =
            cluster.node_ids().iter().copied().filter(|&id| !cluster.is_crashed(id)).collect();
        for &a in &alive {
            for &b in &alive {
                let log_a: Vec<u64> = cluster.node(a).log().committed().map(|t| t.zxid.as_u64()).collect();
                let log_b: Vec<u64> = cluster.node(b).log().committed().map(|t| t.zxid.as_u64()).collect();
                let shorter = log_a.len().min(log_b.len());
                prop_assert_eq!(&log_a[..shorter], &log_b[..shorter], "fork between {} and {}", a, b);
            }
        }
    }

    #[test]
    fn leadership_changes_never_lose_quorum_acknowledged_writes(
        crash_after in 1usize..10,
        writes in 2usize..12,
    ) {
        let mut cluster = ZabCluster::new(5);
        let mut acknowledged = Vec::new();
        for i in 0..writes {
            if let Some(zxid) = cluster.broadcast(vec![i as u8]) {
                acknowledged.push(zxid);
            }
            if i == crash_after % writes {
                let leader = cluster.leader_id();
                cluster.crash(leader);
            }
        }
        // After the dust settles the current leader holds every acknowledged write.
        let leader = cluster.leader_id();
        let log: Vec<u64> = cluster.node(leader).log().committed().map(|t| t.zxid.as_u64()).collect();
        for zxid in acknowledged {
            prop_assert!(log.contains(&zxid.as_u64()), "leader lost {zxid}");
        }
    }

    /// `TxnLog` against a plain model: every commit returns exactly the
    /// newly committed entries in zxid order, byte compaction leaves the
    /// committed entries within budget and never drops an uncommitted one,
    /// and the credential floors at the horizon.
    #[test]
    fn txn_log_matches_a_plain_model_under_commit_and_compaction(
        ops in proptest::collection::vec(arb_log_op(), 1..80),
    ) {
        let mut log = TxnLog::new();
        // Model: every txn ever appended and not truncated, plus the
        // watermark; compaction only hides a prefix of it.
        let mut model: Vec<(Zxid, usize)> = Vec::new();
        let mut watermark = Zxid::ZERO;
        let mut next = 1u32;
        for op in ops {
            match op {
                LogOp::Append(bytes) => {
                    let zxid = Zxid { epoch: 1, counter: next };
                    next += 1;
                    log.append(Txn::new(zxid, vec![0u8; bytes]));
                    model.push((zxid, bytes));
                }
                LogOp::Commit(ahead) => {
                    let pending: Vec<Zxid> =
                        model.iter().map(|e| e.0).filter(|z| *z > watermark).collect();
                    let Some(&target) = pending.get(ahead as usize).or(pending.last()) else {
                        continue;
                    };
                    let newly: Vec<Zxid> = log.commit_up_to(target).iter().map(|t| t.zxid).collect();
                    let expected: Vec<Zxid> =
                        pending.into_iter().filter(|z| *z <= target).collect();
                    prop_assert_eq!(newly, expected);
                    watermark = target;
                }
                LogOp::Compact(budget) => {
                    log.compact_to_bytes(budget);
                    prop_assert!(log.committed_bytes() <= budget);
                }
                LogOp::Truncate => {
                    log.truncate_uncommitted();
                    model.retain(|e| e.0 <= watermark);
                    // Truncated slots are proposed again by a new leader.
                    next = watermark.counter.max(log.horizon().counter) + 1;
                }
            }
            // Retained entries are a suffix of the model; everything the
            // compaction dropped was committed and at or below the horizon.
            let retained: Vec<Zxid> = log.entries_after(Zxid::ZERO).iter().map(|t| t.zxid).collect();
            let suffix: Vec<Zxid> =
                model.iter().map(|e| e.0).filter(|z| *z > log.horizon()).collect();
            prop_assert_eq!(&retained, &suffix);
            prop_assert!(log.horizon() <= watermark);
            prop_assert_eq!(log.last_committed(), watermark);
            let committed_bytes: usize = model
                .iter()
                .filter(|e| e.0 > log.horizon() && e.0 <= watermark)
                .map(|e| e.1)
                .sum();
            prop_assert_eq!(log.committed_bytes(), committed_bytes);
            let tip = model.last().map_or(Zxid::ZERO, |e| e.0);
            prop_assert_eq!(log.last_logged(), tip.max(log.horizon()));
        }
    }
}
