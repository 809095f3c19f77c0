//! Per-replica transaction log.
//!
//! The log holds the proposals a replica has accepted, in zxid order, with
//! a commit watermark. Committed entries are kept only to serve resyncs of
//! lagging peers, and a member need not keep all of them: compaction drops
//! the oldest committed entries and advances the log's *horizon*. A peer
//! whose tip is below the horizon can no longer be served from the log and
//! needs a snapshot, which the layer above ships. The networked ensemble
//! (`zkserver::ensemble`) compacts after every apply, down to a fixed byte
//! budget of committed payload, and durable members also compact at each
//! snapshot; the in-process [`crate::cluster::ZabCluster`] has no snapshot
//! path and never compacts.

use std::collections::VecDeque;

use crate::message::{Txn, Zxid};

/// Durable backing of a [`TxnLog`]: everything the in-memory log does is
/// mirrored into an implementation of this trait (the `persist` crate's
/// write-ahead log) so a crashed replica can rejoin with its local history.
///
/// Implementations are expected to be *write-behind buffers with a sync
/// barrier*: `append_txn`/`mark_committed` may buffer, and [`DurableLog::
/// sync`] makes everything buffered durable (the driver issues one sync per
/// write-queue drain — group commit). Implementations should treat an I/O
/// failure as fatal for the replica, as ZooKeeper does.
pub trait DurableLog: Send {
    /// Persists one appended proposal.
    fn append_txn(&mut self, txn: &Txn);
    /// Records the advanced commit watermark.
    fn mark_committed(&mut self, zxid: Zxid);
    /// Drops every persisted transaction newer than `zxid` (always the
    /// commit watermark: become-follower truncation).
    fn truncate_after(&mut self, zxid: Zxid);
    /// Replaces the entire persisted history with a snapshot watermark at
    /// `zxid` (a leader-shipped snapshot superseded local history).
    fn reset_to(&mut self, zxid: Zxid);
    /// Makes everything buffered durable (one fsync, group commit).
    fn sync(&mut self);
}

/// An append-only log of transactions with a commit watermark.
///
/// Proposals are appended when received; they become visible to the state
/// machine only once committed. This mirrors ZooKeeper's behaviour where a
/// follower logs a proposal to disk before acknowledging it and applies it to
/// its database only on commit.
///
/// Entries sit in a deque whose committed entries form a prefix. The log
/// tracks the length of that prefix and the payload bytes it holds, so
/// committing, reading a range and compacting cost O(entries touched), not
/// O(log length). Payloads are shared buffers: handing an entry to the
/// commit outbox or a sync frame clones a pointer, not the bytes.
///
/// [`TxnLog::compact_through`] (at a snapshot) and
/// [`TxnLog::compact_to_bytes`] (to a byte budget) drop committed entries
/// from the front and advance the *horizon*; uncommitted entries are never
/// dropped. An optional [`DurableLog`] sink mirrors every other mutation to
/// disk — compaction is memory-only, the disk log is purged separately.
#[derive(Default)]
pub struct TxnLog {
    /// Logged entries in zxid order; the first `committed_len` are committed.
    entries: VecDeque<Txn>,
    committed_len: usize,
    /// Payload bytes of the committed prefix.
    committed_bytes: usize,
    committed_up_to: Zxid,
    /// Compaction boundary: entries at or below it have been dropped. Also
    /// the floor reported by [`TxnLog::last_logged`] when the log is empty.
    horizon: Zxid,
    durable: Option<Box<dyn DurableLog>>,
}

impl std::fmt::Debug for TxnLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnLog")
            .field("entries", &self.entries.len())
            .field("committed_len", &self.committed_len)
            .field("committed_bytes", &self.committed_bytes)
            .field("committed_up_to", &self.committed_up_to)
            .field("horizon", &self.horizon)
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl TxnLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from recovered state: `entries` (sorted, strictly
    /// above `horizon`), the recovered commit watermark, and the snapshot
    /// horizon the on-disk log was truncated at.
    pub fn recovered(entries: Vec<Txn>, committed: Zxid, horizon: Zxid) -> Self {
        let mut log = TxnLog {
            entries: entries.into_iter().filter(|t| t.zxid > horizon).collect(),
            committed_up_to: horizon,
            horizon,
            ..TxnLog::default()
        };
        log.commit_up_to(committed);
        log
    }

    /// Attaches the durable sink that mirrors every future mutation.
    pub fn attach_durable(&mut self, durable: Box<dyn DurableLog>) {
        self.durable = Some(durable);
    }

    /// Appends a proposed transaction.
    ///
    /// Out-of-order or duplicate appends are ignored (idempotent), which keeps
    /// recovery simple: a replica may receive the same proposal again during
    /// leader synchronization.
    pub fn append(&mut self, txn: Txn) {
        if txn.zxid > self.last_logged() {
            if let Some(durable) = &mut self.durable {
                durable.append_txn(&txn);
            }
            self.entries.push_back(txn);
        }
    }

    /// Marks every entry up to and including `zxid` as committed and returns
    /// the newly committed transactions in order.
    ///
    /// The watermark never advances past the last *logged* entry: a commit
    /// referencing transactions this replica has not received yet (lost
    /// frames on a real network) commits only the local prefix, so the
    /// missing entries can still be delivered and applied by a later resync
    /// instead of being silently skipped.
    pub fn commit_up_to(&mut self, zxid: Zxid) -> Vec<Txn> {
        let target = zxid.min(self.last_logged());
        if target <= self.committed_up_to {
            return Vec::new();
        }
        let start = self.committed_len;
        while let Some(txn) = self.entries.get(self.committed_len).filter(|t| t.zxid <= target) {
            self.committed_bytes += txn.payload.len();
            self.committed_len += 1;
        }
        self.committed_up_to = target;
        if let Some(durable) = &mut self.durable {
            durable.mark_committed(target);
        }
        self.entries.range(start..self.committed_len).cloned().collect()
    }

    /// The zxid of the last appended proposal (committed or not). After
    /// compaction or snapshot install this floors at the horizon — the
    /// log's credential reflects the compacted state even when the log is
    /// empty.
    pub fn last_logged(&self) -> Zxid {
        self.entries.back().map_or(self.horizon, |t| t.zxid)
    }

    /// The compaction boundary: entries at or below it were dropped and can
    /// no longer be served from this log.
    pub fn horizon(&self) -> Zxid {
        self.horizon
    }

    /// Drops the committed entries at or below `zxid` (a snapshot covers
    /// them) and advances the horizon. Entries above the commit watermark
    /// are never dropped.
    pub fn compact_through(&mut self, zxid: Zxid) {
        let cut = zxid.min(self.committed_up_to);
        if cut <= self.horizon {
            return;
        }
        while self.entries.front().is_some_and(|t| t.zxid <= cut) {
            self.pop_committed();
        }
        self.horizon = cut;
    }

    /// Drops the oldest committed entries while the committed entries hold
    /// more than `max_bytes` of payload, advancing the horizon to the last
    /// one dropped. Uncommitted entries are never dropped, whatever their
    /// size.
    pub fn compact_to_bytes(&mut self, max_bytes: usize) {
        while self.committed_bytes > max_bytes {
            self.horizon = self.pop_committed().zxid;
        }
    }

    /// Removes the oldest entry, which the caller knows is committed.
    fn pop_committed(&mut self) -> Txn {
        debug_assert!(self.committed_len > 0, "only committed entries are compactable");
        let txn = self.entries.pop_front().expect("a committed entry to drop");
        self.committed_len -= 1;
        self.committed_bytes -= txn.payload.len();
        txn
    }

    /// Resets the log to an installed snapshot: all entries are dropped, the
    /// watermark and horizon both move to `zxid`, and the durable backing is
    /// reset the same way.
    pub fn reset_to_snapshot(&mut self, zxid: Zxid) {
        self.entries.clear();
        self.committed_len = 0;
        self.committed_bytes = 0;
        self.committed_up_to = zxid;
        self.horizon = zxid;
        if let Some(durable) = &mut self.durable {
            durable.reset_to(zxid);
        }
    }

    /// Forces buffered durable writes to disk (one fsync — group commit).
    /// A no-op for a purely in-memory log.
    pub fn sync(&mut self) {
        if let Some(durable) = &mut self.durable {
            durable.sync();
        }
    }

    /// The zxid up to which transactions have been committed.
    pub fn last_committed(&self) -> Zxid {
        self.committed_up_to
    }

    /// All retained committed transactions in order.
    pub fn committed(&self) -> impl Iterator<Item = &Txn> {
        self.entries.range(..self.committed_len)
    }

    /// Payload bytes held by the retained committed transactions — the
    /// quantity [`TxnLog::compact_to_bytes`] bounds.
    pub fn committed_bytes(&self) -> usize {
        self.committed_bytes
    }

    /// Retained committed transactions strictly newer than `after`.
    pub fn committed_after(&self, after: Zxid) -> Vec<Txn> {
        let start = self.index_after(after).min(self.committed_len);
        self.entries.range(start..self.committed_len).cloned().collect()
    }

    /// All retained transactions (committed or not) strictly newer than
    /// `after`.
    pub fn entries_after(&self, after: Zxid) -> Vec<Txn> {
        self.entries.range(self.index_after(after)..).cloned().collect()
    }

    /// Index of the first entry newer than `after`.
    fn index_after(&self, after: Zxid) -> usize {
        self.entries.partition_point(|t| t.zxid <= after)
    }

    /// Discards uncommitted entries from a stale epoch. A replica that
    /// rejoins after a new leader was elected must drop proposals that were
    /// never committed under the old epoch.
    pub fn truncate_uncommitted(&mut self) {
        if self.entries.len() > self.committed_len {
            if let Some(durable) = &mut self.durable {
                durable.truncate_after(self.committed_up_to);
            }
            self.entries.truncate(self.committed_len);
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log retains no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(epoch: u32, counter: u32) -> Txn {
        Txn::new(Zxid { epoch, counter }, vec![counter as u8])
    }

    #[test]
    fn append_and_commit_in_order() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        log.append(txn(1, 3));
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 3 });
        assert_eq!(log.last_committed(), Zxid::ZERO);

        let committed = log.commit_up_to(Zxid { epoch: 1, counter: 2 });
        assert_eq!(committed.len(), 2);
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 2 });
        assert_eq!(log.committed().count(), 2);
    }

    #[test]
    fn duplicate_and_stale_appends_are_ignored() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        log.append(txn(1, 1)); // stale
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn commit_is_idempotent_and_monotonic() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        assert_eq!(log.commit_up_to(Zxid { epoch: 1, counter: 2 }).len(), 2);
        assert!(log.commit_up_to(Zxid { epoch: 1, counter: 2 }).is_empty());
        assert!(log.commit_up_to(Zxid { epoch: 1, counter: 1 }).is_empty());
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 2 });
    }

    #[test]
    fn entries_after_returns_suffix() {
        let mut log = TxnLog::new();
        for i in 1..=5 {
            log.append(txn(1, i));
        }
        let suffix = log.entries_after(Zxid { epoch: 1, counter: 3 });
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].zxid.counter, 4);
    }

    #[test]
    fn truncate_uncommitted_drops_pending_entries() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        log.commit_up_to(Zxid { epoch: 1, counter: 1 });
        log.truncate_uncommitted();
        assert_eq!(log.len(), 1);
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 1 });
    }

    #[test]
    fn truncated_tail_can_be_replaced_by_new_epoch_entries() {
        // A follower that logged proposals the old leader never committed
        // must drop them on truncation and accept the new leader's history
        // in their place (ZAB's "trailing edge" recovery case).
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        log.append(txn(1, 3));
        log.commit_up_to(Zxid { epoch: 1, counter: 1 });
        log.truncate_uncommitted();
        assert_eq!(log.len(), 1);
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 1 });
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 1 });

        // The new leader's divergent history for the same slots arrives.
        log.append(Txn::new(Zxid { epoch: 2, counter: 1 }, &b"new"[..]));
        let committed = log.commit_up_to(Zxid { epoch: 2, counter: 1 });
        assert_eq!(committed.len(), 1);
        assert_eq!(&*committed[0].payload, b"new");
        // The truncated entries never resurface.
        assert_eq!(log.committed().count(), 2);
    }

    #[test]
    fn truncation_with_nothing_committed_empties_the_log() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        log.truncate_uncommitted();
        assert!(log.is_empty());
        assert_eq!(log.last_logged(), Zxid::ZERO);
        // Appending after a full truncation starts cleanly.
        log.append(txn(2, 1));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn epoch_rollover_keeps_ordering_and_commits_across_the_boundary() {
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        // Epoch rolls over: the counter resets but zxids keep increasing
        // because ordering is epoch-major.
        log.append(txn(2, 1));
        log.append(txn(2, 2));
        assert_eq!(log.len(), 4);
        assert_eq!(log.last_logged(), Zxid { epoch: 2, counter: 2 });

        // One commit watermark in the new epoch commits the old-epoch tail too.
        let committed = log.commit_up_to(Zxid { epoch: 2, counter: 1 });
        let zxids: Vec<Zxid> = committed.iter().map(|t| t.zxid).collect();
        assert_eq!(
            zxids,
            vec![
                Zxid { epoch: 1, counter: 1 },
                Zxid { epoch: 1, counter: 2 },
                Zxid { epoch: 2, counter: 1 },
            ]
        );
        // entries_after spans the boundary as well.
        let suffix = log.entries_after(Zxid { epoch: 1, counter: 2 });
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].zxid, Zxid { epoch: 2, counter: 1 });
    }

    #[test]
    fn counter_restart_in_a_new_epoch_is_not_a_stale_append() {
        // epoch 2 counter 1 sorts *after* epoch 1 counter 100: the append
        // must be accepted even though the raw counter went backwards.
        let mut log = TxnLog::new();
        log.append(txn(1, 100));
        log.append(txn(2, 1));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn duplicate_commit_replay_is_idempotent() {
        // A replica that receives the same NewLeaderSync twice (e.g. the new
        // leader retries after a lost SyncAck) must end up with each
        // transaction committed exactly once.
        let mut log = TxnLog::new();
        for i in 1..=3 {
            log.append(txn(1, i));
        }
        let first = log.commit_up_to(Zxid { epoch: 1, counter: 3 });
        assert_eq!(first.len(), 3);

        // Replay: identical appends are ignored, the commit returns nothing.
        for i in 1..=3 {
            log.append(txn(1, i));
        }
        assert!(log.commit_up_to(Zxid { epoch: 1, counter: 3 }).is_empty());
        assert_eq!(log.len(), 3);
        assert_eq!(log.committed().count(), 3);
        // A lower replayed watermark does not move `last_committed` back.
        assert!(log.commit_up_to(Zxid { epoch: 1, counter: 1 }).is_empty());
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 3 });
    }

    #[test]
    fn commit_never_advances_past_the_logged_tip() {
        // A commit referencing entries this replica never received (lost
        // frames) commits only the local prefix; the watermark stays at the
        // tip so a resync can still deliver and commit the missing entries.
        let mut log = TxnLog::new();
        log.append(txn(1, 1));
        log.append(txn(1, 2));
        let committed = log.commit_up_to(Zxid { epoch: 1, counter: 5 });
        assert_eq!(committed.len(), 2);
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 2 });

        // The resync arrives: the previously referenced entries commit now.
        for i in 3..=5 {
            log.append(txn(1, i));
        }
        let committed = log.commit_up_to(Zxid { epoch: 1, counter: 5 });
        assert_eq!(committed.len(), 3);
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 5 });
    }

    #[test]
    fn empty_log_properties() {
        let log = TxnLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last_logged(), Zxid::ZERO);
        assert_eq!(log.last_committed(), Zxid::ZERO);
        assert!(log.entries_after(Zxid::ZERO).is_empty());
    }

    #[test]
    fn compaction_moves_the_horizon_and_floors_the_credential() {
        let mut log = TxnLog::new();
        for i in 1..=6 {
            log.append(txn(1, i));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 4 });
        // Only the committed prefix is compactable.
        log.compact_through(Zxid { epoch: 1, counter: 5 });
        assert_eq!(log.horizon(), Zxid { epoch: 1, counter: 4 });
        assert_eq!(log.len(), 2, "entries above the horizon survive");
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 6 });
        // Compacting everything leaves an empty log that still reports the
        // snapshotted credential.
        log.commit_up_to(Zxid { epoch: 1, counter: 6 });
        log.compact_through(Zxid { epoch: 1, counter: 6 });
        assert!(log.is_empty());
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 6 });
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 6 });
        // Appends chain on top of the floor.
        log.append(txn(1, 7));
        assert_eq!(log.commit_up_to(Zxid { epoch: 1, counter: 7 }).len(), 1);
    }

    #[test]
    fn recovered_log_resumes_where_the_disk_left_off() {
        let entries = vec![txn(2, 5), txn(2, 6), txn(2, 7)];
        let committed = Zxid { epoch: 2, counter: 6 };
        let horizon = Zxid { epoch: 2, counter: 4 };
        let mut log = TxnLog::recovered(entries, committed, horizon);
        assert_eq!(log.last_logged(), Zxid { epoch: 2, counter: 7 });
        assert_eq!(log.last_committed(), committed);
        assert_eq!(log.horizon(), horizon);
        // Entries at or below the horizon are filtered out on construction.
        let log2 = TxnLog::recovered(vec![txn(2, 3), txn(2, 5)], committed, horizon);
        assert_eq!(log2.len(), 1);
        // The uncommitted tail commits normally.
        assert_eq!(log.commit_up_to(Zxid { epoch: 2, counter: 7 }).len(), 1);
    }

    #[test]
    fn reset_to_snapshot_supersedes_local_history() {
        let mut log = TxnLog::new();
        for i in 1..=3 {
            log.append(txn(1, i));
        }
        log.reset_to_snapshot(Zxid { epoch: 3, counter: 50 });
        assert!(log.is_empty());
        assert_eq!(log.last_logged(), Zxid { epoch: 3, counter: 50 });
        assert_eq!(log.last_committed(), Zxid { epoch: 3, counter: 50 });
        assert_eq!(log.horizon(), Zxid { epoch: 3, counter: 50 });
        // The suffix after the snapshot appends and commits cleanly.
        log.append(txn(3, 51));
        assert_eq!(log.commit_up_to(Zxid { epoch: 3, counter: 51 }).len(), 1);
    }

    fn sized(counter: u32, bytes: usize) -> Txn {
        Txn::new(Zxid { epoch: 1, counter }, vec![counter as u8; bytes])
    }

    #[test]
    fn committed_bytes_track_commit_compaction_and_reset() {
        let mut log = TxnLog::new();
        for i in 1..=4 {
            log.append(sized(i, 100));
        }
        assert_eq!(log.committed_bytes(), 0, "uncommitted entries are not counted");
        log.commit_up_to(Zxid { epoch: 1, counter: 3 });
        assert_eq!(log.committed_bytes(), 300);
        log.compact_through(Zxid { epoch: 1, counter: 1 });
        assert_eq!(log.committed_bytes(), 200);
        log.reset_to_snapshot(Zxid { epoch: 2, counter: 1 });
        assert_eq!(log.committed_bytes(), 0);
    }

    #[test]
    fn byte_compaction_drops_the_oldest_committed_entries_down_to_the_budget() {
        let mut log = TxnLog::new();
        for i in 1..=10 {
            log.append(sized(i, 100));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 8 });
        log.compact_to_bytes(250);
        assert_eq!(log.committed_bytes(), 200);
        let kept: Vec<u32> = log.committed().map(|t| t.zxid.counter).collect();
        assert_eq!(kept, vec![7, 8], "the newest committed entries survive");
        assert_eq!(log.horizon(), Zxid { epoch: 1, counter: 6 });
        assert_eq!(log.len(), 4, "the uncommitted tail is untouched");
        // Within budget: nothing more is dropped.
        log.compact_to_bytes(250);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn byte_compaction_never_drops_uncommitted_entries() {
        let mut log = TxnLog::new();
        for i in 1..=5 {
            log.append(sized(i, 1000));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 2 });
        log.compact_to_bytes(0);
        assert_eq!(log.committed().count(), 0);
        assert_eq!(log.horizon(), Zxid { epoch: 1, counter: 2 });
        let tail: Vec<u32> = log.entries_after(Zxid::ZERO).iter().map(|t| t.zxid.counter).collect();
        assert_eq!(tail, vec![3, 4, 5]);
        // The tail still commits and is reported exactly once.
        let newly = log.commit_up_to(Zxid { epoch: 1, counter: 5 });
        assert_eq!(newly.iter().map(|t| t.zxid.counter).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(log.committed_bytes(), 3000);
    }

    #[test]
    fn last_logged_floors_at_the_byte_compaction_horizon() {
        let mut log = TxnLog::new();
        for i in 1..=3 {
            log.append(sized(i, 64));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 3 });
        log.compact_to_bytes(0);
        assert!(log.is_empty());
        assert_eq!(log.horizon(), Zxid { epoch: 1, counter: 3 });
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 3 });
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 3 });
        // New proposals chain onto the floor.
        log.append(sized(4, 64));
        assert_eq!(log.commit_up_to(Zxid { epoch: 1, counter: 4 }).len(), 1);
    }

    #[test]
    fn committed_after_serves_only_the_committed_suffix() {
        let mut log = TxnLog::new();
        for i in 1..=6 {
            log.append(sized(i, 8));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 4 });
        let counters = |txns: Vec<Txn>| txns.iter().map(|t| t.zxid.counter).collect::<Vec<_>>();
        assert_eq!(counters(log.committed_after(Zxid { epoch: 1, counter: 2 })), vec![3, 4]);
        assert!(log.committed_after(Zxid { epoch: 1, counter: 5 }).is_empty());
        assert_eq!(counters(log.committed_after(Zxid::ZERO)), vec![1, 2, 3, 4]);
        assert_eq!(counters(log.entries_after(Zxid { epoch: 1, counter: 4 })), vec![5, 6]);
    }

    #[test]
    fn commit_shares_the_logged_payload_instead_of_copying_it() {
        let mut log = TxnLog::new();
        log.append(sized(1, 4096));
        let newly = log.commit_up_to(Zxid { epoch: 1, counter: 1 });
        let logged = log.committed().next().expect("the committed entry");
        assert!(std::sync::Arc::ptr_eq(&newly[0].payload, &logged.payload));
    }

    /// Records every durable call for ordering assertions.
    #[derive(Default)]
    struct SpyDurable(std::sync::Arc<parking_lot::Mutex<Vec<String>>>);

    impl DurableLog for SpyDurable {
        fn append_txn(&mut self, txn: &Txn) {
            self.0.lock().push(format!("append {}", txn.zxid));
        }
        fn mark_committed(&mut self, zxid: Zxid) {
            self.0.lock().push(format!("commit {zxid}"));
        }
        fn truncate_after(&mut self, zxid: Zxid) {
            self.0.lock().push(format!("truncate {zxid}"));
        }
        fn reset_to(&mut self, zxid: Zxid) {
            self.0.lock().push(format!("reset {zxid}"));
        }
        fn sync(&mut self) {
            self.0.lock().push("sync".into());
        }
    }

    #[test]
    fn durable_sink_mirrors_every_mutation_exactly_once() {
        let calls = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut log = TxnLog::new();
        log.attach_durable(Box::new(SpyDurable(std::sync::Arc::clone(&calls))));
        log.append(txn(1, 1));
        log.append(txn(1, 1)); // duplicate: ignored, not persisted twice
        log.append(txn(1, 2));
        log.commit_up_to(Zxid { epoch: 1, counter: 1 });
        log.commit_up_to(Zxid { epoch: 1, counter: 1 }); // idempotent: no mark
        log.sync();
        log.truncate_uncommitted();
        log.truncate_uncommitted(); // nothing left to truncate: no call
        log.reset_to_snapshot(Zxid { epoch: 2, counter: 9 });
        assert_eq!(
            *calls.lock(),
            vec![
                "append 0x0000000100000001",
                "append 0x0000000100000002",
                "commit 0x0000000100000001",
                "sync",
                "truncate 0x0000000100000001",
                "reset 0x0000000200000009",
            ]
        );
    }
}
