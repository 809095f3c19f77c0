//! Replica persistence: DataTree snapshots plus the durable transaction log.
//!
//! This module is the glue between the storage primitives of the `persist`
//! crate (segment-file WAL, snapshot files — both content-oblivious) and
//! the replica's state:
//!
//! * [`encode_snapshot`] / [`decode_snapshot`] — the jute codec for a whole
//!   [`DataTree`] (payloads, stats, child sets via path structure,
//!   sequential counters, ephemeral owners) plus the session table. In
//!   secure mode, paths and payloads in the tree are already ciphertext, so
//!   a snapshot is sealed at rest *by construction* — the codec never sees
//!   a plaintext byte.
//! * [`ReplicaPersistence`] — one replica's data directory
//!   (`<dir>/log/` + `<dir>/snap/`): recovery on open (newest valid
//!   snapshot + log suffix), the [`zab::DurableLog`] sink that mirrors the
//!   in-memory [`zab::TxnLog`] to disk, periodic snapshot-and-purge, and
//!   adoption of leader-shipped snapshots.
//!
//! The ensemble server ([`crate::ensemble::ZkEnsembleServer`]) threads a
//! `ReplicaPersistence` through boot (recover), the write path (group-commit
//! fsync per drain) and sync (snapshot shipping to lagging peers).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use jute::records::Stat;
use jute::{InputArchive, OutputArchive};
use persist::{SnapshotStore, Wal, WalConfig};
use zab::{DurableLog, Txn, TxnLog, Zxid};

use crate::error::ZkError;
use crate::server::ZkReplica;
use crate::session::SessionRecord;
use crate::tree::{DataTree, Znode};

/// Snapshot codec version byte. Version 2 added session passwords to the
/// session table (so clients can re-attach after a full-ensemble restart);
/// version-1 snapshots still decode, with empty passwords.
const SNAPSHOT_VERSION: u8 = 2;

/// Tuning knobs of a replica's persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// WAL: force an fsync once this many records accumulate inside one
    /// write-queue drain (the drain itself always ends with one sync).
    pub fsync_every: usize,
    /// WAL: segment rollover size.
    pub segment_max_bytes: u64,
    /// Take a snapshot (and truncate the log behind it) every this many
    /// applied transactions. `u64::MAX` disables periodic snapshots.
    pub snapshot_every: u64,
    /// How many snapshot files to keep on disk.
    pub snapshots_retained: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync_every: 64,
            segment_max_bytes: 8 * 1024 * 1024,
            snapshot_every: 1024,
            snapshots_retained: 3,
        }
    }
}

/// Serializes the whole tree plus the session table at one point in time.
///
/// Layout (jute): version byte, node count, then per node *in sorted path
/// order* (parents precede children): path, payload buffer, [`Stat`],
/// sequential counter; then the session count and per session id, timeout
/// and password buffer.
pub fn encode_snapshot(tree: &DataTree, sessions: &[SessionRecord]) -> Vec<u8> {
    let nodes = tree.nodes_sorted();
    let mut out = OutputArchive::with_capacity(64 + nodes.len() * 96);
    out.write_u8(SNAPSHOT_VERSION);
    out.write_i32(nodes.len() as i32);
    for (path, node) in nodes {
        out.write_string(path);
        out.write_buffer(node.data());
        node.stat().serialize(&mut out);
        out.write_i32(node.next_sequence() as i32);
    }
    out.write_i32(sessions.len() as i32);
    for session in sessions {
        out.write_i64(session.id);
        out.write_i64(session.timeout_ms);
        out.write_buffer(&session.password);
    }
    out.into_bytes()
}

/// Decodes a snapshot produced by [`encode_snapshot`].
///
/// # Errors
///
/// Returns [`ZkError::Marshalling`] on truncated or structurally invalid
/// input (bad counts, malformed paths, duplicate nodes, orphans, missing
/// root) — garbage bytes are rejected, never installed and never panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(DataTree, Vec<SessionRecord>), ZkError> {
    let mut input = InputArchive::new(bytes);
    let version = input.read_u8("snapshot version")?;
    if version == 0 || version > SNAPSHOT_VERSION {
        return Err(ZkError::Marshalling { reason: format!("snapshot version {version}") });
    }
    let node_count = input.read_i32("snapshot node count")?;
    if node_count < 0 {
        return Err(ZkError::Marshalling { reason: "negative node count".into() });
    }
    let mut pairs = Vec::with_capacity((node_count as usize).min(4096));
    for _ in 0..node_count {
        let path = input.read_string("node path")?;
        let data = input.read_buffer("node data")?;
        let stat = Stat::deserialize(&mut input)?;
        let next_sequence = input.read_i32("node sequence counter")? as u32;
        pairs.push((path, Znode::from_parts(data, stat, next_sequence)));
    }
    let session_count = input.read_i32("session count")?;
    if session_count < 0 {
        return Err(ZkError::Marshalling { reason: "negative session count".into() });
    }
    let mut sessions = Vec::with_capacity((session_count as usize).min(4096));
    for _ in 0..session_count {
        let id = input.read_i64("session id")?;
        let timeout_ms = input.read_i64("session timeout")?;
        // Version 1 predates durable passwords: the session re-derives one
        // on adoption, as it always did.
        let password =
            if version >= 2 { input.read_buffer("session password")? } else { Vec::new() };
        sessions.push(SessionRecord { id, timeout_ms, password });
    }
    input.expect_exhausted()?;
    let tree = DataTree::from_nodes(pairs)?;
    Ok((tree, sessions))
}

/// Serializes the replica's current state, returning the zxid the snapshot
/// is valid at. The tree's shared lock pins the zxid and the contents
/// together (writers take the exclusive lock).
pub fn snapshot_replica(replica: &ZkReplica) -> (i64, Vec<u8>) {
    let tree = replica.tree();
    let zxid = replica.last_zxid();
    let bytes = encode_snapshot(&tree, &replica.session_records());
    (zxid, bytes)
}

/// The longest prefix of `txns` that chains gaplessly onto `horizon`
/// (each zxid [`Zxid::follows`] the previous one). Recovery uses this to
/// reject a WAL suffix disconnected from the snapshot it boots from: when
/// the newest snapshot rots and boot falls back to an older one, the log —
/// already truncated against the newer snapshot — no longer reaches back
/// far enough, and replaying across the gap would silently diverge.
pub fn chained_suffix(txns: Vec<Txn>, horizon: Zxid) -> Vec<Txn> {
    let mut chained = Vec::with_capacity(txns.len());
    for txn in txns {
        if txn.zxid <= horizon {
            continue;
        }
        let prev = chained.last().map_or(horizon, |t: &Txn| t.zxid);
        if !txn.zxid.follows(prev) {
            break;
        }
        chained.push(txn);
    }
    chained
}

/// What [`ReplicaPersistence::open`] recovered from the data directory.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Newest valid snapshot, if any: the zxid it was taken at and its
    /// serialized bytes.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Log transactions, in zxid order (may include entries the snapshot
    /// already covers; the ensemble filters by zxid).
    pub txns: Vec<Txn>,
    /// Recovered commit watermark.
    pub committed: Zxid,
}

/// Sink mirroring a [`zab::TxnLog`] into the shared WAL. I/O failures are
/// fatal: like ZooKeeper, a replica that cannot persist its log must stop
/// rather than silently serve un-durable acknowledgements.
struct WalSink(Arc<Mutex<Wal>>);

impl DurableLog for WalSink {
    fn append_txn(&mut self, txn: &Txn) {
        self.0.lock().append_txn(txn).expect("WAL append failed");
    }

    fn mark_committed(&mut self, zxid: Zxid) {
        self.0.lock().append_commit(zxid).expect("WAL commit mark failed");
    }

    fn truncate_after(&mut self, zxid: Zxid) {
        self.0.lock().truncate_after(zxid).expect("WAL truncate failed");
    }

    fn reset_to(&mut self, zxid: Zxid) {
        self.0.lock().reset_to(zxid).expect("WAL reset failed");
    }

    fn sync(&mut self) {
        self.0.lock().sync().expect("WAL fsync failed");
    }
}

/// One replica's durable state: the WAL under `<dir>/log/`, snapshots under
/// `<dir>/snap/`, and the snapshot cadence counter.
pub struct ReplicaPersistence {
    data_dir: PathBuf,
    wal: Arc<Mutex<Wal>>,
    snapshots: SnapshotStore,
    config: PersistConfig,
    applied_since_snapshot: AtomicU64,
    snapshots_taken: AtomicU64,
    recovery: Mutex<Option<RecoveredState>>,
}

impl std::fmt::Debug for ReplicaPersistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaPersistence")
            .field("data_dir", &self.data_dir)
            .field("snapshots_taken", &self.snapshots_taken.load(Ordering::Relaxed))
            .finish()
    }
}

impl ReplicaPersistence {
    /// Opens (creating if needed) the data directory and recovers its
    /// contents: the newest valid snapshot plus the surviving log.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. Damaged *content* (torn log tails, corrupt
    /// snapshots) is handled by falling back, never surfaced as an error.
    pub fn open(data_dir: impl AsRef<Path>, config: PersistConfig) -> io::Result<Self> {
        let data_dir = data_dir.as_ref().to_path_buf();
        let wal_config = WalConfig {
            fsync_every: config.fsync_every,
            segment_max_bytes: config.segment_max_bytes,
        };
        let (wal, wal_recovery) = Wal::open(data_dir.join("log"), wal_config)?;
        let snapshots = SnapshotStore::open(data_dir.join("snap"))?;
        let snapshot = snapshots.load_latest();
        let recovered =
            RecoveredState { snapshot, txns: wal_recovery.txns, committed: wal_recovery.committed };
        Ok(ReplicaPersistence {
            data_dir,
            wal: Arc::new(Mutex::new(wal)),
            snapshots,
            config,
            applied_since_snapshot: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
            recovery: Mutex::new(Some(recovered)),
        })
    }

    /// The data directory this persistence writes under.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// The configuration this persistence was opened with.
    pub fn config(&self) -> PersistConfig {
        self.config
    }

    /// Measures the on-disk footprint of the WAL and snapshot directories
    /// (file sizes as of this call), for the `dirs` admin word.
    pub fn dir_sizes(&self) -> opsplane::DataDirInfo {
        fn scan(dir: &Path) -> (u64, u64) {
            let mut bytes = 0;
            let mut files = 0;
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if let Ok(meta) = entry.metadata() {
                        if meta.is_file() {
                            bytes += meta.len();
                            files += 1;
                        }
                    }
                }
            }
            (bytes, files)
        }
        let (wal_bytes, wal_segments) = scan(&self.data_dir.join("log"));
        let (snapshot_bytes, snapshots) = scan(&self.data_dir.join("snap"));
        opsplane::DataDirInfo {
            data_dir: self.data_dir.display().to_string(),
            wal_bytes,
            wal_segments,
            snapshot_bytes,
            snapshots,
        }
    }

    /// Takes the state recovered at [`ReplicaPersistence::open`] (consumed
    /// once, by the ensemble boot path).
    pub fn take_recovery(&self) -> RecoveredState {
        self.recovery.lock().take().unwrap_or_default()
    }

    /// A [`DurableLog`] sink that mirrors a [`TxnLog`] into this WAL.
    pub fn durable_sink(&self) -> Box<dyn DurableLog> {
        Box::new(WalSink(Arc::clone(&self.wal)))
    }

    /// Builds the recovered in-memory log (entries above the snapshot
    /// horizon, commit watermark, horizon) with the durable sink attached.
    pub fn recovered_log(&self, recovered: RecoveredState, horizon: Zxid) -> TxnLog {
        let committed = recovered.committed.max(horizon);
        let mut log = TxnLog::recovered(recovered.txns, committed, horizon);
        log.attach_durable(self.durable_sink());
        log
    }

    /// Group-commit barrier: one fsync for everything appended since the
    /// last one.
    pub fn sync(&self) {
        self.wal.lock().sync().expect("WAL fsync failed");
    }

    /// Counts `applied` freshly applied transactions and reports whether the
    /// snapshot cadence has been reached (the caller then snapshots and
    /// compacts).
    pub fn note_applied(&self, applied: u64) -> bool {
        if self.config.snapshot_every == u64::MAX {
            return false;
        }
        let total = self.applied_since_snapshot.fetch_add(applied, Ordering::Relaxed) + applied;
        if total >= self.config.snapshot_every {
            self.applied_since_snapshot.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Writes a snapshot of the replica's current state, prunes old
    /// snapshots, and purges log segments the snapshot covers. Returns the
    /// snapshot zxid; the caller compacts the in-memory log behind it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the previous snapshot remains intact).
    pub fn snapshot_now(&self, replica: &ZkReplica) -> io::Result<Zxid> {
        let (zxid, bytes) = snapshot_replica(replica);
        self.snapshots.save(zxid as u64, &bytes)?;
        self.snapshots.retain(self.config.snapshots_retained)?;
        let snap_zxid = Zxid::from_u64(zxid as u64);
        {
            let mut wal = self.wal.lock();
            // Roll first so the segment holding the covered suffix is closed
            // and becomes purgeable at the *next* snapshot.
            wal.roll()?;
            wal.purge_through(snap_zxid)?;
        }
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        Ok(snap_zxid)
    }

    /// Records a leader-shipped snapshot in the local store (the WAL itself
    /// is reset through the [`DurableLog`] sink when the log adopts it).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn adopt_shipped_snapshot(&self, zxid: u64, bytes: &[u8]) -> io::Result<()> {
        self.snapshots.save(zxid, bytes)?;
        self.snapshots.retain(self.config.snapshots_retained)?;
        self.applied_since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Durably records an election vote grant *before* it leaves the node:
    /// `<dir>/grant.vote` holds the granted epoch and candidate, written
    /// atomically (tmp + fsync + rename). A member that crashes and rejoins
    /// within the same epoch therefore cannot hand out a second grant —
    /// the single-grant-per-epoch invariant survives restarts.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller must *not* send the grant then.
    pub fn record_grant(&self, epoch: u32, candidate: zab::NodeId) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(12);
        bytes.extend_from_slice(&epoch.to_be_bytes());
        bytes.extend_from_slice(&candidate.0.to_be_bytes());
        let crc = persist::crc::crc32c(&bytes);
        bytes.extend_from_slice(&crc.to_be_bytes());
        let tmp = self.data_dir.join("grant.vote.tmp");
        let path = self.data_dir.join("grant.vote");
        std::fs::write(&tmp, &bytes)?;
        std::fs::File::open(&tmp)?.sync_data()?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The vote grant recovered from `<dir>/grant.vote`, if a valid one is
    /// on disk: `(epoch, candidate)` of the most recently persisted grant.
    /// A missing, short, or checksum-failing file reads as "never granted".
    pub fn recovered_grant(&self) -> Option<(u32, zab::NodeId)> {
        let bytes = std::fs::read(self.data_dir.join("grant.vote")).ok()?;
        if bytes.len() != 12 {
            return None;
        }
        let crc = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
        if persist::crc::crc32c(&bytes[..8]) != crc {
            return None;
        }
        let epoch = u32::from_be_bytes(bytes[..4].try_into().ok()?);
        let node = u32::from_be_bytes(bytes[4..8].try_into().ok()?);
        Some((epoch, zab::NodeId(node)))
    }

    /// Number of snapshots written since open (shipped ones not included).
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken.load(Ordering::Relaxed)
    }

    /// Number of fsyncs the WAL has issued (group-commit effectiveness).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.lock().fsync_count()
    }

    /// Total bytes currently held by WAL segments.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DEFAULT_SESSION_TIMEOUT_MS;
    use jute::records::{CreateMode, CreateRequest, SetDataRequest};
    use jute::Request;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zkserver-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populated_replica(writes: usize) -> (ZkReplica, i64) {
        let replica = ZkReplica::new(1);
        let session = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        replica.handle_request(
            session,
            &Request::Create(CreateRequest {
                path: "/app".into(),
                data: b"root".to_vec(),
                mode: CreateMode::Persistent,
            }),
        );
        for i in 0..writes {
            replica.handle_request(
                session,
                &Request::Create(CreateRequest {
                    path: format!("/app/node-{i:03}"),
                    data: vec![i as u8; 16],
                    mode: CreateMode::Persistent,
                }),
            );
        }
        (replica, session)
    }

    fn tree_fingerprint(tree: &DataTree) -> Vec<(String, Vec<u8>, Stat, u32)> {
        tree.nodes_sorted()
            .into_iter()
            .map(|(path, node)| {
                (path.to_string(), node.data().to_vec(), *node.stat(), node.next_sequence())
            })
            .collect()
    }

    #[test]
    fn snapshot_roundtrips_tree_sessions_and_counters() {
        let (replica, session) = populated_replica(5);
        // An ephemeral node and a sequential counter, both snapshot state.
        replica.handle_request(
            session,
            &Request::Create(CreateRequest {
                path: "/app/worker".into(),
                data: vec![],
                mode: CreateMode::Ephemeral,
            }),
        );
        replica.handle_request(
            session,
            &Request::Create(CreateRequest {
                path: "/app/seq-".into(),
                data: vec![],
                mode: CreateMode::PersistentSequential,
            }),
        );
        let (zxid, bytes) = snapshot_replica(&replica);
        assert_eq!(zxid, replica.last_zxid());

        let (tree, sessions) = decode_snapshot(&bytes).unwrap();
        assert_eq!(tree_fingerprint(&tree), tree_fingerprint(&replica.tree()));
        assert_eq!(sessions, replica.session_records());
        assert_eq!(tree.get("/app").unwrap().next_sequence(), 1, "counter survives");
        assert!(tree.get("/app/worker").unwrap().is_ephemeral());
        assert_eq!(tree.ephemerals_of(session), vec!["/app/worker".to_string()]);
    }

    #[test]
    fn garbage_and_truncated_snapshots_are_rejected_not_panicked() {
        let (replica, _) = populated_replica(3);
        let (_, bytes) = snapshot_replica(&replica);
        for len in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..len]).is_err(), "prefix of {len} decoded");
        }
        // Bit flips in the structural header region must not panic either
        // (they may decode to a different-but-valid tree only if they miss
        // every validation, which the counts and path checks prevent).
        for i in 0..bytes.len().min(64) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            let _ = decode_snapshot(&mutated);
        }
        assert!(decode_snapshot(&[0x41; 200]).is_err());
        // A snapshot without the root is structurally invalid.
        let headless = encode_snapshot(&DataTree::new(), &[]);
        let (tree, _) = decode_snapshot(&headless).unwrap();
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn snapshot_plus_suffix_replay_equals_the_oracle() {
        // Oracle: a replica that applied txns 1..=N in memory.
        let replica = ZkReplica::new(1);
        let session = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        let mut txns: Vec<(i64, crate::ops::WriteTxn)> = Vec::new();
        let requests: Vec<Request> = (0..20)
            .map(|i| {
                if i % 4 == 3 {
                    Request::SetData(SetDataRequest {
                        path: format!("/n-{:02}", i - 1),
                        data: vec![0xAB; 8],
                        version: -1,
                    })
                } else {
                    Request::Create(CreateRequest {
                        path: format!("/n-{i:02}"),
                        data: vec![i as u8],
                        mode: CreateMode::Persistent,
                    })
                }
            })
            .collect();
        for (i, request) in requests.iter().enumerate() {
            let txn = crate::ops::WriteTxn {
                session_id: session,
                time_ms: 1000 + i as i64,
                request_bytes: ZkReplica::serialize_request(0, request),
            };
            let zxid = i as i64 + 1;
            replica.apply_txn(zxid, &txn);
            txns.push((zxid, txn));
        }

        // Snapshot at zxid 10, then replay the suffix onto a fresh replica.
        let mid = ZkReplica::new(1);
        let other = mid.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        assert_ne!(other, 0);
        for (zxid, txn) in &txns[..10] {
            mid.apply_txn(*zxid, txn);
        }
        let (snap_zxid, snap_bytes) = snapshot_replica(&mid);
        assert_eq!(snap_zxid, 10);

        let recovered = ZkReplica::new(1);
        let (tree, sessions) = decode_snapshot(&snap_bytes).unwrap();
        recovered.install_snapshot(tree, snap_zxid, &sessions);
        for (zxid, txn) in &txns[10..] {
            recovered.apply_txn(*zxid, txn);
        }
        assert_eq!(recovered.last_zxid(), replica.last_zxid());
        assert_eq!(
            tree_fingerprint(&recovered.tree()),
            tree_fingerprint(&replica.tree()),
            "snapshot-at-zxid + suffix replay diverged from the oracle"
        );
    }

    #[test]
    fn chained_suffix_rejects_history_disconnected_from_the_snapshot() {
        let txn = |epoch: u32, counter: u32| Txn::new(Zxid { epoch, counter }, vec![counter as u8]);
        let horizon = Zxid { epoch: 1, counter: 100 };
        // Contiguous suffix (with an epoch boundary) survives whole.
        let good = vec![txn(1, 101), txn(1, 102), txn(2, 1), txn(2, 2)];
        assert_eq!(chained_suffix(good.clone(), horizon).len(), 4);
        // Entries the snapshot already covers are skipped, the rest chains.
        let overlapping = vec![txn(1, 99), txn(1, 100), txn(1, 101)];
        assert_eq!(chained_suffix(overlapping, horizon).len(), 1);
        // A gap right after the snapshot (newest snapshot rotted, log was
        // truncated against it) rejects the whole suffix.
        let gapped = vec![txn(1, 150), txn(1, 151)];
        assert!(chained_suffix(gapped, horizon).is_empty());
        // A gap in the middle keeps only the chained prefix.
        let mid_gap = vec![txn(1, 101), txn(1, 103)];
        assert_eq!(chained_suffix(mid_gap, horizon).len(), 1);
        // Without a snapshot, history must start at a first proposal.
        assert!(chained_suffix(vec![txn(1, 5)], Zxid::ZERO).is_empty());
        assert_eq!(chained_suffix(vec![txn(1, 1), txn(1, 2)], Zxid::ZERO).len(), 2);
    }

    #[test]
    fn persistence_round_trip_through_disk() {
        let dir = tmp_dir("roundtrip");
        let config = PersistConfig { snapshot_every: u64::MAX, ..PersistConfig::default() };
        let persistence = ReplicaPersistence::open(&dir, config).unwrap();
        assert!(persistence.take_recovery().snapshot.is_none());

        // Drive the WAL through a TxnLog exactly as the ensemble does.
        let mut log = TxnLog::new();
        log.attach_durable(persistence.durable_sink());
        for i in 1..=8u32 {
            log.append(Txn::new(Zxid { epoch: 1, counter: i }, vec![i as u8; 10]));
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 6 });
        log.sync();
        drop(log);
        drop(persistence);

        let reopened = ReplicaPersistence::open(&dir, config).unwrap();
        let recovered = reopened.take_recovery();
        assert_eq!(recovered.txns.len(), 8);
        assert_eq!(recovered.committed, Zxid { epoch: 1, counter: 6 });
        let log = reopened.recovered_log(recovered, Zxid::ZERO);
        assert_eq!(log.last_logged(), Zxid { epoch: 1, counter: 8 });
        assert_eq!(log.last_committed(), Zxid { epoch: 1, counter: 6 });
    }

    #[test]
    fn snapshot_now_purges_the_covered_log() {
        let dir = tmp_dir("purge");
        let config =
            PersistConfig { segment_max_bytes: 256, snapshot_every: 4, ..PersistConfig::default() };
        let persistence = ReplicaPersistence::open(&dir, config).unwrap();
        persistence.take_recovery();

        // Mirror the ensemble: the replica applies committed txns at their
        // packed ZAB zxids, so tree zxids and log zxids agree.
        let replica = ZkReplica::new(1);
        let session = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        let mut log = TxnLog::new();
        log.attach_durable(persistence.durable_sink());
        for i in 1..=7u32 {
            let request = Request::Create(CreateRequest {
                path: format!("/n-{i}"),
                data: vec![0u8; 64],
                mode: CreateMode::Persistent,
            });
            let write = crate::ops::WriteTxn {
                session_id: session,
                time_ms: 1000,
                request_bytes: ZkReplica::serialize_request(0, &request),
            };
            let zxid = Zxid { epoch: 1, counter: i };
            log.append(Txn::new(zxid, vec![0u8; 100]));
            replica.apply_txn(zxid.as_u64() as i64, &write);
        }
        log.commit_up_to(Zxid { epoch: 1, counter: 7 });
        log.sync();
        let bytes_before = persistence.wal_bytes();

        assert!(persistence.note_applied(4), "cadence reached");
        let snap_zxid = persistence.snapshot_now(&replica).unwrap();
        log.compact_through(snap_zxid);
        // Another snapshot purges the segments the first one rolled away.
        let snap_zxid = persistence.snapshot_now(&replica).unwrap();
        log.compact_through(snap_zxid);
        assert!(persistence.wal_bytes() < bytes_before, "covered segments purged");
        assert_eq!(persistence.snapshots_taken(), 2);

        drop(log);
        drop(persistence);
        // Recovery: snapshot + (possibly empty) suffix reproduces the state.
        let reopened = ReplicaPersistence::open(&dir, config).unwrap();
        let recovered = reopened.take_recovery();
        let (snap_zxid_u64, snap_bytes) = recovered.snapshot.as_ref().unwrap();
        assert_eq!(*snap_zxid_u64 as i64, replica.last_zxid());
        let (tree, _) = decode_snapshot(snap_bytes).unwrap();
        assert_eq!(tree_fingerprint(&tree), tree_fingerprint(&replica.tree()));
    }
}
