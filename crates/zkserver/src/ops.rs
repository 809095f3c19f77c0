//! Pure application of requests to the data tree — the replicated state machine.
//!
//! Write requests are wrapped in a [`WriteTxn`] (which pins the issuing
//! session and logical time) and totally ordered by ZAB; every replica then
//! calls [`apply_write`] with identical arguments, so all replicas stay
//! byte-for-byte identical. Read requests never go through agreement and are
//! answered directly from the local tree with [`apply_read`].
//!
//! Sequential-node naming goes through the [`SequentialNamer`] hook. Vanilla
//! ZooKeeper appends a zero-padded ten-digit counter
//! ([`DefaultSequentialNamer`]); SecureKeeper replaces the hook with its
//! *counter enclave*, which decrypts the requested (encrypted) name, appends
//! the counter, and re-encrypts the result (paper Section 4.4).

use std::collections::HashSet;

use jute::multi::{MultiRequest, MultiResponse, Op, OpResult};
use jute::records::{
    CreateMode, CreateResponse, ErrorCode, ExistsResponse, GetChildrenResponse, GetDataResponse,
    OpCode, SetDataResponse,
};
use jute::{InputArchive, OutputArchive, Request, Response};

use crate::error::ZkError;
use crate::tree::{split_path, validate_path, DataTree, Znode};

/// Strategy for turning a requested sequential-znode path plus its assigned
/// sequence number into the final znode path.
pub trait SequentialNamer: Send + Sync {
    /// Produces the final path stored in the tree.
    fn name(&self, requested_path: &str, sequence: u32) -> String;
}

/// ZooKeeper's default naming: append the zero-padded ten-digit counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSequentialNamer;

impl SequentialNamer for DefaultSequentialNamer {
    fn name(&self, requested_path: &str, sequence: u32) -> String {
        format!("{requested_path}{sequence:010}")
    }
}

/// Context shared by all replicas when applying one committed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyContext {
    /// The transaction's global id.
    pub zxid: i64,
    /// Logical time in milliseconds (assigned by the leader).
    pub time_ms: i64,
    /// The session that issued the write (owner of ephemeral znodes).
    pub session_id: i64,
}

/// A write transaction as carried in a ZAB proposal payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTxn {
    /// The session that issued the write.
    pub session_id: i64,
    /// Logical time assigned by the leader.
    pub time_ms: i64,
    /// The serialized request (header + body).
    pub request_bytes: Vec<u8>,
}

impl WriteTxn {
    /// Serializes the transaction for the ZAB payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = OutputArchive::with_capacity(self.encoded_len());
        self.serialize(&mut out);
        out.into_bytes()
    }

    /// Appends the fields [`WriteTxn::to_bytes`] produces to `out`, so an
    /// enclosing record can nest the transaction without a second copy.
    pub fn serialize(&self, out: &mut OutputArchive) {
        out.write_i64(self.session_id);
        out.write_i64(self.time_ms);
        out.write_buffer(&self.request_bytes);
    }

    /// Length in bytes of the serialized transaction.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + self.request_bytes.len()
    }

    /// Decodes a transaction from a ZAB payload.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::Marshalling`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ZkError> {
        let mut input = InputArchive::new(bytes);
        let session_id = input.read_i64("session_id")?;
        let time_ms = input.read_i64("time_ms")?;
        let request_bytes = input.read_buffer("request")?;
        input.expect_exhausted()?;
        Ok(WriteTxn { session_id, time_ms, request_bytes })
    }
}

/// Applies a write request to the tree, returning the response the issuing
/// replica sends back to the client.
///
/// # Errors
///
/// Returns the [`ZkError`] describing why the operation was rejected; the tree
/// is left unchanged in that case.
pub fn apply_write(
    tree: &mut DataTree,
    request: &Request,
    ctx: &ApplyContext,
    namer: &dyn SequentialNamer,
) -> Result<Response, ZkError> {
    match request {
        Request::Create(create) => {
            let final_path =
                create_node(tree, &create.path, &create.data, create.mode, ctx, namer, None)?;
            Ok(Response::Create(CreateResponse { path: final_path }))
        }
        Request::Delete(delete) => {
            validate_path(&delete.path)?;
            tree.delete(&delete.path, delete.version, ctx.zxid)?;
            Ok(Response::Delete)
        }
        Request::SetData(set) => {
            validate_path(&set.path)?;
            let stat =
                tree.set_data(&set.path, set.data.clone(), set.version, ctx.zxid, ctx.time_ms)?;
            Ok(Response::SetData(SetDataResponse { stat }))
        }
        Request::Check(check) => {
            validate_path(&check.path)?;
            check_version(tree, &check.path, check.version)?;
            Ok(Response::Check)
        }
        Request::Multi(multi) => Ok(Response::Multi(apply_multi(tree, multi, ctx, namer))),
        Request::CloseSession => Ok(Response::CloseSession),
        other => Err(ZkError::BadArguments {
            reason: format!("{:?} is not a write operation", other.op()),
        }),
    }
}

/// Applies a `multi` transaction atomically: sub-operations execute in order
/// against the live tree, journalling the prior state of every znode they
/// touch; the first failure rolls the journal back (so the tree is
/// byte-for-byte what it was) and maps the remaining slots to
/// [`ErrorCode::RuntimeInconsistency`]. The whole transaction shares one
/// zxid — the one in `ctx` — exactly like ZooKeeper's multi txn.
///
/// Abort is reported in-band through the per-operation results rather than as
/// an `Err`, because an aborted transaction is still a successfully processed
/// request (every replica computes the identical result vector).
pub fn apply_multi(
    tree: &mut DataTree,
    multi: &MultiRequest,
    ctx: &ApplyContext,
    namer: &dyn SequentialNamer,
) -> MultiResponse {
    let mut undo = UndoLog::default();
    let mut results = Vec::with_capacity(multi.ops.len());
    for (index, op) in multi.ops.iter().enumerate() {
        match apply_op(tree, op, ctx, namer, &mut undo) {
            Ok(result) => results.push(result),
            Err(err) => {
                undo.rollback(tree);
                return MultiResponse::aborted(multi.ops.len(), index, err.code());
            }
        }
    }
    MultiResponse::new(results)
}

/// Applies one sub-operation of a `multi`, journalling touched znodes first.
fn apply_op(
    tree: &mut DataTree,
    op: &Op,
    ctx: &ApplyContext,
    namer: &dyn SequentialNamer,
    undo: &mut UndoLog,
) -> Result<OpResult, ZkError> {
    match op {
        Op::Create(create) => {
            let final_path =
                create_node(tree, &create.path, &create.data, create.mode, ctx, namer, Some(undo))?;
            Ok(OpResult::Create { path: final_path })
        }
        Op::Delete(delete) => {
            validate_path(&delete.path)?;
            undo.capture(tree, &delete.path);
            if let Some((parent, _)) = split_path(&delete.path) {
                undo.capture(tree, parent);
            }
            tree.delete(&delete.path, delete.version, ctx.zxid)?;
            Ok(OpResult::Delete)
        }
        Op::SetData(set) => {
            validate_path(&set.path)?;
            undo.capture(tree, &set.path);
            let stat =
                tree.set_data(&set.path, set.data.clone(), set.version, ctx.zxid, ctx.time_ms)?;
            Ok(OpResult::SetData { stat })
        }
        Op::Check(check) => {
            validate_path(&check.path)?;
            check_version(tree, &check.path, check.version)?;
            Ok(OpResult::Check)
        }
    }
}

/// The shared CREATE path: sequential naming through the namer hook, then the
/// tree insert. `undo` (multi only) captures the parent *before* the sequence
/// counter is consumed and the target before it is inserted.
fn create_node(
    tree: &mut DataTree,
    path: &str,
    data: &[u8],
    mode: CreateMode,
    ctx: &ApplyContext,
    namer: &dyn SequentialNamer,
    undo: Option<&mut UndoLog>,
) -> Result<String, ZkError> {
    validate_path(path)?;
    if path == "/" {
        return Err(ZkError::NodeExists { path: "/".to_string() });
    }
    let (parent, _) = split_path(path)
        .ok_or_else(|| ZkError::BadArguments { reason: "create on root".into() })?;
    let undo = match undo {
        Some(undo) => {
            undo.capture(tree, parent);
            Some(undo)
        }
        None => None,
    };
    let final_path = if mode.is_sequential() {
        let sequence = tree.next_sequence(parent)?;
        namer.name(path, sequence)
    } else {
        path.to_string()
    };
    if let Some(undo) = undo {
        undo.capture(tree, &final_path);
    }
    let owner = if mode.is_ephemeral() { ctx.session_id } else { 0 };
    tree.create(&final_path, data.to_vec(), owner, ctx.zxid, ctx.time_ms)?;
    Ok(final_path)
}

/// Verifies that `path` exists and, unless `version` is -1, that its data
/// version matches.
///
/// # Errors
///
/// Returns [`ZkError::NoNode`] or [`ZkError::BadVersion`].
pub fn check_version(tree: &DataTree, path: &str, version: i32) -> Result<(), ZkError> {
    let node = tree.get(path).ok_or_else(|| ZkError::NoNode { path: path.to_string() })?;
    if version != -1 && node.stat().version != version {
        return Err(ZkError::BadVersion {
            path: path.to_string(),
            expected: version,
            actual: node.stat().version,
        });
    }
    Ok(())
}

/// First-touch snapshots of the znodes a `multi` has mutated so far, in
/// touch order. Rolling back restores each snapshot in reverse, leaving the
/// tree exactly as it was before the transaction started.
#[derive(Default)]
struct UndoLog {
    entries: Vec<(String, Option<Znode>)>,
    seen: HashSet<String>,
}

impl UndoLog {
    /// Records the current state of `path` unless it was already captured.
    fn capture(&mut self, tree: &DataTree, path: &str) {
        if self.seen.insert(path.to_string()) {
            self.entries.push((path.to_string(), tree.get(path).cloned()));
        }
    }

    /// Restores every captured snapshot, newest first.
    fn rollback(self, tree: &mut DataTree) {
        for (path, node) in self.entries.into_iter().rev() {
            tree.restore_node(&path, node);
        }
    }
}

/// Answers a read request from the local tree.
///
/// # Errors
///
/// Returns the [`ZkError`] describing why the operation was rejected.
pub fn apply_read(tree: &DataTree, request: &Request) -> Result<Response, ZkError> {
    match request {
        Request::GetData(get) => {
            validate_path(&get.path)?;
            let (data, stat) = tree.get_data(&get.path)?;
            Ok(Response::GetData(GetDataResponse { data, stat }))
        }
        Request::Exists(exists) => {
            validate_path(&exists.path)?;
            match tree.stat(&exists.path) {
                Some(stat) => Ok(Response::Exists(ExistsResponse { stat })),
                None => Err(ZkError::NoNode { path: exists.path.clone() }),
            }
        }
        Request::GetChildren(ls) => {
            validate_path(&ls.path)?;
            let children = tree.get_children(&ls.path)?;
            Ok(Response::GetChildren(GetChildrenResponse { children }))
        }
        Request::Ping => Ok(Response::Ping),
        other => Err(ZkError::BadArguments {
            reason: format!("{:?} is not a read operation", other.op()),
        }),
    }
}

/// Convenience: turns a [`ZkError`] into the wire-level error response.
pub fn error_response(err: &ZkError) -> Response {
    Response::Error(err.code())
}

/// True if the operation only reads state and can be answered by any replica.
pub fn is_read_op(op: OpCode) -> bool {
    !op.is_write() && op != OpCode::Connect
}

/// Maps an error code back into a `ZkError` (used by typed clients).
pub fn error_from_code(code: ErrorCode, path: &str) -> ZkError {
    match code {
        ErrorCode::NoNode => ZkError::NoNode { path: path.to_string() },
        ErrorCode::NodeExists => ZkError::NodeExists { path: path.to_string() },
        ErrorCode::NotEmpty => ZkError::NotEmpty { path: path.to_string() },
        ErrorCode::BadVersion => {
            ZkError::BadVersion { path: path.to_string(), expected: -1, actual: -1 }
        }
        ErrorCode::NoChildrenForEphemerals => {
            ZkError::NoChildrenForEphemerals { path: path.to_string() }
        }
        ErrorCode::SessionExpired => ZkError::SessionExpired { session_id: 0 },
        ErrorCode::RuntimeInconsistency => ZkError::RuntimeInconsistency { path: path.to_string() },
        ErrorCode::NoQuorum => ZkError::NoQuorum,
        ErrorCode::ConnectionLoss => {
            ZkError::ConnectionLoss { reason: format!("connection lost on {path}") }
        }
        ErrorCode::AuthFailed => ZkError::Marshalling { reason: "authentication failed".into() },
        ErrorCode::BadArguments => ZkError::BadArguments { reason: path.to_string() },
        ErrorCode::Throttled => ZkError::Throttled,
        ErrorCode::CrossShard => ZkError::CrossShard { path: path.to_string() },
        ErrorCode::Ok | ErrorCode::MarshallingError => {
            ZkError::Marshalling { reason: format!("unexpected error code for {path}") }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jute::records::{
        CreateMode, CreateRequest, DeleteRequest, GetChildrenRequest, GetDataRequest,
        SetDataRequest,
    };

    fn ctx(zxid: i64) -> ApplyContext {
        ApplyContext { zxid, time_ms: 1_000 + zxid, session_id: 7 }
    }

    fn create_req(path: &str, mode: CreateMode) -> Request {
        Request::Create(CreateRequest { path: path.into(), data: b"d".to_vec(), mode })
    }

    #[test]
    fn create_get_set_delete_cycle() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;

        let resp =
            apply_write(&mut tree, &create_req("/app", CreateMode::Persistent), &ctx(1), &namer)
                .unwrap();
        assert_eq!(resp, Response::Create(CreateResponse { path: "/app".into() }));

        let resp = apply_read(
            &tree,
            &Request::GetData(GetDataRequest { path: "/app".into(), watch: false }),
        )
        .unwrap();
        match resp {
            Response::GetData(get) => assert_eq!(get.data, b"d"),
            other => panic!("unexpected {other:?}"),
        }

        let resp = apply_write(
            &mut tree,
            &Request::SetData(SetDataRequest {
                path: "/app".into(),
                data: b"d2".to_vec(),
                version: 0,
            }),
            &ctx(2),
            &namer,
        )
        .unwrap();
        match resp {
            Response::SetData(set) => assert_eq!(set.stat.version, 1),
            other => panic!("unexpected {other:?}"),
        }

        apply_write(
            &mut tree,
            &Request::Delete(DeleteRequest { path: "/app".into(), version: -1 }),
            &ctx(3),
            &namer,
        )
        .unwrap();
        assert!(!tree.contains("/app"));
    }

    #[test]
    fn sequential_create_appends_zero_padded_counter() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/locks", CreateMode::Persistent), &ctx(1), &namer)
            .unwrap();

        let r1 = apply_write(
            &mut tree,
            &create_req("/locks/lock-", CreateMode::PersistentSequential),
            &ctx(2),
            &namer,
        )
        .unwrap();
        let r2 = apply_write(
            &mut tree,
            &create_req("/locks/lock-", CreateMode::PersistentSequential),
            &ctx(3),
            &namer,
        )
        .unwrap();
        assert_eq!(r1, Response::Create(CreateResponse { path: "/locks/lock-0000000000".into() }));
        assert_eq!(r2, Response::Create(CreateResponse { path: "/locks/lock-0000000001".into() }));
        assert_eq!(tree.get_children("/locks").unwrap().len(), 2);
    }

    #[test]
    fn sequential_numbering_is_per_parent_and_deterministic() {
        // Two replicas applying the same sequence of writes reach the same names.
        let namer = DefaultSequentialNamer;
        let mut a = DataTree::new();
        let mut b = DataTree::new();
        for tree in [&mut a, &mut b] {
            apply_write(tree, &create_req("/q", CreateMode::Persistent), &ctx(1), &namer).unwrap();
            apply_write(
                tree,
                &create_req("/q/item-", CreateMode::PersistentSequential),
                &ctx(2),
                &namer,
            )
            .unwrap();
            apply_write(
                tree,
                &create_req("/q/item-", CreateMode::PersistentSequential),
                &ctx(3),
                &namer,
            )
            .unwrap();
        }
        assert_eq!(a.paths(), b.paths());
    }

    #[test]
    fn ephemeral_create_records_session_owner() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/e", CreateMode::Ephemeral), &ctx(1), &namer).unwrap();
        assert_eq!(tree.get("/e").unwrap().stat().ephemeral_owner, 7);
        assert_eq!(tree.ephemerals_of(7), vec!["/e".to_string()]);
    }

    #[test]
    fn custom_namer_is_honoured() {
        struct SuffixNamer;
        impl SequentialNamer for SuffixNamer {
            fn name(&self, requested_path: &str, sequence: u32) -> String {
                format!("{requested_path}#{sequence}")
            }
        }
        let mut tree = DataTree::new();
        apply_write(&mut tree, &create_req("/s", CreateMode::Persistent), &ctx(1), &SuffixNamer)
            .unwrap();
        let resp = apply_write(
            &mut tree,
            &create_req("/s/n-", CreateMode::PersistentSequential),
            &ctx(2),
            &SuffixNamer,
        )
        .unwrap();
        assert_eq!(resp, Response::Create(CreateResponse { path: "/s/n-#0".into() }));
    }

    #[test]
    fn reads_reject_write_ops_and_vice_versa() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        assert!(apply_read(&tree, &create_req("/a", CreateMode::Persistent)).is_err());
        assert!(apply_write(
            &mut tree,
            &Request::GetData(GetDataRequest { path: "/".into(), watch: false }),
            &ctx(1),
            &namer
        )
        .is_err());
    }

    #[test]
    fn reads_report_missing_nodes() {
        let tree = DataTree::new();
        for request in [
            Request::GetData(GetDataRequest { path: "/missing".into(), watch: false }),
            Request::GetChildren(GetChildrenRequest { path: "/missing".into(), watch: false }),
        ] {
            assert!(matches!(apply_read(&tree, &request), Err(ZkError::NoNode { .. })));
        }
    }

    fn multi(ops: Vec<Op>) -> Request {
        Request::Multi(MultiRequest::new(ops))
    }

    fn op_create(path: &str, mode: CreateMode) -> Op {
        Op::Create(jute::records::CreateRequest { path: path.into(), data: b"m".to_vec(), mode })
    }

    #[test]
    fn multi_commits_all_sub_ops_at_one_zxid() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/app", CreateMode::Persistent), &ctx(1), &namer)
            .unwrap();

        let request = multi(vec![
            Op::Check(jute::records::CheckVersionRequest { path: "/app".into(), version: 0 }),
            op_create("/app/a", CreateMode::Persistent),
            Op::SetData(jute::records::SetDataRequest {
                path: "/app".into(),
                data: b"v2".to_vec(),
                version: 0,
            }),
            op_create("/app/b", CreateMode::Persistent),
            Op::Delete(jute::records::DeleteRequest { path: "/app/a".into(), version: -1 }),
        ]);
        let response = apply_write(&mut tree, &request, &ctx(2), &namer).unwrap();
        let results = match response {
            Response::Multi(multi) => multi,
            other => panic!("unexpected {other:?}"),
        };
        assert!(results.is_committed());
        assert_eq!(results.results.len(), 5);
        assert_eq!(results.results[1], OpResult::Create { path: "/app/a".into() });
        assert!(matches!(results.results[2], OpResult::SetData { stat } if stat.version == 1));
        // Everything the transaction touched carries the transaction's zxid.
        assert_eq!(tree.get("/app/b").unwrap().stat().czxid, 2);
        assert_eq!(tree.get("/app").unwrap().stat().mzxid, 2);
        assert_eq!(tree.get("/app").unwrap().stat().pzxid, 2);
        assert!(!tree.contains("/app/a"), "created then deleted inside the txn");
    }

    #[test]
    fn failed_check_aborts_the_whole_multi() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/cfg", CreateMode::Persistent), &ctx(1), &namer)
            .unwrap();
        let before = snapshot(&tree);

        let request = multi(vec![
            op_create("/cfg/staged", CreateMode::Persistent),
            Op::Check(jute::records::CheckVersionRequest { path: "/cfg".into(), version: 7 }),
            op_create("/cfg/other", CreateMode::Persistent),
        ]);
        let response = apply_write(&mut tree, &request, &ctx(2), &namer).unwrap();
        let results = match response {
            Response::Multi(multi) => multi,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            results.results,
            vec![
                OpResult::Error(ErrorCode::RuntimeInconsistency),
                OpResult::Error(ErrorCode::BadVersion),
                OpResult::Error(ErrorCode::RuntimeInconsistency),
            ]
        );
        assert_eq!(results.first_error(), Some((1, ErrorCode::BadVersion)));
        assert_eq!(snapshot(&tree), before, "aborted multi must leave the tree untouched");
    }

    #[test]
    fn aborted_multi_rolls_back_sequence_counters_and_stats() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/q", CreateMode::Persistent), &ctx(1), &namer).unwrap();
        apply_write(&mut tree, &create_req("/q/keep", CreateMode::Persistent), &ctx(2), &namer)
            .unwrap();
        let before = snapshot(&tree);

        // Two sequential creates, a delete and a set succeed before the
        // final op fails: every mutation must unwind, including the parent's
        // sequence counter, cversion/pzxid, and the deleted node.
        let request = multi(vec![
            op_create("/q/item-", CreateMode::PersistentSequential),
            op_create("/q/item-", CreateMode::PersistentSequential),
            Op::Delete(jute::records::DeleteRequest { path: "/q/keep".into(), version: -1 }),
            Op::SetData(jute::records::SetDataRequest {
                path: "/q".into(),
                data: b"x".to_vec(),
                version: -1,
            }),
            Op::Delete(jute::records::DeleteRequest { path: "/q/missing".into(), version: -1 }),
        ]);
        let response = apply_write(&mut tree, &request, &ctx(3), &namer).unwrap();
        match response {
            Response::Multi(multi) => {
                assert_eq!(multi.first_error(), Some((4, ErrorCode::NoNode)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(snapshot(&tree), before);

        // A later sequential create re-uses the rolled-back number.
        let response = apply_write(
            &mut tree,
            &create_req("/q/item-", CreateMode::PersistentSequential),
            &ctx(4),
            &namer,
        )
        .unwrap();
        assert_eq!(
            response,
            Response::Create(CreateResponse { path: "/q/item-0000000000".into() })
        );
    }

    #[test]
    fn multi_sub_ops_see_earlier_sub_ops() {
        // A create may target a parent created earlier in the same txn, and a
        // check may guard a node the txn just wrote.
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        let request = multi(vec![
            op_create("/parent", CreateMode::Persistent),
            op_create("/parent/child", CreateMode::Persistent),
            Op::Check(jute::records::CheckVersionRequest {
                path: "/parent/child".into(),
                version: 0,
            }),
        ]);
        let response = apply_write(&mut tree, &request, &ctx(1), &namer).unwrap();
        match response {
            Response::Multi(multi) => assert!(multi.is_committed()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(tree.contains("/parent/child"));
    }

    #[test]
    fn standalone_check_validates_existence_and_version() {
        let mut tree = DataTree::new();
        let namer = DefaultSequentialNamer;
        apply_write(&mut tree, &create_req("/c", CreateMode::Persistent), &ctx(1), &namer).unwrap();
        let ok =
            Request::Check(jute::records::CheckVersionRequest { path: "/c".into(), version: 0 });
        assert_eq!(apply_write(&mut tree, &ok, &ctx(2), &namer).unwrap(), Response::Check);
        let any =
            Request::Check(jute::records::CheckVersionRequest { path: "/c".into(), version: -1 });
        assert_eq!(apply_write(&mut tree, &any, &ctx(3), &namer).unwrap(), Response::Check);
        let stale =
            Request::Check(jute::records::CheckVersionRequest { path: "/c".into(), version: 3 });
        assert!(matches!(
            apply_write(&mut tree, &stale, &ctx(4), &namer),
            Err(ZkError::BadVersion { .. })
        ));
        let missing = Request::Check(jute::records::CheckVersionRequest {
            path: "/missing".into(),
            version: -1,
        });
        assert!(matches!(
            apply_write(&mut tree, &missing, &ctx(5), &namer),
            Err(ZkError::NoNode { .. })
        ));
    }

    /// Captures every node's full state: (path, data, stat, children, and —
    /// via a probe create below — sequence counters are covered separately).
    fn snapshot(tree: &DataTree) -> Vec<(String, Vec<u8>, jute::records::Stat, Vec<String>)> {
        tree.paths()
            .into_iter()
            .map(|path| {
                let node = tree.get(&path).unwrap();
                (
                    path.clone(),
                    node.data().to_vec(),
                    *node.stat(),
                    node.children().map(str::to_string).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn write_txn_roundtrip() {
        let txn = WriteTxn { session_id: 42, time_ms: 123_456, request_bytes: vec![1, 2, 3, 4] };
        assert_eq!(WriteTxn::from_bytes(&txn.to_bytes()).unwrap(), txn);
        assert!(WriteTxn::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn error_response_maps_code() {
        let err = ZkError::NoNode { path: "/x".into() };
        assert_eq!(error_response(&err), Response::Error(ErrorCode::NoNode));
        assert!(matches!(error_from_code(ErrorCode::NoNode, "/x"), ZkError::NoNode { .. }));
    }

    #[test]
    fn read_op_classification() {
        assert!(is_read_op(OpCode::GetData));
        assert!(is_read_op(OpCode::GetChildren));
        assert!(is_read_op(OpCode::Exists));
        assert!(!is_read_op(OpCode::Create));
        assert!(!is_read_op(OpCode::Connect));
    }
}
