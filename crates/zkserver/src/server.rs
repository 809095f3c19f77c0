//! A single ZooKeeper replica.
//!
//! A replica owns the data tree, the sessions of the clients connected to it,
//! their watches, and the byte-level request path that SecureKeeper's entry
//! enclave intercepts. In standalone mode the replica orders writes itself;
//! in cluster mode ([`crate::cluster::ZkCluster`]) writes arrive as committed
//! ZAB transactions via [`ZkReplica::apply_txn`].
//!
//! The replica uses interior mutability throughout so it can be shared
//! between the threads of the networked transport ([`crate::net`]): reads
//! take a shared lock on the tree and run concurrently, writes take the
//! exclusive lock and allocate their zxid inside it, so zxid order always
//! matches tree-application order.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use jute::records::{ConnectResponse, OpCode, ReplyHeader, RequestHeader};
use jute::{Request, Response};

use crate::error::ZkError;
use crate::ops::{self, ApplyContext, DefaultSequentialNamer, SequentialNamer, WriteTxn};
use crate::pipeline::{PassthroughInterceptor, RequestInterceptor};
use crate::session::{Clock, ManualClock, SessionManager, SessionRecord};
use crate::tree::{split_path, DataTree};
use crate::watch::{WatchEvent, WatchEventKind, WatchManager};

/// Default session timeout granted to clients, in milliseconds.
pub const DEFAULT_SESSION_TIMEOUT_MS: i64 = 30_000;

/// One ZooKeeper replica.
pub struct ZkReplica {
    id: u32,
    tree: RwLock<DataTree>,
    sessions: Mutex<SessionManager>,
    watches: Mutex<WatchManager>,
    namer: Arc<dyn SequentialNamer>,
    interceptor: Arc<dyn RequestInterceptor>,
    clock: Arc<dyn Clock>,
    /// Kept when the replica runs on the default [`ManualClock`] so
    /// [`ZkReplica::advance_clock`] can drive it (deterministic tests).
    manual_clock: Option<Arc<ManualClock>>,
    last_zxid: AtomicI64,
    watch_events: Mutex<Vec<WatchEvent>>,
}

impl std::fmt::Debug for ZkReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkReplica")
            .field("id", &self.id)
            .field("znodes", &self.tree.read().node_count())
            .field("sessions", &self.sessions.lock().count())
            .field("last_zxid", &self.last_zxid())
            .finish()
    }
}

impl ZkReplica {
    /// Creates a replica with the default (vanilla ZooKeeper) behaviour and a
    /// manually ticked clock.
    pub fn new(id: u32) -> Self {
        let manual = Arc::new(ManualClock::new());
        ZkReplica {
            id,
            tree: RwLock::new(DataTree::new()),
            // Session ids are namespaced by replica id so ephemeral owners
            // stay unique when several replicas of an ensemble each accept
            // their own client connections.
            sessions: Mutex::new(SessionManager::with_id_base(i64::from(id) << 48)),
            watches: Mutex::new(WatchManager::new()),
            namer: Arc::new(DefaultSequentialNamer),
            interceptor: Arc::new(PassthroughInterceptor),
            clock: Arc::clone(&manual) as Arc<dyn Clock>,
            manual_clock: Some(manual),
            last_zxid: AtomicI64::new(0),
            watch_events: Mutex::new(Vec::new()),
        }
    }

    /// Replaces the sequential-node naming hook (SecureKeeper's counter enclave).
    pub fn with_namer(mut self, namer: Arc<dyn SequentialNamer>) -> Self {
        self.namer = namer;
        self
    }

    /// Replaces the request/response interceptor (SecureKeeper's entry enclaves).
    pub fn with_interceptor(mut self, interceptor: Arc<dyn RequestInterceptor>) -> Self {
        self.interceptor = interceptor;
        self
    }

    /// Replaces the session time source. The networked server installs a
    /// [`crate::session::MonotonicClock`] here so session expiry follows
    /// wall-clock time; [`ZkReplica::advance_clock`] becomes a no-op for the
    /// clock (it still runs the expiry sweep).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self.manual_clock = None;
        self
    }

    /// The replica's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The interceptor installed on this replica.
    pub fn interceptor(&self) -> Arc<dyn RequestInterceptor> {
        Arc::clone(&self.interceptor)
    }

    /// Read access to the data tree (holds the tree's shared lock).
    pub fn tree(&self) -> RwLockReadGuard<'_, DataTree> {
        self.tree.read()
    }

    /// Approximate memory footprint of the replica's database in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.read().approximate_memory_bytes()
    }

    /// The session clock in milliseconds.
    pub fn now_ms(&self) -> i64 {
        self.clock.now_ms()
    }

    /// Advances the manual clock (when installed) and expires timed-out
    /// sessions, removing their ephemeral znodes.
    pub fn advance_clock(&self, delta_ms: i64) {
        if let Some(manual) = &self.manual_clock {
            manual.advance(delta_ms);
        }
        self.tick();
    }

    /// Runs one session-expiry sweep at the current clock reading and returns
    /// the ids of the sessions that expired. The networked server calls this
    /// from its background ticker.
    pub fn tick(&self) -> Vec<i64> {
        let now = self.clock.now_ms();
        let expired = self.sessions.lock().expire_sessions(now);
        for &session_id in &expired {
            self.cleanup_session(session_id);
            self.interceptor.on_session_closed(session_id);
        }
        expired
    }

    /// The zxid of the most recently applied write.
    pub fn last_zxid(&self) -> i64 {
        self.last_zxid.load(Ordering::SeqCst)
    }

    /// `(id, timeout_ms)` of every active session, sorted by id.
    pub fn session_table(&self) -> Vec<(i64, i64)> {
        self.sessions.lock().session_table()
    }

    /// The full durable record (id, timeout, password) of every active
    /// session, sorted by id — the session table persisted in snapshots so
    /// clients can re-attach after a full-ensemble restart.
    pub fn session_records(&self) -> Vec<SessionRecord> {
        self.sessions.lock().session_records()
    }

    /// Replaces the replica's entire state with a recovered or
    /// leader-shipped snapshot: the tree, the applied-zxid watermark, and
    /// the session table (adopted so recovered ephemeral owners can still
    /// expire). Watches are *not* restored — they are connection state, and
    /// the connections did not survive the restart.
    pub fn install_snapshot(&self, tree: DataTree, last_zxid: i64, sessions: &[SessionRecord]) {
        {
            let mut guard = self.tree.write();
            *guard = tree;
            self.last_zxid.store(last_zxid, Ordering::SeqCst);
        }
        let now = self.clock.now_ms();
        let mut manager = self.sessions.lock();
        for record in sessions {
            // Sessions connected to this replica right now keep their live
            // state (password, last-seen); only unknown owners are adopted.
            if !manager.is_active(record.id) {
                manager.adopt_with_password(record.id, record.timeout_ms, &record.password, now);
            }
        }
    }

    /// Number of active sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().count()
    }

    /// Number of watches currently armed (registered and not yet fired).
    pub fn watch_count(&self) -> usize {
        self.watches.lock().pending()
    }

    /// Establishes a new client session.
    pub fn connect(&self, timeout_ms: i64) -> ConnectResponse {
        let (session_id, password) =
            self.sessions.lock().create_session(timeout_ms, self.clock.now_ms());
        ConnectResponse { protocol_version: 0, timeout_ms: timeout_ms as i32, session_id, password }
    }

    /// Registers a session under an externally assigned id (cluster mode);
    /// returns the session password.
    pub fn adopt_session(&self, session_id: i64, timeout_ms: i64) -> Vec<u8> {
        self.sessions.lock().adopt(session_id, timeout_ms, self.clock.now_ms())
    }

    /// Re-attaches a client to an existing session: verifies the password
    /// against the (possibly snapshot-recovered) session and touches it.
    /// Returns `None` for unknown sessions or a password mismatch — the
    /// caller falls back to establishing a fresh session.
    pub fn reattach_session(&self, session_id: i64, password: &[u8]) -> Option<ConnectResponse> {
        let timeout_ms =
            self.sessions.lock().reattach(session_id, password, self.clock.now_ms())?;
        Some(ConnectResponse {
            protocol_version: 0,
            timeout_ms: timeout_ms as i32,
            session_id,
            password: password.to_vec(),
        })
    }

    /// Closes a session, removing its watches and ephemeral znodes.
    pub fn close_session(&self, session_id: i64) {
        if self.sessions.lock().close_session(session_id) {
            self.cleanup_session(session_id);
        }
        self.interceptor.on_session_closed(session_id);
    }

    /// Ids of sessions whose timeout has elapsed at the current clock
    /// reading, *without* expiring them. The ensemble server uses this to
    /// replicate the ephemeral cleanup through agreement before removing the
    /// session with [`ZkReplica::remove_session_local`].
    pub fn peek_expired_sessions(&self) -> Vec<i64> {
        self.sessions.lock().peek_expired(self.clock.now_ms())
    }

    /// Removes a session and its watches without touching the data tree.
    /// Cluster mode only: the session's ephemeral znodes must already have
    /// been deleted through agreement (a local delete would fork the
    /// replicated tree and corrupt the zxid sequence).
    pub fn remove_session_local(&self, session_id: i64) {
        if self.sessions.lock().close_session(session_id) {
            self.watches.lock().remove_session(session_id);
        }
        self.interceptor.on_session_closed(session_id);
    }

    fn cleanup_session(&self, session_id: i64) {
        self.watches.lock().remove_session(session_id);
        let mut tree = self.tree.write();
        for path in tree.ephemerals_of(session_id) {
            let zxid = self.last_zxid.fetch_add(1, Ordering::SeqCst) + 1;
            if tree.delete(&path, -1, zxid).is_ok() {
                self.record_path_watches(&path, WatchEventKind::NodeDeleted, zxid);
            }
        }
    }

    /// Handles a typed request in standalone mode (the replica orders writes
    /// itself). Returns the response; watch events are queued separately and
    /// retrieved with [`ZkReplica::take_watch_events`].
    pub fn handle_request(&self, session_id: i64, request: &Request) -> Response {
        {
            let mut sessions = self.sessions.lock();
            if !sessions.is_active(session_id) {
                return Response::Error(ZkError::SessionExpired { session_id }.code());
            }
            sessions.touch(session_id, self.clock.now_ms());
        }

        if request.op().is_write() {
            if *request == Request::CloseSession {
                self.close_session(session_id);
                return Response::CloseSession;
            }
            // The zxid is allocated while holding the exclusive tree lock, so
            // concurrent writers always apply in zxid order.
            let mut tree = self.tree.write();
            let zxid = self.last_zxid.fetch_add(1, Ordering::SeqCst) + 1;
            let ctx = ApplyContext { zxid, time_ms: self.clock.now_ms(), session_id };
            self.apply_write_with_watches(&mut tree, request, &ctx)
        } else {
            self.handle_read(session_id, request)
        }
    }

    fn handle_read(&self, session_id: i64, request: &Request) -> Response {
        self.handle_read_watch_only(session_id, request);
        match ops::apply_read(&self.tree.read(), request) {
            Ok(response) => response,
            Err(err) => ops::error_response(&err),
        }
    }

    fn apply_write_with_watches(
        &self,
        tree: &mut DataTree,
        request: &Request,
        ctx: &ApplyContext,
    ) -> Response {
        let result = ops::apply_write(tree, request, ctx, self.namer.as_ref());
        match result {
            Ok(response) => {
                self.record_write_watches(request, &response, ctx.zxid);
                response
            }
            Err(err) => ops::error_response(&err),
        }
    }

    fn record_write_watches(&self, request: &Request, response: &Response, zxid: i64) {
        match (request, response) {
            (Request::Create(_), Response::Create(create)) => {
                self.record_path_watches(&create.path, WatchEventKind::NodeCreated, zxid);
            }
            (Request::Delete(delete), Response::Delete) => {
                self.record_path_watches(&delete.path, WatchEventKind::NodeDeleted, zxid);
            }
            (Request::SetData(set), Response::SetData(_)) => {
                self.record_path_watches(&set.path, WatchEventKind::NodeDataChanged, zxid);
            }
            (Request::Multi(multi), Response::Multi(results)) if results.is_committed() => {
                self.record_multi_watches(multi, results, zxid);
            }
            _ => {}
        }
    }

    /// Fires the watches of one committed `multi` as a single batch: the
    /// per-path events of the transaction are coalesced — each `(path,
    /// trigger)` pair fires at most once no matter how many sub-operations
    /// touched it, and one `NodeChildrenChanged` per parent covers all the
    /// children the batch created or deleted under it — and every event is
    /// tagged with the transaction's single zxid. An aborted multi changed
    /// nothing and fires nothing.
    fn record_multi_watches(
        &self,
        multi: &jute::multi::MultiRequest,
        results: &jute::multi::MultiResponse,
        zxid: i64,
    ) {
        use std::collections::HashSet;

        let mut watches = self.watches.lock();
        // Nothing armed: skip building the coalescing sets.
        if watches.is_empty() {
            return;
        }
        let mut fired: HashSet<(String, WatchEventKind)> = HashSet::new();
        let mut parents: HashSet<String> = HashSet::new();
        let mut events = Vec::new();
        for (op, result) in multi.ops.iter().zip(&results.results) {
            let (path, kind) = match (op, result) {
                (jute::multi::Op::Create(_), jute::multi::OpResult::Create { path }) => {
                    (path.as_str(), WatchEventKind::NodeCreated)
                }
                (jute::multi::Op::Delete(delete), jute::multi::OpResult::Delete) => {
                    (delete.path.as_str(), WatchEventKind::NodeDeleted)
                }
                (jute::multi::Op::SetData(set), jute::multi::OpResult::SetData { .. }) => {
                    (set.path.as_str(), WatchEventKind::NodeDataChanged)
                }
                _ => continue,
            };
            if fired.insert((path.to_string(), kind)) {
                events.extend(watches.trigger_data(path, kind, zxid));
            }
            if kind != WatchEventKind::NodeDataChanged {
                if let Some((parent, _)) = split_path(path) {
                    if parents.insert(parent.to_string()) {
                        events.extend(watches.trigger_children(parent, zxid));
                    }
                }
            }
        }
        drop(watches);
        self.watch_events.lock().extend(events);
    }

    /// Fires the watches one write of `kind` on `path` triggers: the data
    /// watches of `path` and, when a node appeared or vanished, the child
    /// watches of its parent.
    fn record_path_watches(&self, path: &str, kind: WatchEventKind, zxid: i64) {
        let mut watches = self.watches.lock();
        if watches.is_empty() {
            return;
        }
        let mut events = watches.trigger_data(path, kind, zxid);
        if kind != WatchEventKind::NodeDataChanged {
            if let Some((parent, _)) = split_path(path) {
                events.extend(watches.trigger_children(parent, zxid));
            }
        }
        drop(watches);
        self.watch_events.lock().extend(events);
    }

    /// Drains watch notifications queued for `session_id`.
    pub fn take_watch_events(&self, session_id: i64) -> Vec<WatchEvent> {
        let mut queue = self.watch_events.lock();
        let (mine, rest): (Vec<WatchEvent>, Vec<WatchEvent>) =
            std::mem::take(&mut *queue).into_iter().partition(|e| e.session_id == session_id);
        *queue = rest;
        mine
    }

    /// Drains every queued watch notification (the networked server fans these
    /// out to the live connections after each write).
    pub fn take_all_watch_events(&self) -> Vec<WatchEvent> {
        std::mem::take(&mut *self.watch_events.lock())
    }

    /// Registers read-side watches for cluster mode (where reads are routed
    /// through the cluster but watches live on the connected replica).
    pub fn register_read_watch(&self, session_id: i64, request: &Request) {
        if self.sessions.lock().is_active(session_id) {
            self.handle_read_watch_only(session_id, request);
        }
    }

    fn handle_read_watch_only(&self, session_id: i64, request: &Request) {
        // Register watches before reading, as ZooKeeper does.
        match request {
            Request::GetData(get) if get.watch => {
                self.watches.lock().add_data_watch(&get.path, session_id)
            }
            Request::Exists(exists) if exists.watch => {
                self.watches.lock().add_data_watch(&exists.path, session_id)
            }
            Request::GetChildren(ls) if ls.watch => {
                self.watches.lock().add_child_watch(&ls.path, session_id)
            }
            _ => {}
        }
    }

    /// True if the session is active on this replica.
    pub fn has_session(&self, session_id: i64) -> bool {
        self.sessions.lock().is_active(session_id)
    }

    /// Touches a session (cluster mode bookkeeping).
    pub fn touch_session(&self, session_id: i64) {
        self.sessions.lock().touch(session_id, self.clock.now_ms());
    }

    /// Answers a read directly from the local tree (cluster mode).
    pub fn serve_read(&self, session_id: i64, request: &Request) -> Response {
        {
            let mut sessions = self.sessions.lock();
            if !sessions.is_active(session_id) {
                return Response::Error(ZkError::SessionExpired { session_id }.code());
            }
            sessions.touch(session_id, self.clock.now_ms());
        }
        self.handle_read(session_id, request)
    }

    /// Applies a committed write transaction delivered by ZAB (cluster mode).
    ///
    /// Every replica calls this with the same arguments in the same order, so
    /// the trees stay identical. The returned response is only meaningful on
    /// the replica the issuing client is connected to.
    pub fn apply_txn(&self, zxid: i64, txn: &WriteTxn) -> Response {
        let mut tree = self.tree.write();
        self.last_zxid.store(zxid, Ordering::SeqCst);
        let (_, request) = match Request::from_bytes(&txn.request_bytes) {
            Ok(parsed) => parsed,
            Err(err) => return ops::error_response(&ZkError::from(err)),
        };
        let ctx = ApplyContext { zxid, time_ms: txn.time_ms, session_id: txn.session_id };
        self.apply_write_with_watches(&mut tree, &request, &ctx)
    }

    /// Handles a serialized request buffer exactly as it arrives from the
    /// client connection: the interceptor sees the raw bytes first (this is
    /// where SecureKeeper's entry enclave decrypts the transport layer and
    /// encrypts sensitive fields), then the request is parsed and dispatched,
    /// and the serialized response passes through the interceptor again.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError`] when the interceptor rejects the message or the
    /// buffer cannot be parsed; operation-level failures are reported in-band
    /// as error responses.
    pub fn handle_serialized_request(
        &self,
        session_id: i64,
        mut buffer: Vec<u8>,
    ) -> Result<Vec<u8>, ZkError> {
        let interceptor = Arc::clone(&self.interceptor);
        interceptor.on_request(session_id, &mut buffer)?;
        let (header, request) = Request::from_bytes(&buffer)?;
        let response = self.handle_request(session_id, &request);
        let reply =
            ReplyHeader { xid: header.xid, zxid: self.last_zxid(), err: response.error_code() };
        let mut response_bytes = response.to_bytes(&reply);
        interceptor.on_response(session_id, header.op, &mut response_bytes)?;
        Ok(response_bytes)
    }

    /// Serializes a request for [`ZkReplica::handle_serialized_request`];
    /// mirrors what a real client library does before hitting the wire.
    pub fn serialize_request(xid: i32, request: &Request) -> Vec<u8> {
        request.to_bytes(&RequestHeader { xid, op: request.op() })
    }

    /// Parses a serialized response produced by this replica.
    ///
    /// # Errors
    ///
    /// Returns a marshalling error when the buffer cannot be decoded.
    pub fn parse_response(bytes: &[u8], op: OpCode) -> Result<(ReplyHeader, Response), ZkError> {
        Ok(Response::from_bytes(bytes, op)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::MonotonicClock;
    use jute::records::{
        CreateMode, CreateRequest, DeleteRequest, GetChildrenRequest, GetDataRequest,
        SetDataRequest,
    };

    fn replica_with_session() -> (ZkReplica, i64) {
        let replica = ZkReplica::new(1);
        let connect = replica.connect(DEFAULT_SESSION_TIMEOUT_MS);
        (replica, connect.session_id)
    }

    fn create(path: &str, mode: CreateMode) -> Request {
        Request::Create(CreateRequest { path: path.into(), data: b"v".to_vec(), mode })
    }

    #[test]
    fn standalone_write_read_cycle() {
        let (replica, session) = replica_with_session();
        let response = replica.handle_request(session, &create("/app", CreateMode::Persistent));
        assert!(response.is_ok());
        let response = replica.handle_request(
            session,
            &Request::GetData(GetDataRequest { path: "/app".into(), watch: false }),
        );
        match response {
            Response::GetData(get) => assert_eq!(get.data, b"v"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(replica.last_zxid(), 1);
    }

    #[test]
    fn requests_from_unknown_sessions_are_rejected() {
        let replica = ZkReplica::new(1);
        let response = replica.handle_request(999, &Request::Ping);
        assert_eq!(response.error_code(), jute::records::ErrorCode::SessionExpired);
    }

    #[test]
    fn close_session_removes_ephemerals_and_watches() {
        let (replica, session) = replica_with_session();
        let other = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        replica.handle_request(session, &create("/app", CreateMode::Persistent));
        replica.handle_request(session, &create("/app/worker", CreateMode::Ephemeral));
        // The other session watches the ephemeral node.
        replica.handle_request(
            other,
            &Request::GetData(GetDataRequest { path: "/app/worker".into(), watch: true }),
        );
        replica.handle_request(session, &Request::CloseSession);
        assert!(!replica.tree().contains("/app/worker"));
        let events = replica.take_watch_events(other);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::NodeDeleted);
        assert!(!replica.has_session(session));
    }

    #[test]
    fn session_expiry_removes_ephemerals() {
        let (replica, session) = replica_with_session();
        replica.handle_request(session, &create("/e", CreateMode::Ephemeral));
        replica.advance_clock(DEFAULT_SESSION_TIMEOUT_MS + 1);
        assert!(!replica.tree().contains("/e"));
        assert_eq!(replica.session_count(), 0);
    }

    #[test]
    fn monotonic_clock_expires_sessions_without_manual_ticking() {
        let replica = ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new()));
        let session = replica.connect(1).session_id; // 1 ms timeout
        replica.handle_request(session, &create("/e", CreateMode::Ephemeral));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let expired = replica.tick();
        assert_eq!(expired, vec![session]);
        assert!(!replica.tree().contains("/e"));
        // advance_clock is harmless without a manual clock: it just sweeps.
        replica.advance_clock(1_000);
        assert_eq!(replica.session_count(), 0);
    }

    #[test]
    fn watches_fire_on_data_change_and_child_change() {
        let (replica, session) = replica_with_session();
        replica.handle_request(session, &create("/app", CreateMode::Persistent));
        replica.handle_request(
            session,
            &Request::GetData(GetDataRequest { path: "/app".into(), watch: true }),
        );
        replica.handle_request(
            session,
            &Request::GetChildren(GetChildrenRequest { path: "/app".into(), watch: true }),
        );
        replica.handle_request(
            session,
            &Request::SetData(SetDataRequest {
                path: "/app".into(),
                data: b"x".to_vec(),
                version: -1,
            }),
        );
        replica.handle_request(session, &create("/app/child", CreateMode::Persistent));
        let events = replica.take_watch_events(session);
        let kinds: Vec<WatchEventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&WatchEventKind::NodeDataChanged));
        assert!(kinds.contains(&WatchEventKind::NodeChildrenChanged));
        // Watches are one-shot: another change fires nothing.
        replica.handle_request(
            session,
            &Request::SetData(SetDataRequest {
                path: "/app".into(),
                data: b"y".to_vec(),
                version: -1,
            }),
        );
        assert!(replica.take_watch_events(session).is_empty());
    }

    #[test]
    fn multi_watches_fire_coalesced_and_share_the_txn_zxid() {
        use jute::multi::Op;
        use jute::records::SetDataRequest;

        let (replica, writer) = replica_with_session();
        let watcher_a = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        let watcher_b = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
        replica.handle_request(writer, &create("/app", CreateMode::Persistent));
        replica.handle_request(writer, &create("/app/cfg", CreateMode::Persistent));
        // Both sessions watch the parent's children and the cfg node's data.
        for session in [watcher_a, watcher_b] {
            replica.handle_request(
                session,
                &Request::GetChildren(GetChildrenRequest { path: "/app".into(), watch: true }),
            );
            replica.handle_request(
                session,
                &Request::GetData(GetDataRequest { path: "/app/cfg".into(), watch: true }),
            );
        }

        // One committed multi: two creates under the same parent and two
        // set_datas on the same node.
        let response = replica.handle_request(
            writer,
            &Request::Multi(jute::multi::MultiRequest {
                ops: vec![
                    Op::Create(CreateRequest {
                        path: "/app/one".into(),
                        data: vec![],
                        mode: CreateMode::Persistent,
                    }),
                    Op::Create(CreateRequest {
                        path: "/app/two".into(),
                        data: vec![],
                        mode: CreateMode::Persistent,
                    }),
                    Op::SetData(SetDataRequest {
                        path: "/app/cfg".into(),
                        data: b"v1".to_vec(),
                        version: -1,
                    }),
                    Op::SetData(SetDataRequest {
                        path: "/app/cfg".into(),
                        data: b"v2".to_vec(),
                        version: -1,
                    }),
                ],
            }),
        );
        assert!(response.is_ok());
        let txn_zxid = replica.last_zxid();

        for session in [watcher_a, watcher_b] {
            let events = replica.take_watch_events(session);
            // Coalesced: ONE children-changed for the parent (not one per
            // created child) and ONE data-changed for the twice-written
            // node, all tagged with the batch's single zxid.
            let kinds: Vec<WatchEventKind> = events.iter().map(|e| e.kind).collect();
            assert_eq!(
                kinds,
                vec![WatchEventKind::NodeChildrenChanged, WatchEventKind::NodeDataChanged],
                "session {session}"
            );
            assert!(
                events.iter().all(|e| e.zxid == txn_zxid),
                "all events of one multi carry its zxid: {events:?}"
            );
        }
    }

    #[test]
    fn serialized_path_roundtrips_through_interceptor() {
        let (replica, session) = replica_with_session();
        let request = create("/via-bytes", CreateMode::Persistent);
        let bytes = ZkReplica::serialize_request(5, &request);
        let response_bytes = replica.handle_serialized_request(session, bytes).unwrap();
        let (header, response) =
            ZkReplica::parse_response(&response_bytes, OpCode::Create).unwrap();
        assert_eq!(header.xid, 5);
        assert!(response.is_ok());
        assert!(replica.tree().contains("/via-bytes"));
    }

    #[test]
    fn interceptor_errors_abort_the_request() {
        struct Reject;
        impl RequestInterceptor for Reject {
            fn on_request(&self, _session: i64, _buffer: &mut Vec<u8>) -> Result<(), ZkError> {
                Err(ZkError::Marshalling { reason: "tampered".into() })
            }
        }
        let replica = ZkReplica::new(1).with_interceptor(Arc::new(Reject));
        let session = replica.connect(1000).session_id;
        let bytes = ZkReplica::serialize_request(1, &Request::Ping);
        assert!(replica.handle_serialized_request(session, bytes).is_err());
    }

    #[test]
    fn apply_txn_matches_standalone_semantics() {
        let (replica, session) = replica_with_session();
        let request = create("/from-zab", CreateMode::Persistent);
        let txn = WriteTxn {
            session_id: session,
            time_ms: 42,
            request_bytes: ZkReplica::serialize_request(1, &request),
        };
        let response = replica.apply_txn(10, &txn);
        assert!(response.is_ok());
        assert_eq!(replica.tree().get("/from-zab").unwrap().stat().czxid, 10);
        assert_eq!(replica.last_zxid(), 10);
    }

    #[test]
    fn delete_and_error_paths() {
        let (replica, session) = replica_with_session();
        replica.handle_request(session, &create("/a", CreateMode::Persistent));
        let response = replica.handle_request(
            session,
            &Request::Delete(DeleteRequest { path: "/missing".into(), version: -1 }),
        );
        assert_eq!(response.error_code(), jute::records::ErrorCode::NoNode);
        let response = replica.handle_request(
            session,
            &Request::Delete(DeleteRequest { path: "/a".into(), version: -1 }),
        );
        assert!(response.is_ok());
    }

    #[test]
    fn concurrent_reads_and_writes_keep_zxids_ordered() {
        let replica = Arc::new(ZkReplica::new(1));
        replica.handle_request(
            replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id,
            &create("/root", CreateMode::Persistent),
        );
        let mut handles = Vec::new();
        for t in 0..4 {
            let replica = Arc::clone(&replica);
            handles.push(std::thread::spawn(move || {
                let session = replica.connect(DEFAULT_SESSION_TIMEOUT_MS).session_id;
                let mut last = 0i64;
                for i in 0..25 {
                    let response = replica.handle_request(
                        session,
                        &create(&format!("/root/t{t}-{i}"), CreateMode::Persistent),
                    );
                    assert!(response.is_ok());
                    let zxid = replica.last_zxid();
                    assert!(zxid > last, "zxid moved backwards: {zxid} after {last}");
                    last = zxid;
                    // Interleave reads, which only take the shared lock.
                    let read = replica.handle_request(
                        session,
                        &Request::GetChildren(GetChildrenRequest {
                            path: "/root".into(),
                            watch: false,
                        }),
                    );
                    assert!(read.is_ok());
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // 1 root create + 4 threads × 25 creates.
        assert_eq!(replica.last_zxid(), 101);
        assert_eq!(replica.tree().get("/root").unwrap().stat().num_children, 100);
    }

    #[test]
    fn debug_output_is_informative() {
        let (replica, _) = replica_with_session();
        let rendered = format!("{replica:?}");
        assert!(rendered.contains("ZkReplica"));
        assert!(rendered.contains("sessions"));
    }
}
